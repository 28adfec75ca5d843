// PODEM tests: generated tests verified by independent fault simulation;
// untestability proofs on known-redundant structures.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>

#include "atpg/detectability.hpp"
#include "atpg/podem.hpp"
#include "fault/collapse.hpp"
#include "fault/comb_fsim.hpp"
#include "gen/registry.hpp"
#include "gen/s27.hpp"
#include "gen/synth.hpp"
#include "helpers.hpp"
#include "rand/rng.hpp"
#include "store/serde.hpp"

namespace rls::atpg {
namespace {

using fault::Fault;
using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;
using sim::Word;

/// Verifies a PODEM result by simulating the fault under the generated
/// assignment (don't-cares filled with 0) via the PPSFP simulator.
bool verify_test(const sim::CompiledCircuit& cc, const Fault& f,
                 const Podem::Result& r) {
  std::vector<Word> pi(cc.inputs().size()), ppi(cc.flip_flops().size());
  for (std::size_t k = 0; k < pi.size(); ++k) {
    pi[k] = r.pi[k] == 1 ? sim::kAllOnes : 0;
  }
  for (std::size_t k = 0; k < ppi.size(); ++k) {
    ppi[k] = r.ppi[k] == 1 ? sim::kAllOnes : 0;
  }
  fault::CombFaultSim fsim(cc);
  fsim.set_patterns(pi, ppi);
  return fsim.detect_mask(f) != 0;
}

class PodemProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemProperty, GeneratedTestsActuallyDetect) {
  const Netlist nl =
      GetParam() == 0
          ? gen::make_s27()
          : gen::synthesize(rls::test::small_profile(GetParam()));
  const sim::CompiledCircuit cc(nl);
  Podem podem(cc);
  std::size_t detected = 0, untestable = 0, aborted = 0;
  for (const Fault& f : fault::collapsed_universe(nl)) {
    const Podem::Result r = podem.generate(f);
    switch (r.status) {
      case Podem::Status::kDetected:
        ++detected;
        EXPECT_TRUE(verify_test(cc, f, r)) << fault_name(nl, f);
        break;
      case Podem::Status::kUntestable:
        ++untestable;
        break;
      case Podem::Status::kAborted:
        ++aborted;
        break;
    }
  }
  EXPECT_GT(detected, 0u);
  // Small random circuits must not abort.
  EXPECT_EQ(aborted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemProperty,
                         ::testing::Range<std::uint64_t>(0, 6));

// Property: PODEM's untestable verdicts agree with exhaustive search on a
// tiny circuit (all 2^(PI+FF) patterns).
TEST(Podem, UntestableAgreesWithExhaustiveSearch) {
  const Netlist nl = gen::make_s27();  // 4 PI + 3 FF = 128 patterns
  const sim::CompiledCircuit cc(nl);
  Podem podem(cc);
  fault::CombFaultSim fsim(cc);
  // Enumerate all 128 patterns in two 64-lane words.
  std::vector<Word> pi1(4), ppi1(3), pi2(4), ppi2(3);
  for (int p = 0; p < 64; ++p) {
    for (int k = 0; k < 4; ++k) {
      if ((p >> k) & 1) pi1[static_cast<std::size_t>(k)] |= Word{1} << p;
    }
    for (int k = 0; k < 3; ++k) {
      if ((p >> (4 + k)) & 1) ppi1[static_cast<std::size_t>(k)] |= Word{1} << p;
    }
    const int q = p + 64;
    for (int k = 0; k < 4; ++k) {
      if ((q >> k) & 1) pi2[static_cast<std::size_t>(k)] |= Word{1} << p;
    }
    for (int k = 0; k < 3; ++k) {
      if ((q >> (4 + k)) & 1) ppi2[static_cast<std::size_t>(k)] |= Word{1} << p;
    }
  }
  for (const Fault& f : fault::full_universe(nl)) {
    fsim.set_patterns(pi1, ppi1);
    bool detectable = fsim.detect_mask(f) != 0;
    fsim.set_patterns(pi2, ppi2);
    detectable = detectable || fsim.detect_mask(f) != 0;
    const Podem::Result r = podem.generate(f);
    ASSERT_NE(r.status, Podem::Status::kAborted) << fault_name(nl, f);
    EXPECT_EQ(r.status == Podem::Status::kDetected, detectable)
        << fault_name(nl, f);
  }
}

TEST(Podem, ProvesClassicRedundancy) {
  // y = OR(AND(a, b), AND(a, NOT(b))) simplifies to a; the s-a-1 on one
  // AND's `a` pin is detectable, but adding a blocking construction makes
  // classic redundancies. Use the textbook redundant circuit:
  // y = OR(x, NOT(x)) is constant 1 -> y s-a-1 is undetectable.
  Netlist nl("redundant");
  const SignalId x = nl.add_input("x");
  const SignalId nx = nl.add_gate(GateType::kNot, "nx", {x});
  const SignalId y = nl.add_gate(GateType::kOr, "y", {x, nx});
  nl.mark_output(y);
  nl.finalize();
  const sim::CompiledCircuit cc(nl);
  Podem podem(cc);
  EXPECT_EQ(podem.generate(Fault{y, -1, 1}).status, Podem::Status::kUntestable);
  EXPECT_EQ(podem.generate(Fault{y, -1, 0}).status, Podem::Status::kDetected);
}

TEST(Podem, DffDPinFaultIsExcitationOnly) {
  // D pin of a flip-flop is a PPO: the fault is detected by justifying the
  // opposite value on the D line.
  Netlist nl("dpin");
  const SignalId a = nl.add_input("a");
  const SignalId b = nl.add_input("b");
  const SignalId g = nl.add_gate(GateType::kAnd, "g", {a, b});
  const SignalId f = nl.add_dff("f");
  nl.connect(f, {g});
  nl.mark_output(nl.add_gate(GateType::kBuf, "o", {f}));
  nl.finalize();
  const sim::CompiledCircuit cc(nl);
  Podem podem(cc);
  const Podem::Result r0 = podem.generate(Fault{f, 0, 0});
  ASSERT_EQ(r0.status, Podem::Status::kDetected);
  // Excitation requires D = 1, i.e. a = b = 1.
  EXPECT_EQ(r0.pi[0], 1);
  EXPECT_EQ(r0.pi[1], 1);
  const Podem::Result r1 = podem.generate(Fault{f, 0, 1});
  ASSERT_EQ(r1.status, Podem::Status::kDetected);
}

TEST(Podem, QOutputFaultThroughLogic) {
  // Q feeding an XOR with a PI: always sensitized; PODEM must find a test
  // by loading the opposite state through the PPI.
  Netlist nl("qfault");
  const SignalId a = nl.add_input("a");
  const SignalId f = nl.add_dff("f");
  const SignalId g = nl.add_gate(GateType::kXor, "g", {a, f});
  nl.connect(f, {g});
  nl.mark_output(g);
  nl.finalize();
  const sim::CompiledCircuit cc(nl);
  Podem podem(cc);
  const Podem::Result r = podem.generate(Fault{f, -1, 1});
  ASSERT_EQ(r.status, Podem::Status::kDetected);
  EXPECT_EQ(r.ppi[0], 0);  // must load 0 to excite s-a-1
}

TEST(Podem, BacktrackLimitAborts) {
  // A 1-backtrack budget on a fault needing search must abort, not hang.
  const Netlist nl = gen::synthesize(rls::test::small_profile(5));
  const sim::CompiledCircuit cc(nl);
  Podem podem(cc, Podem::Options{0});
  int aborted = 0;
  for (const Fault& f : fault::collapsed_universe(nl)) {
    if (podem.generate(f).status == Podem::Status::kAborted) ++aborted;
  }
  // With zero backtracks allowed some faults abort — and none crash.
  EXPECT_GE(aborted, 0);
}

/// Indices of the faults that classify() hands to PODEM under default
/// DetectabilityOptions: not a DFF Q-output fault (scan-chain rule) and
/// not detected by the random PPSFP phase (same rounds, seed and order).
std::vector<std::size_t> podem_survivors(const sim::CompiledCircuit& cc,
                                         const std::vector<Fault>& faults) {
  const DetectabilityOptions opt;
  std::vector<std::uint8_t> settled(faults.size(), 0);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (faults[i].pin < 0 && cc.type(faults[i].gate) == GateType::kDff) {
      settled[i] = 1;
    }
  }
  fault::CombFaultSim fsim(cc);
  rls::rand::Rng rng(opt.seed);
  std::vector<Word> pi(cc.inputs().size()), ppi(cc.flip_flops().size());
  for (std::size_t round = 0; round < opt.random_rounds; ++round) {
    for (Word& w : pi) w = rng.next_u64();
    for (Word& w : ppi) w = rng.next_u64();
    fsim.set_patterns(pi, ppi);
    bool any_left = false;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (settled[i]) continue;
      if (fsim.detect_mask(faults[i]) != 0) {
        settled[i] = 1;
      } else {
        any_left = true;
      }
    }
    if (!any_left) break;
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!settled[i]) out.push_back(i);
  }
  return out;
}

/// FNV-1a over (fault index, status, backtracks, pi, ppi) of every PODEM
/// result on the circuit's random-phase survivors.
std::uint64_t podem_digest(const Netlist& nl) {
  const sim::CompiledCircuit cc(nl);
  const auto faults = fault::collapsed_universe(nl);
  Podem podem(cc);
  std::uint64_t h = store::kFnvBasis;
  for (const std::size_t i : podem_survivors(cc, faults)) {
    const Podem::Result r = podem.generate(faults[i]);
    const std::uint64_t index = i;
    const auto status = static_cast<std::uint8_t>(r.status);
    const auto backtracks = static_cast<std::uint64_t>(r.backtracks);
    h = store::fnv1a64(&index, sizeof index, h);
    h = store::fnv1a64(&status, sizeof status, h);
    h = store::fnv1a64(&backtracks, sizeof backtracks, h);
    h = store::fnv1a64(r.pi.data(), r.pi.size(), h);
    h = store::fnv1a64(r.ppi.data(), r.ppi.size(), h);
  }
  return h;
}

// Pins every PODEM decision on the registry: any change to the search
// (objective order, backtrace, pruning, implication) moves a digest.
// s35932/s35932s are left out to keep the suite fast.
TEST(PodemGolden, RegistryResultsArePinned) {
  const std::map<std::string, std::uint64_t> golden = {
    {"s27", 0xCBF29CE484222325ull},
    {"s208", 0xD2B9EDF03098DCDEull},
    {"s298", 0x68BE76D448707C1Bull},
    {"s344", 0xB348600BD14B31C3ull},
    {"s382", 0xA26249F1E3CC6761ull},
    {"s400", 0xED2C8C1661F41789ull},
    {"s420", 0xB290306AE7298827ull},
    {"s420t", 0x7F5B37D819FB0660ull},
    {"s510", 0xD6C95F124595FDB9ull},
    {"s641", 0x9C4DAE618906EEE0ull},
    {"s820", 0xE121CC545C18B9DEull},
    {"s953", 0x3631A511FC17545Full},
    {"s1196", 0xB17F0DD2A9C5F75Cull},
    {"s1423", 0xBC00E7CB7F02F952ull},
    {"s5378", 0x3F4F2C32CCF88499ull},
    {"b01", 0xA4D9EDB644DF638Dull},
    {"b02", 0x1DFFE232A2B7EBA2ull},
    {"b03", 0x2591541A517E5399ull},
    {"b04", 0x0D23D5D682F5F025ull},
    {"b06", 0x95685DDBA7A6A46Cull},
    {"b09", 0x0751D35E0C96D324ull},
    {"b10", 0xFA8DE40B43452FF2ull},
    {"b11", 0x2ED92ECF2D92408Dull},
  };
  for (const std::string& name : gen::known_circuits()) {
    if (name == "s35932" || name == "s35932s") continue;
    const std::uint64_t got = podem_digest(gen::make_circuit(name));
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016" PRIX64 "ull", got);
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "no golden digest for " << name
                                << "; got {\"" << name << "\", " << hex
                                << "},";
    EXPECT_EQ(it->second, got) << name << ": got " << hex;
  }
}

// The classifier's PODEM counters tie out with the per-fault results.
TEST(PodemGolden, ReportBacktracksSumResultBacktracks) {
  for (const char* name : {"s298", "s953", "s1423"}) {
    const Netlist nl = gen::make_circuit(name);
    const sim::CompiledCircuit cc(nl);
    const auto faults = fault::collapsed_universe(nl);
    const DetectabilityReport rep = classify(cc, faults);
    Podem podem(cc);
    std::uint64_t backtracks = 0, decisions = 0, implications = 0;
    const auto survivors = podem_survivors(cc, faults);
    for (const std::size_t i : survivors) {
      const Podem::Result r = podem.generate(faults[i]);
      backtracks += static_cast<std::uint64_t>(r.backtracks);
      decisions += r.decisions;
      implications += r.implications;
    }
    EXPECT_EQ(survivors.size(), rep.detected_by_atpg + rep.num_untestable +
                                    rep.num_aborted)
        << name;
    EXPECT_EQ(rep.podem_backtracks, backtracks) << name;
    EXPECT_EQ(rep.podem_decisions, decisions) << name;
    EXPECT_EQ(rep.podem_implications, implications) << name;
    EXPECT_GE(rep.podem_decisions, rep.podem_backtracks) << name;
  }
}

}  // namespace
}  // namespace rls::atpg
