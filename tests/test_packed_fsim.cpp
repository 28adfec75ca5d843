// Engine::kPacked (bit-parallel PPSFP: 64 patterns per word, one fault
// per run; the production default) must be bit-identical to the
// kFullSweep parallel-fault reference at any thread count: same detection
// sets, same fault-coverage counts, same MISR-signature detections —
// including the tail-lane mask edge cases where the pattern count is not
// divisible by 64.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bist/misr.hpp"
#include "core/campaign.hpp"
#include "core/procedure2.hpp"
#include "core/run_context.hpp"
#include "core/ts0.hpp"
#include "fault/collapse.hpp"
#include "fault/seq_fsim.hpp"
#include "gen/registry.hpp"
#include "gen/synth.hpp"
#include "helpers.hpp"
#include "obs/trace.hpp"
#include "sim/packed_logic.hpp"
#include "store/serde.hpp"

namespace rls::fault {
namespace {

/// Uniform-length random test set; limited scan on even tests with shift
/// counts capped at 8 so big-registry chains stay affordable.
scan::TestSet make_set(const netlist::Netlist& nl, std::uint64_t seed,
                       int tests, std::size_t length = 6) {
  rls::rand::Rng rng(seed);
  const std::size_t n_sv = nl.num_state_vars();
  const std::uint32_t max_shift =
      static_cast<std::uint32_t>(std::min<std::size_t>(n_sv, 8));
  scan::TestSet ts;
  for (int i = 0; i < tests; ++i) {
    scan::ScanTest t = rls::test::random_test(rng, n_sv, nl.num_inputs(),
                                              length, /*with_limited_scan=*/
                                              i % 2 == 0);
    for (std::size_t u = 0; u < t.shift.size(); ++u) {
      if (t.shift[u] > max_shift) {
        t.shift[u] = max_shift;
        t.scan_bits[u].resize(max_shift);
      }
    }
    ts.tests.push_back(std::move(t));
  }
  return ts;
}

std::vector<bool> run_engine(const sim::CompiledCircuit& cc,
                             const std::vector<Fault>& universe,
                             const scan::TestSet& ts, Engine engine,
                             unsigned threads,
                             ObservationMode mode = ObservationMode::kPerCycle,
                             SeqFaultSim* out_sim = nullptr,
                             int misr_degree = 24) {
  FaultList fl(universe);
  SeqFaultSim local(cc);
  SeqFaultSim& sim = out_sim != nullptr ? *out_sim : local;
  sim.set_engine(engine);
  sim.set_threads(threads);
  if (mode == ObservationMode::kSignature) {
    sim.set_observation_mode(mode, misr_degree);
  }
  sim.run_test_set(ts, fl);
  std::vector<bool> detected(universe.size());
  for (std::size_t i = 0; i < universe.size(); ++i) {
    detected[i] = fl.detected(i);
  }
  return detected;
}

void expect_same_detections(const netlist::Netlist& nl,
                            const std::vector<Fault>& universe,
                            const std::vector<bool>& a,
                            const std::vector<bool>& b,
                            const std::string& what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < universe.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << ": " << fault_name(nl, universe[i]);
  }
}

// ---- batching / tail-mask mechanics -----------------------------------

TEST(PackedFsimBatches, TailMaskCoversPartialBatches) {
  EXPECT_EQ(sim::tail_mask(0), 0u);
  EXPECT_EQ(sim::tail_mask(1), 1u);
  EXPECT_EQ(sim::tail_mask(63), ~std::uint64_t{0} >> 1);
  EXPECT_EQ(sim::tail_mask(64), ~std::uint64_t{0});

  const netlist::Netlist nl = gen::make_circuit("s27");
  for (const std::size_t count : {1u, 63u, 64u, 65u, 257u}) {
    const scan::TestSet ts =
        make_set(nl, 11, static_cast<int>(count), /*length=*/4);
    const auto batches = sim::PackedBatch::make_batches(ts);
    std::size_t total = 0;
    for (const auto& b : batches) {
      EXPECT_EQ(b.first(), total);
      EXPECT_EQ(b.live(), sim::tail_mask(b.count()));
      EXPECT_EQ(b.length(), 4u);
      total += b.count();
    }
    EXPECT_EQ(total, count);
    EXPECT_EQ(batches.size(), (count + 63) / 64);
  }
}

TEST(PackedFsimBatches, LengthChangeStartsNewBatch) {
  const netlist::Netlist nl = gen::make_circuit("s27");
  rls::rand::Rng rng(3);
  scan::TestSet ts;
  for (int i = 0; i < 10; ++i) {
    ts.tests.push_back(rls::test::random_test(rng, nl.num_state_vars(),
                                              nl.num_inputs(),
                                              i < 4 ? 3 : 5, i % 2 == 0));
  }
  const auto batches = sim::PackedBatch::make_batches(ts);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].count(), 4u);
  EXPECT_EQ(batches[0].length(), 3u);
  EXPECT_EQ(batches[1].first(), 4u);
  EXPECT_EQ(batches[1].count(), 6u);
  EXPECT_EQ(batches[1].length(), 5u);
}

// ---- masked LaneMisr == per-lane scalar Misr ---------------------------

TEST(PackedFsimMisr, MaskedAbsorbMatchesScalarPerLaneSchedules) {
  // Each lane follows its own clocking schedule (as packed tests do when
  // their shift counts differ); a lane's signature must equal a scalar
  // MISR clocked on exactly that lane's stream.
  constexpr int kDegree = 16;
  constexpr int kCycles = 200;
  rls::rand::Rng rng(77);
  bist::LaneMisr lanes(kDegree);
  std::vector<bist::Misr> scalars(64, bist::Misr(kDegree));
  scan::BitVector one(1);
  for (int c = 0; c < kCycles; ++c) {
    const sim::Word mask = rng.next_u64();
    const sim::Word word = rng.next_u64();
    lanes.absorb_one_masked(word, mask);
    for (int lane = 0; lane < 64; ++lane) {
      if (!sim::lane_bit(mask, lane)) continue;
      one[0] = sim::lane_bit(word, lane) ? 1 : 0;
      scalars[lane].absorb(one);
    }
  }
  for (int lane = 0; lane < 64; ++lane) {
    ASSERT_EQ(lanes.signature(lane), scalars[lane].signature()) << lane;
  }
  // Stage-wise comparison against a reference LaneMisr detects exactly
  // the lanes whose signatures differ.
  bist::LaneMisr other(kDegree);
  other.absorb_one_masked(~sim::Word{0}, sim::tail_mask(5));
  const sim::Word diff = lanes.differs_from(other.stages());
  for (int lane = 0; lane < 64; ++lane) {
    EXPECT_EQ(sim::lane_bit(diff, lane),
              lanes.signature(lane) != other.signature(lane))
        << lane;
  }
}

// ---- packed vs the full-sweep reference --------------------------------

TEST(PackedFsim, IsTheDefaultEngine) {
  const netlist::Netlist nl = gen::make_circuit("s27");
  const sim::CompiledCircuit cc(nl);
  EXPECT_EQ(SeqFaultSim(cc).engine(), Engine::kPacked);
  EXPECT_EQ(core::Procedure2Options{}.engine, Engine::kPacked);
}

class PackedFsim
    : public ::testing::TestWithParam<std::tuple<const char*, unsigned>> {};

TEST_P(PackedFsim, PerCycleDetectionSetsMatchFullSweep) {
  const auto [name, threads] = GetParam();
  const netlist::Netlist nl = gen::make_circuit(name);
  const sim::CompiledCircuit cc(nl);
  const scan::TestSet ts = make_set(nl, 1234, 20);
  const auto universe = full_universe(nl);

  SeqFaultSim sweep_sim(cc);
  const std::vector<bool> sweep =
      run_engine(cc, universe, ts, Engine::kFullSweep, 1,
                 ObservationMode::kPerCycle, &sweep_sim);
  SeqFaultSim packed_sim(cc);
  const std::vector<bool> packed =
      run_engine(cc, universe, ts, Engine::kPacked, threads,
                 ObservationMode::kPerCycle, &packed_sim);
  expect_same_detections(nl, universe, sweep, packed, "per-cycle");

  // The packed frontier visits far fewer words than the full sweep, and
  // its bookkeeping is consistent: every packed gate visit is a frontier
  // visit.
  EXPECT_LT(packed_sim.gate_evals(), sweep_sim.gate_evals());
  EXPECT_EQ(packed_sim.packed_words(), packed_sim.frontier_evals());
  EXPECT_EQ(packed_sim.gate_evals(),
            packed_sim.frontier_evals() + packed_sim.sweep_evals());
  EXPECT_GT(packed_sim.packed_batches(), 0u);
  EXPECT_GT(packed_sim.lanes_active(), 0u);
}

TEST_P(PackedFsim, SignatureDetectionSetsMatchFullSweep) {
  const auto [name, threads] = GetParam();
  const netlist::Netlist nl = gen::make_circuit(name);
  const sim::CompiledCircuit cc(nl);
  const scan::TestSet ts = make_set(nl, 4321, 12);
  const auto universe = full_universe(nl);

  const std::vector<bool> sweep = run_engine(
      cc, universe, ts, Engine::kFullSweep, 1, ObservationMode::kSignature);
  const std::vector<bool> packed = run_engine(
      cc, universe, ts, Engine::kPacked, threads, ObservationMode::kSignature);
  expect_same_detections(nl, universe, sweep, packed, "signature");
}

INSTANTIATE_TEST_SUITE_P(
    CircuitsAndThreads, PackedFsim,
    ::testing::Combine(::testing::Values("s298", "s953"),
                       ::testing::Values(1u, 2u, 8u)));

TEST(PackedFsim, ExtraObservedMatchesFullSweep) {
  const netlist::Netlist nl = gen::make_circuit("s298");
  const sim::CompiledCircuit cc(nl);
  const scan::TestSet ts = make_set(nl, 5, 10);
  const auto universe = full_universe(nl);
  const std::vector<netlist::SignalId> extra{cc.flip_flops()[0],
                                             cc.flip_flops()[3]};
  for (const ObservationMode mode :
       {ObservationMode::kPerCycle, ObservationMode::kSignature}) {
    FaultList sweep_fl(universe);
    SeqFaultSim sweep(cc);
    sweep.set_engine(Engine::kFullSweep);
    sweep.set_threads(1);
    sweep.set_extra_observed(extra);
    sweep.set_observation_mode(mode, 24);
    sweep.run_test_set(ts, sweep_fl);

    FaultList packed_fl(universe);
    SeqFaultSim packed(cc);
    packed.set_engine(Engine::kPacked);
    packed.set_threads(2);
    packed.set_extra_observed(extra);
    packed.set_observation_mode(mode, 24);
    packed.run_test_set(ts, packed_fl);

    ASSERT_EQ(packed_fl.num_detected(), sweep_fl.num_detected());
    for (std::size_t i = 0; i < universe.size(); ++i) {
      ASSERT_EQ(packed_fl.detected(i), sweep_fl.detected(i))
          << fault_name(nl, universe[i]);
    }
  }
}

TEST(PackedFsim, SingleTestEntryPointFallsBackExactly) {
  // run_test's lanes are faults, so kPacked delegates to kFullSweep; the
  // masks must match an explicit kFullSweep simulator bit for bit.
  const netlist::Netlist nl = gen::make_circuit("s298");
  const sim::CompiledCircuit cc(nl);
  const scan::TestSet ts = make_set(nl, 77, 3);
  const auto universe = full_universe(nl);
  SeqFaultSim sweep(cc);
  sweep.set_engine(Engine::kFullSweep);
  SeqFaultSim packed(cc);
  packed.set_engine(Engine::kPacked);
  for (const scan::ScanTest& test : ts.tests) {
    for (std::size_t base = 0; base < universe.size(); base += sim::kLanes) {
      const std::size_t n =
          std::min<std::size_t>(sim::kLanes, universe.size() - base);
      const std::span<const Fault> group(universe.data() + base, n);
      ASSERT_EQ(packed.run_test(test, group), sweep.run_test(test, group));
    }
  }
}

// ---- randomized differential over generated circuits -------------------

class PackedFsimDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PackedFsimDifferential, EnginesAgreeAtEveryTailCount) {
  // Seeded synthetic circuits x pattern counts around the 64-lane
  // boundary: 1 (single live lane), 63/65 (partial tail), 64 (full), 257
  // (4 full batches + 1-lane tail).
  const netlist::Netlist nl =
      gen::synthesize(rls::test::small_profile(GetParam()));
  const sim::CompiledCircuit cc(nl);
  const auto universe = full_universe(nl);
  for (const int count : {1, 63, 64, 65, 257}) {
    const scan::TestSet ts =
        make_set(nl, 1000 + GetParam() * 31 + count, count, /*length=*/4);
    const std::vector<bool> sweep =
        run_engine(cc, universe, ts, Engine::kFullSweep, 1);
    const std::string what = "count=" + std::to_string(count);
    for (const unsigned threads : {1u, 2u}) {
      const std::vector<bool> packed =
          run_engine(cc, universe, ts, Engine::kPacked, threads);
      expect_same_detections(nl, universe, sweep, packed,
                             what + " packed@" + std::to_string(threads));
    }
  }
}

TEST_P(PackedFsimDifferential, SignaturesAgreeAcrossTailCounts) {
  const netlist::Netlist nl =
      gen::synthesize(rls::test::small_profile(GetParam(), 0.3));
  const sim::CompiledCircuit cc(nl);
  const auto universe = full_universe(nl);
  for (const int count : {1, 63, 65}) {
    const scan::TestSet ts =
        make_set(nl, 2000 + GetParam() * 17 + count, count, /*length=*/5);
    const std::vector<bool> sweep = run_engine(
        cc, universe, ts, Engine::kFullSweep, 1, ObservationMode::kSignature);
    const std::string what = "count=" + std::to_string(count);
    for (const unsigned threads : {1u, 2u}) {
      const std::vector<bool> packed = run_engine(
          cc, universe, ts, Engine::kPacked, threads,
          ObservationMode::kSignature);
      expect_same_detections(nl, universe, sweep, packed,
                             what + " packed@" + std::to_string(threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedFsimDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---- long limited scans and chain edges --------------------------------

/// Length-`length` test set whose limited scans reach the whole chain:
/// unit 1 shifts N_SV + 1 (the chain is flushed and one more bit enters),
/// unit 2 shifts N_SV, every later unit draws a count from [0, N_SV + 1].
/// `uniform` gives every test the same counts, so each step mask is the
/// batch's live mask (the reseed_per_test schedule of Procedure 1);
/// otherwise the counts are drawn per test and the masks mix lanes.
scan::TestSet make_long_shift_set(const netlist::Netlist& nl,
                                  std::uint64_t seed, int tests,
                                  std::size_t length, bool uniform) {
  rls::rand::Rng rng(seed);
  const std::size_t n_sv = nl.num_state_vars();
  const auto draw_counts = [&] {
    std::vector<std::uint32_t> shift(length, 0);
    for (std::size_t u = 1; u < length; ++u) {
      shift[u] = u == 1   ? static_cast<std::uint32_t>(n_sv + 1)
                 : u == 2 ? static_cast<std::uint32_t>(n_sv)
                          : rng.mod_draw(static_cast<std::uint32_t>(n_sv + 2));
    }
    return shift;
  };
  const std::vector<std::uint32_t> shared = draw_counts();
  scan::TestSet ts;
  for (int i = 0; i < tests; ++i) {
    scan::ScanTest t = rls::test::random_test(rng, n_sv, nl.num_inputs(),
                                              length,
                                              /*with_limited_scan=*/false);
    t.shift = uniform ? shared : draw_counts();
    t.scan_bits.assign(length, {});
    for (std::size_t u = 0; u < length; ++u) {
      t.scan_bits[u].resize(t.shift[u]);
      for (std::uint8_t& b : t.scan_bits[u]) b = rng.next_bit() ? 1 : 0;
    }
    ts.tests.push_back(std::move(t));
  }
  return ts;
}

/// Q (output) and D-pin faults, both polarities, of the flip-flops at
/// chain positions 0, N_SV / 2 and N_SV - 1.
std::vector<Fault> chain_edge_faults(const sim::CompiledCircuit& cc) {
  const auto ffs = cc.flip_flops();
  std::vector<Fault> out;
  for (const std::size_t pos : {std::size_t{0}, ffs.size() / 2,
                                ffs.size() - 1}) {
    for (const std::int16_t pin : {std::int16_t{-1}, std::int16_t{0}}) {
      for (const std::uint8_t stuck : {std::uint8_t{0}, std::uint8_t{1}}) {
        const Fault f{ffs[pos], pin, stuck};
        if (std::find(out.begin(), out.end(), f) == out.end()) {
          out.push_back(f);
        }
      }
    }
  }
  return out;
}

class PackedFsimChain : public ::testing::TestWithParam<const char*> {};

TEST_P(PackedFsimChain, LongShiftsMatchFullSweep) {
  // A full tail batch and a 5-lane one (live != ~0), uniform and mixed
  // step masks, both observation modes, 1 and 2 threads.
  const netlist::Netlist nl = gen::make_circuit(GetParam());
  const sim::CompiledCircuit cc(nl);
  const auto universe = full_universe(nl);
  for (const bool uniform : {true, false}) {
    for (const int count : {5, 70}) {
      const scan::TestSet ts = make_long_shift_set(
          nl, 0x5EED + static_cast<std::uint64_t>(count), count,
          /*length=*/5, uniform);
      for (const ObservationMode mode :
           {ObservationMode::kPerCycle, ObservationMode::kSignature}) {
        const std::vector<bool> sweep =
            run_engine(cc, universe, ts, Engine::kFullSweep, 1, mode);
        for (const unsigned threads : {1u, 2u}) {
          const std::string what =
              std::string(uniform ? "uniform" : "mixed") +
              " count=" + std::to_string(count) +
              (mode == ObservationMode::kSignature ? " signature"
                                                   : " per-cycle") +
              " packed@" + std::to_string(threads);
          const std::vector<bool> packed =
              run_engine(cc, universe, ts, Engine::kPacked, threads, mode);
          expect_same_detections(nl, universe, sweep, packed, what);
        }
      }
    }
  }
}

TEST_P(PackedFsimChain, EdgeFlipFlopFaultsMatchFullSweepPerTest) {
  // Without fault dropping across tests: each single-test set gives
  // every chain-edge fault a fresh verdict, so Q and D-pin faults at
  // positions 0, mid and N_SV - 1 are compared under every schedule.
  // A Q fault nearly always shows at scan-out, so per-cycle verdicts
  // barely depend on what happened mid-test; a 3-stage MISR aliases about
  // one faulty stream in eight, so there the verdict depends on the exact
  // response stream, shifted-out bits included.
  const netlist::Netlist nl = gen::make_circuit(GetParam());
  const sim::CompiledCircuit cc(nl);
  const std::vector<Fault> faults = chain_edge_faults(cc);
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (const bool uniform : {true, false}) {
    const scan::TestSet ts =
        make_long_shift_set(nl, uniform ? 91 : 92, 6, /*length=*/6, uniform);
    for (std::size_t t = 0; t < ts.tests.size(); ++t) {
      scan::TestSet one;
      one.tests.push_back(ts.tests[t]);
      for (const ObservationMode mode :
           {ObservationMode::kPerCycle, ObservationMode::kSignature}) {
        const std::vector<bool> sweep = run_engine(
            cc, faults, one, Engine::kFullSweep, 1, mode, nullptr, 3);
        for (const unsigned threads : {1u, 2u}) {
          const std::vector<bool> packed = run_engine(
              cc, faults, one, Engine::kPacked, threads, mode, nullptr, 3);
          expect_same_detections(nl, faults, sweep, packed,
                                 "test " + std::to_string(t));
        }
        for (const bool d : sweep) {
          if (d) {
            ++hits;
          } else {
            ++misses;
          }
        }
      }
    }
  }
  // Both verdicts occur, so the comparison is not vacuous.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Circuits, PackedFsimChain,
                         ::testing::Values("s27", "s298", "s420", "s1423"));

// ---- full registry cross-check -----------------------------------------

class PackedFsimRegistry : public ::testing::TestWithParam<unsigned> {};

TEST_P(PackedFsimRegistry, MatchesFullSweepOnEveryCircuit) {
  for (const std::string& name : gen::known_circuits()) {
    const netlist::Netlist nl = gen::make_circuit(name);
    const sim::CompiledCircuit cc(nl);
    const scan::TestSet ts = make_set(nl, 0xC0FFEE, 6, /*length=*/3);
    const auto universe = full_universe(nl);
    const std::vector<bool> sweep =
        run_engine(cc, universe, ts, Engine::kFullSweep, 1);
    const std::vector<bool> packed =
        run_engine(cc, universe, ts, Engine::kPacked, GetParam());
    expect_same_detections(nl, universe, sweep, packed, name);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PackedFsimRegistry,
                         ::testing::Values(1u, 2u, 8u));

// ---- pinned Procedure 2 streams ----------------------------------------

/// FNV-1a over every JSONL line of a run (timing pinned to 0) and, after
/// each sweep event, over the cumulative "fsim.*" counters — so any change
/// to a detection set or to the engine's work counts moves the digest.
class DigestSink final : public obs::TraceSink {
 public:
  explicit DigestSink(const obs::CounterRegistry& counters)
      : counters_(&counters) {}

  void write(const obs::TraceEvent& ev) override {
    const std::string line = obs::to_jsonl(ev);
    digest_ = store::fnv1a64(line.data(), line.size(), digest_);
    if (ev.type != "sweep") return;
    for (const auto& [name, total] : counters_->snapshot()) {
      if (name.rfind("fsim.", 0) != 0) continue;
      digest_ = store::fnv1a64(name.data(), name.size(), digest_);
      digest_ = store::fnv1a64(&total, sizeof total, digest_);
    }
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  const obs::CounterRegistry* counters_;
  std::uint64_t digest_ = store::kFnvBasis;
};

std::uint64_t procedure2_digest(const char* circuit, std::size_t n,
                                std::uint32_t max_iterations) {
  const core::Workbench wb(circuit);
  core::Ts0Config cfg;
  cfg.n = n;
  cfg.seed = wb.ts0_seed();
  const scan::TestSet ts0 = core::make_ts0(wb.nl(), cfg);
  core::Procedure2Options opt;
  opt.max_iterations = max_iterations;
  opt.sim_threads = 2;
  core::RunContext ctx;
  DigestSink sink(ctx.counters());
  ctx.set_sink(&sink);
  ctx.set_timing(false);
  FaultList fl(wb.target_faults());
  const core::Procedure2Result res =
      core::run_procedure2(wb.cc(), ts0, fl, opt, &ctx);
  EXPECT_FALSE(res.applied.empty()) << circuit;
  return sink.digest();
}

TEST(PackedGolden, Procedure2StreamsArePinned) {
  struct Case {
    const char* circuit;
    std::size_t n;
    std::uint32_t max_iterations;
    std::uint64_t golden;
  };
  const Case cases[] = {
      {"s1423", 64, 3, 0x6D323AFB846B042Dull},
      {"s5378", 16, 2, 0xDAD1B33D6965F04Eull},
  };
  for (const Case& c : cases) {
    const std::uint64_t got = procedure2_digest(c.circuit, c.n,
                                                c.max_iterations);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016" PRIX64 "ull", got);
    EXPECT_EQ(c.golden, got) << c.circuit << ": got " << hex;
  }
}

}  // namespace
}  // namespace rls::fault
