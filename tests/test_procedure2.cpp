// Procedure 2 tests: fault-coverage improvement, bookkeeping invariants,
// termination behavior.
#include <gtest/gtest.h>

#include "core/procedure2.hpp"
#include "core/ts0.hpp"
#include "fault/collapse.hpp"
#include "gen/registry.hpp"
#include "scan/cost.hpp"

namespace rls::core {
namespace {

struct P2Fixture {
  netlist::Netlist nl;
  std::unique_ptr<sim::CompiledCircuit> cc;
  scan::TestSet ts0;
  fault::FaultList fl;
};

P2Fixture make_setup(const char* name, std::size_t la, std::size_t lb,
                 std::size_t n) {
  P2Fixture s{gen::make_circuit(name), nullptr, {}, {}};
  s.cc = std::make_unique<sim::CompiledCircuit>(s.nl);
  Ts0Config cfg;
  cfg.l_a = la;
  cfg.l_b = lb;
  cfg.n = n;
  s.ts0 = make_ts0(s.nl, cfg);
  s.fl = fault::FaultList(fault::collapsed_universe(s.nl));
  return s;
}

TEST(Procedure2, S27ReachesCompleteCoverage) {
  P2Fixture s = make_setup("s27", 8, 16, 16);
  Procedure2Options opt;
  const Procedure2Result res = run_procedure2(*s.cc, s.ts0, s.fl, opt);
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(s.fl.all_detected());
  EXPECT_EQ(res.total_detected, s.fl.size());
  EXPECT_EQ(res.ncyc0,
            scan::n_cyc0(s.nl.num_state_vars(), 8, 16, 16));
}

TEST(Procedure2, DetectionBookkeepingIsConsistent) {
  P2Fixture s = make_setup("s208", 8, 16, 32);
  Procedure2Options opt;
  opt.max_iterations = 8;
  const Procedure2Result res = run_procedure2(*s.cc, s.ts0, s.fl, opt);
  std::size_t sum = res.ts0_detected;
  for (const AppliedSet& a : res.applied) {
    EXPECT_GT(a.detected, 0u);  // only improving pairs are kept
    EXPECT_GE(a.d1, 1u);
    EXPECT_LE(a.d1, 10u);
    EXPECT_GE(a.iteration, 1u);
    sum += a.detected;
  }
  EXPECT_EQ(sum, res.total_detected);
  EXPECT_EQ(res.total_detected, s.fl.num_detected());
}

TEST(Procedure2, TotalCyclesIncludesEveryAppliedSet) {
  P2Fixture s = make_setup("s208", 8, 16, 32);
  Procedure2Options opt;
  opt.max_iterations = 6;
  const Procedure2Result res = run_procedure2(*s.cc, s.ts0, s.fl, opt);
  std::uint64_t total = res.ncyc0;
  for (const AppliedSet& a : res.applied) {
    EXPECT_GE(a.cycles, res.ncyc0);  // every TS(I,D1) re-applies TS_0
    total += a.cycles;
  }
  EXPECT_EQ(res.total_cycles(), total);
}

TEST(Procedure2, LimitedScanImprovesOverTs0) {
  // The headline claim: on a random-resistant circuit, TS_0 alone leaves
  // faults undetected and limited scan detects more.
  P2Fixture s = make_setup("s208", 8, 16, 64);
  Procedure2Options opt;
  opt.max_iterations = 12;
  const Procedure2Result res = run_procedure2(*s.cc, s.ts0, s.fl, opt);
  EXPECT_LT(res.ts0_detected, s.fl.size());  // TS_0 incomplete
  EXPECT_GT(res.total_detected, res.ts0_detected);  // limited scan helps
  EXPECT_FALSE(res.applied.empty());
}

TEST(Procedure2, AverageLimitedScanUnitsInUnitInterval) {
  P2Fixture s = make_setup("s208", 8, 16, 32);
  Procedure2Options opt;
  opt.max_iterations = 6;
  const Procedure2Result res = run_procedure2(*s.cc, s.ts0, s.fl, opt);
  if (!res.applied.empty()) {
    const double ls = res.average_limited_scan_units();
    EXPECT_GT(ls, 0.0);
    EXPECT_LE(ls, 1.0);
  }
}

TEST(Procedure2, StopsAfterNSameFc) {
  // With an empty-but-impossible target (fault list containing an
  // undetectable fault), the procedure must terminate via N_SAME_FC.
  netlist::Netlist nl("red");
  const auto x = nl.add_input("x");
  const auto nx = nl.add_gate(netlist::GateType::kNot, "nx", {x});
  const auto y = nl.add_gate(netlist::GateType::kOr, "y", {x, nx});
  nl.mark_output(y);
  nl.finalize();
  const sim::CompiledCircuit cc(nl);
  Ts0Config cfg;
  cfg.n = 4;
  const scan::TestSet ts0 = make_ts0(nl, cfg);
  fault::FaultList fl(std::vector<fault::Fault>{{y, -1, 1}});
  Procedure2Options opt;
  opt.n_same_fc = 2;
  const Procedure2Result res = run_procedure2(cc, ts0, fl, opt);
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.total_detected, 0u);
  EXPECT_TRUE(res.applied.empty());
}

TEST(Procedure2, D1OrderIsRespected) {
  P2Fixture s = make_setup("s208", 8, 16, 32);
  Procedure2Options opt;
  opt.d1_order = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  opt.max_iterations = 4;
  const Procedure2Result res = run_procedure2(*s.cc, s.ts0, s.fl, opt);
  // Within each iteration, applied d1 values must be non-increasing.
  for (std::size_t k = 1; k < res.applied.size(); ++k) {
    if (res.applied[k].iteration == res.applied[k - 1].iteration) {
      EXPECT_LE(res.applied[k].d1, res.applied[k - 1].d1);
    } else {
      EXPECT_GT(res.applied[k].iteration, res.applied[k - 1].iteration);
    }
  }
}

TEST(Procedure2, DecreasingD1OrderLowersAverageLs) {
  // Table 7's observation: sweeping D1 = 10..1 yields a lower average
  // number of limited-scan units than 1..10.
  P2Fixture inc = make_setup("s208", 8, 16, 64);
  P2Fixture dec = make_setup("s208", 8, 16, 64);
  Procedure2Options oi, od;
  oi.max_iterations = od.max_iterations = 10;
  od.d1_order = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  const Procedure2Result ri = run_procedure2(*inc.cc, inc.ts0, inc.fl, oi);
  const Procedure2Result rd = run_procedure2(*dec.cc, dec.ts0, dec.fl, od);
  if (!ri.applied.empty() && !rd.applied.empty()) {
    EXPECT_LT(rd.average_limited_scan_units(),
              ri.average_limited_scan_units());
  }
}

class P2EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<const char*, unsigned>> {};

TEST_P(P2EngineEquivalence, EnginesSelectIdenticalId1Pairs) {
  const auto [name, threads] = GetParam();
  P2Fixture sweep = make_setup(name, 8, 16, 8);
  P2Fixture packed = make_setup(name, 8, 16, 8);
  Procedure2Options os, op;
  os.max_iterations = op.max_iterations = 3;
  os.engine = fault::Engine::kFullSweep;
  op.engine = fault::Engine::kPacked;
  os.sim_threads = op.sim_threads = threads;
  const Procedure2Result rs = run_procedure2(*sweep.cc, sweep.ts0, sweep.fl, os);
  const Procedure2Result rp =
      run_procedure2(*packed.cc, packed.ts0, packed.fl, op);
  EXPECT_EQ(rp.ts0_detected, rs.ts0_detected);
  EXPECT_EQ(rp.total_detected, rs.total_detected);
  ASSERT_EQ(rp.applied.size(), rs.applied.size());
  for (std::size_t k = 0; k < rp.applied.size(); ++k) {
    EXPECT_EQ(rp.applied[k].iteration, rs.applied[k].iteration);
    EXPECT_EQ(rp.applied[k].d1, rs.applied[k].d1);
    EXPECT_EQ(rp.applied[k].detected, rs.applied[k].detected);
  }
  for (std::size_t i = 0; i < sweep.fl.size(); ++i) {
    ASSERT_EQ(packed.fl.detected(i), sweep.fl.detected(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    CircuitsAndThreads, P2EngineEquivalence,
    ::testing::Combine(::testing::Values("s298", "s953", "s5378"),
                       ::testing::Values(1u, 4u)));

TEST(Procedure2, Deterministic) {
  P2Fixture a = make_setup("s27", 8, 16, 16);
  P2Fixture b = make_setup("s27", 8, 16, 16);
  Procedure2Options opt;
  const Procedure2Result ra = run_procedure2(*a.cc, a.ts0, a.fl, opt);
  const Procedure2Result rb = run_procedure2(*b.cc, b.ts0, b.fl, opt);
  EXPECT_EQ(ra.total_detected, rb.total_detected);
  EXPECT_EQ(ra.total_cycles(), rb.total_cycles());
  ASSERT_EQ(ra.applied.size(), rb.applied.size());
  for (std::size_t k = 0; k < ra.applied.size(); ++k) {
    EXPECT_EQ(ra.applied[k].iteration, rb.applied[k].iteration);
    EXPECT_EQ(ra.applied[k].d1, rb.applied[k].d1);
    EXPECT_EQ(ra.applied[k].detected, rb.applied[k].detected);
  }
}

}  // namespace
}  // namespace rls::core
