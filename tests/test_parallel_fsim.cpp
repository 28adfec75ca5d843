// The parallel path of SeqFaultSim must be bit-identical to the serial
// path at any thread count (forced here, independent of the host's core
// count), and the kPacked production engine must be bit-identical to the
// kFullSweep reference engine while doing strictly less work.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>
#include <tuple>

#include "fault/collapse.hpp"
#include "fault/seq_fsim.hpp"
#include "gen/registry.hpp"
#include "helpers.hpp"

namespace rls::fault {
namespace {

scan::TestSet make_set(const netlist::Netlist& nl, std::uint64_t seed,
                       int tests) {
  rls::rand::Rng rng(seed);
  scan::TestSet ts;
  for (int i = 0; i < tests; ++i) {
    ts.tests.push_back(rls::test::random_test(
        rng, nl.num_state_vars(), nl.num_inputs(), 6, i % 2 == 0));
  }
  return ts;
}

class ParallelFsim : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelFsim, MatchesSerialDetectionSet) {
  const netlist::Netlist nl = gen::make_circuit("s298");
  const sim::CompiledCircuit cc(nl);
  const scan::TestSet ts = make_set(nl, 99, 12);
  const auto universe = full_universe(nl);  // several 64-fault groups

  FaultList serial(universe);
  SeqFaultSim s_sim(cc);
  s_sim.set_threads(1);
  s_sim.run_test_set(ts, serial);

  FaultList parallel(universe);
  SeqFaultSim p_sim(cc);
  p_sim.set_threads(GetParam());
  p_sim.run_test_set(ts, parallel);

  ASSERT_EQ(parallel.num_detected(), serial.num_detected());
  for (std::size_t i = 0; i < universe.size(); ++i) {
    ASSERT_EQ(parallel.detected(i), serial.detected(i))
        << fault_name(nl, universe[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelFsim, ::testing::Values(2u, 4u, 8u));

TEST(ParallelFsim, SignatureModeAcrossThreads) {
  const netlist::Netlist nl = gen::make_circuit("s298");
  const sim::CompiledCircuit cc(nl);
  const scan::TestSet ts = make_set(nl, 7, 10);
  const auto universe = full_universe(nl);

  FaultList serial(universe);
  SeqFaultSim s_sim(cc);
  s_sim.set_threads(1);
  s_sim.set_observation_mode(ObservationMode::kSignature, 24);
  s_sim.run_test_set(ts, serial);

  FaultList parallel(universe);
  SeqFaultSim p_sim(cc);
  p_sim.set_threads(4);
  p_sim.set_observation_mode(ObservationMode::kSignature, 24);
  p_sim.run_test_set(ts, parallel);

  EXPECT_EQ(parallel.num_detected(), serial.num_detected());
}

TEST(ParallelFsim, ExtraObservedAcrossThreads) {
  const netlist::Netlist nl = gen::make_circuit("s298");
  const sim::CompiledCircuit cc(nl);
  const scan::TestSet ts = make_set(nl, 5, 8);
  const auto universe = full_universe(nl);
  const std::vector<netlist::SignalId> extra{cc.flip_flops()[0],
                                             cc.flip_flops()[3]};

  FaultList serial(universe);
  SeqFaultSim s_sim(cc);
  s_sim.set_threads(1);
  s_sim.set_extra_observed(extra);
  s_sim.run_test_set(ts, serial);

  FaultList parallel(universe);
  SeqFaultSim p_sim(cc);
  p_sim.set_threads(3);
  p_sim.set_extra_observed(extra);
  p_sim.run_test_set(ts, parallel);

  EXPECT_EQ(parallel.num_detected(), serial.num_detected());
}

// ---- engine cross-checks ----------------------------------------------

class EngineCrossCheck
    : public ::testing::TestWithParam<std::tuple<const char*, unsigned>> {};

TEST_P(EngineCrossCheck, PerCycleDetectionSetsMatch) {
  const auto [name, threads] = GetParam();
  const netlist::Netlist nl = gen::make_circuit(name);
  const sim::CompiledCircuit cc(nl);
  const scan::TestSet ts = make_set(nl, 1234, 10);
  const auto universe = full_universe(nl);

  FaultList sweep_fl(universe);
  SeqFaultSim sweep(cc);
  sweep.set_engine(Engine::kFullSweep);
  sweep.set_threads(threads);
  sweep.run_test_set(ts, sweep_fl);

  FaultList packed_fl(universe);
  SeqFaultSim packed(cc);
  packed.set_engine(Engine::kPacked);
  packed.set_threads(threads);
  packed.run_test_set(ts, packed_fl);

  ASSERT_EQ(packed_fl.num_detected(), sweep_fl.num_detected());
  for (std::size_t i = 0; i < universe.size(); ++i) {
    ASSERT_EQ(packed_fl.detected(i), sweep_fl.detected(i))
        << fault_name(nl, universe[i]);
  }
  // The production engine must do strictly less gate work.
  EXPECT_LT(packed.gate_evals(), sweep.gate_evals());
}

TEST_P(EngineCrossCheck, SignatureDetectionSetsMatch) {
  const auto [name, threads] = GetParam();
  const netlist::Netlist nl = gen::make_circuit(name);
  const sim::CompiledCircuit cc(nl);
  const scan::TestSet ts = make_set(nl, 4321, 8);
  const auto universe = full_universe(nl);

  FaultList sweep_fl(universe);
  SeqFaultSim sweep(cc);
  sweep.set_engine(Engine::kFullSweep);
  sweep.set_observation_mode(ObservationMode::kSignature, 24);
  sweep.set_threads(threads);
  sweep.run_test_set(ts, sweep_fl);

  FaultList packed_fl(universe);
  SeqFaultSim packed(cc);
  packed.set_engine(Engine::kPacked);
  packed.set_observation_mode(ObservationMode::kSignature, 24);
  packed.set_threads(threads);
  packed.run_test_set(ts, packed_fl);

  ASSERT_EQ(packed_fl.num_detected(), sweep_fl.num_detected());
  for (std::size_t i = 0; i < universe.size(); ++i) {
    ASSERT_EQ(packed_fl.detected(i), sweep_fl.detected(i))
        << fault_name(nl, universe[i]);
  }
  EXPECT_LT(packed.gate_evals(), sweep.gate_evals());
}

TEST(EngineCrossCheck, SingleTestMaskMatchesAcrossEngines) {
  // The fault-lane run_test entry point (a kFullSweep evaluation) must
  // agree with a kPacked run_test_set of the same single test over the
  // same fault group.
  const netlist::Netlist nl = gen::make_circuit("s298");
  const sim::CompiledCircuit cc(nl);
  const scan::TestSet ts = make_set(nl, 77, 3);
  const auto universe = full_universe(nl);

  SeqFaultSim lanes(cc);
  SeqFaultSim packed(cc);
  packed.set_engine(Engine::kPacked);
  packed.set_threads(1);
  for (const scan::ScanTest& test : ts.tests) {
    scan::TestSet one;
    one.tests.push_back(test);
    for (std::size_t base = 0; base < universe.size(); base += sim::kLanes) {
      const std::size_t n =
          std::min<std::size_t>(sim::kLanes, universe.size() - base);
      const std::span<const Fault> group(universe.data() + base, n);
      FaultList fl(std::vector<Fault>(group.begin(), group.end()));
      packed.run_test_set(one, fl);
      sim::Word want = 0;
      for (std::size_t lane = 0; lane < n; ++lane) {
        if (fl.detected(lane)) want |= sim::Word{1} << lane;
      }
      ASSERT_EQ(lanes.run_test(test, group), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CircuitsAndThreads, EngineCrossCheck,
    ::testing::Combine(::testing::Values("s298", "s953"),
                       ::testing::Values(1u, 2u, 8u)));

}  // namespace
}  // namespace rls::fault
