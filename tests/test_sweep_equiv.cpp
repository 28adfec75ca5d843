// Speculative sweep equivalence: first_complete_combo with combo_jobs W
// must be observationally identical to the serial sweep — same winner,
// same committed ComboRun list, byte-identical JSONL trace (timing
// pinned) and identical deterministic "fsim.*" counter totals — at any W.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/param_select.hpp"
#include "core/run_context.hpp"
#include "core/ts0.hpp"
#include "obs/trace.hpp"

namespace rls::core {
namespace {

struct SweepOutput {
  std::optional<ComboRun> winner;
  std::vector<ComboRun> runs;
  std::string trace;  ///< JSONL serialization, wall_ms pinned to 0
  std::vector<std::pair<std::string, std::uint64_t>> fsim_counters;
  std::uint64_t sweep_attempts = 0;
};

SweepOutput run_sweep(const Workbench& wb, const Procedure2Options& p2,
                      std::size_t max_attempts, unsigned jobs) {
  SweepOutput out;
  obs::VectorSink sink;
  RunContext ctx;
  ctx.set_sink(&sink);
  ctx.set_timing(false);
  out.winner =
      first_complete_combo(wb.cc(), wb.target_faults(), p2, wb.ts0_seed(),
                           &out.runs, max_attempts, &ctx, jobs);
  for (const obs::TraceEvent& ev : sink.events()) {
    out.trace += obs::to_jsonl(ev);
    out.trace += '\n';
  }
  for (const auto& [name, total] : ctx.counters().snapshot()) {
    if (name.rfind("fsim.", 0) == 0) {
      out.fsim_counters.emplace_back(name, total);
    }
  }
  out.sweep_attempts = ctx.counters().value("sweep.attempts");
  return out;
}

void expect_equivalent(const SweepOutput& serial, const SweepOutput& spec) {
  ASSERT_EQ(serial.winner.has_value(), spec.winner.has_value());
  if (serial.winner) {
    EXPECT_EQ(serial.winner->combo.l_a, spec.winner->combo.l_a);
    EXPECT_EQ(serial.winner->combo.l_b, spec.winner->combo.l_b);
    EXPECT_EQ(serial.winner->combo.n, spec.winner->combo.n);
    EXPECT_EQ(serial.winner->combo.ncyc0, spec.winner->combo.ncyc0);
    EXPECT_EQ(serial.winner->result.total_detected,
              spec.winner->result.total_detected);
    EXPECT_EQ(serial.winner->result.total_cycles(),
              spec.winner->result.total_cycles());
  }
  ASSERT_EQ(serial.runs.size(), spec.runs.size());
  for (std::size_t k = 0; k < serial.runs.size(); ++k) {
    EXPECT_EQ(serial.runs[k].combo.ncyc0, spec.runs[k].combo.ncyc0) << k;
    EXPECT_EQ(serial.runs[k].result.total_detected,
              spec.runs[k].result.total_detected)
        << k;
    EXPECT_EQ(serial.runs[k].result.total_cycles(),
              spec.runs[k].result.total_cycles())
        << k;
    EXPECT_EQ(serial.runs[k].result.complete, spec.runs[k].result.complete)
        << k;
    EXPECT_FALSE(spec.runs[k].result.aborted) << k;
  }
  EXPECT_EQ(serial.trace, spec.trace);  // byte-identical JSONL
  EXPECT_EQ(serial.fsim_counters, spec.fsim_counters);
  EXPECT_EQ(serial.sweep_attempts, spec.sweep_attempts);
}

TEST(SweepEquiv, ImmediateWinnerDiscardsSpeculation) {
  // s27 completes on the very first combination, so W = 8 dispatches up
  // to 7 doomed speculative attempts that must all be discarded.
  const Workbench wb("s27");
  Procedure2Options p2;
  p2.sim_threads = 1;
  const SweepOutput serial = run_sweep(wb, p2, 0, 1);
  ASSERT_TRUE(serial.winner.has_value());
  ASSERT_EQ(serial.runs.size(), 1u);
  expect_equivalent(serial, run_sweep(wb, p2, 0, 2));
  expect_equivalent(serial, run_sweep(wb, p2, 0, 8));
}

TEST(SweepEquiv, S298MatchesSerialAtAnyWidth) {
  const Workbench wb("s298");
  Procedure2Options p2;
  p2.sim_threads = 1;
  p2.max_iterations = 4;
  p2.n_same_fc = 2;
  const SweepOutput serial = run_sweep(wb, p2, 3, 1);
  expect_equivalent(serial, run_sweep(wb, p2, 3, 2));
  expect_equivalent(serial, run_sweep(wb, p2, 3, 8));
}

TEST(SweepEquiv, S5378MatchesSerialAtAnyWidth) {
  // Tightly bounded Procedure 2 keeps the three sweeps affordable while
  // still exercising full TS_0 simulation plus one (I, D_1) sweep per
  // attempt on a real-sized circuit.
  const Workbench wb("s5378");
  Procedure2Options p2;
  p2.sim_threads = 1;
  p2.max_iterations = 1;
  p2.n_same_fc = 1;
  p2.d1_order = {1};
  const SweepOutput serial = run_sweep(wb, p2, 2, 1);
  EXPECT_EQ(serial.runs.size(), 2u);  // bounded search cannot complete
  expect_equivalent(serial, run_sweep(wb, p2, 2, 2));
  expect_equivalent(serial, run_sweep(wb, p2, 2, 8));
}

/// Strips the engine-dependent "gate_evals" field from "sweep" events so
/// traces from different engines can be compared byte for byte.
std::string strip_gate_evals(const std::string& trace) {
  std::string out;
  std::size_t pos = 0;
  while (pos < trace.size()) {
    const std::size_t hit = trace.find("\"gate_evals\":", pos);
    if (hit == std::string::npos) {
      out.append(trace, pos, std::string::npos);
      break;
    }
    out.append(trace, pos, hit - pos);
    std::size_t end = hit + 13;  // skip the key
    while (end < trace.size() && trace[end] != ',' && trace[end] != '}') ++end;
    if (end < trace.size() && trace[end] == ',') ++end;
    pos = end;
  }
  return out;
}

TEST(SweepEquiv, PackedEngineMatchesFullSweepOracle) {
  // Cross-engine equivalence: a serial kFullSweep (reference) sweep vs a
  // W = 8 speculative sweep running the packed (PPSFP) engine. Detection
  // is bit-identical, so the winner, committed runs, and trace agree byte
  // for byte — except the engine-dependent gate_evals field in "sweep"
  // events, and the fsim.* work counters, which measure different work.
  const Workbench wb("s298");
  Procedure2Options p2;
  p2.engine = fault::Engine::kFullSweep;
  p2.sim_threads = 1;
  p2.max_iterations = 4;
  p2.n_same_fc = 2;
  const SweepOutput serial = run_sweep(wb, p2, 3, 1);

  Procedure2Options packed = p2;
  packed.engine = fault::Engine::kPacked;
  const SweepOutput spec = run_sweep(wb, packed, 3, 8);

  ASSERT_EQ(serial.winner.has_value(), spec.winner.has_value());
  if (serial.winner) {
    EXPECT_EQ(serial.winner->combo.l_a, spec.winner->combo.l_a);
    EXPECT_EQ(serial.winner->combo.l_b, spec.winner->combo.l_b);
    EXPECT_EQ(serial.winner->combo.n, spec.winner->combo.n);
    EXPECT_EQ(serial.winner->combo.ncyc0, spec.winner->combo.ncyc0);
    EXPECT_EQ(serial.winner->result.total_detected,
              spec.winner->result.total_detected);
    EXPECT_EQ(serial.winner->result.total_cycles(),
              spec.winner->result.total_cycles());
  }
  ASSERT_EQ(serial.runs.size(), spec.runs.size());
  for (std::size_t k = 0; k < serial.runs.size(); ++k) {
    EXPECT_EQ(serial.runs[k].combo.ncyc0, spec.runs[k].combo.ncyc0) << k;
    EXPECT_EQ(serial.runs[k].result.total_detected,
              spec.runs[k].result.total_detected)
        << k;
    EXPECT_EQ(serial.runs[k].result.total_cycles(),
              spec.runs[k].result.total_cycles())
        << k;
    EXPECT_EQ(serial.runs[k].result.complete, spec.runs[k].result.complete)
        << k;
  }
  EXPECT_EQ(strip_gate_evals(serial.trace), strip_gate_evals(spec.trace));
  EXPECT_EQ(serial.sweep_attempts, spec.sweep_attempts);
}

TEST(SweepEquiv, RowLevelResultsMatchAcrossJobs) {
  CampaignOptions opts;
  opts.p2.sim_threads = 1;
  opts.p2.max_iterations = 4;
  opts.p2.n_same_fc = 2;
  opts.max_attempts = 3;
  const Workbench wb("s298", opts);

  RunContext serial_ctx(opts);
  serial_ctx.set_timing(false);
  const ExperimentRow serial = run_first_complete(wb, serial_ctx);

  opts.combo_jobs = 4;
  RunContext spec_ctx(opts);
  spec_ctx.set_timing(false);
  const ExperimentRow spec = run_first_complete(wb, spec_ctx);

  EXPECT_EQ(serial.found_complete, spec.found_complete);
  EXPECT_EQ(serial.attempts, spec.attempts);
  EXPECT_EQ(serial.combo.ncyc0, spec.combo.ncyc0);
  EXPECT_EQ(serial.result.total_detected, spec.result.total_detected);
  EXPECT_EQ(serial.result.total_cycles(), spec.result.total_cycles());
}

TEST(SweepAbort, PreSetAbortFlagStopsAfterTs0AndEmitsNoSummary) {
  // s420's TS_0 never reaches complete coverage, so an already-raised
  // abort flag must stop Procedure 2 at the first outer iteration with a
  // partial, uncommittable result.
  const Workbench wb("s420");
  Ts0Config cfg;
  cfg.l_a = 8;
  cfg.l_b = 16;
  cfg.n = 16;
  cfg.seed = wb.ts0_seed();
  const scan::TestSet ts0 = make_ts0(wb.nl(), cfg);
  fault::FaultList fl(wb.target_faults());
  Procedure2Options opt;
  opt.sim_threads = 1;
  std::atomic<bool> abort{true};
  obs::VectorSink sink;
  RunContext ctx;
  ctx.set_sink(&sink);
  ctx.set_timing(false);
  const Procedure2Result res =
      run_procedure2(wb.cc(), ts0, fl, opt, &ctx, &abort);
  EXPECT_TRUE(res.aborted);
  EXPECT_FALSE(res.complete);
  EXPECT_TRUE(res.applied.empty());
  for (const obs::TraceEvent& ev : sink.events()) {
    EXPECT_NE(ev.type, "summary");  // aborted runs leave no summary
  }
}

}  // namespace
}  // namespace rls::core
