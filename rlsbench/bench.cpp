// rlsbench — runs one named workload against the rls libraries and prints
// its metrics (see rlsbench/README.md for why each workload exists
// and what each metric should move).
//
//   rlsbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--scratch DIR] [--source ID]
//
// --trace 0 measures the end-to-end metrics: campaign workloads through
// svc::CampaignService::run (the `rls run` front door), serve_mix through
// net::NetServer over loopback (the `rls serve --listen` front door).
// --trace 1 is the separate traced run: it repeats the untraced request
// once for reference, then issues the same request as the sequence of
// public layer calls CampaignService::execute makes, timing each call from
// outside, and prints the per-layer metrics.
//
// stdout: a host-facts JSON line, human summary lines starting with '#',
// and as the last line one JSON object {correct, attempted, failed,
// metrics}. Exit code 0 when every output check passed, 1 when one
// failed, 2 on a usage error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "atpg/detectability.hpp"
#include "core/campaign.hpp"
#include "core/param_select.hpp"
#include "core/procedure2.hpp"
#include "core/run_context.hpp"
#include "core/ts0.hpp"
#include "fault/collapse.hpp"
#include "gen/registry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "scan/cost.hpp"
#include "sim/compiled.hpp"
#include "stats.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"

namespace fs = std::filesystem;
using namespace rls;
using rlsbench::Row;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Peak resident set of this process image. VmHWM, not ru_maxrss: Linux
/// carries ru_maxrss across exec, so it would report the launching
/// Python's footprint when that is larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

/// Workload seed -> campaign seed offset. Seed 0 is the default seed: it
/// leaves the program's default base_seed/detect_seed untouched, which is
/// where the pinned result rows hold.
std::uint64_t seed_mix(std::uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ull;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  unsigned seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
  std::string source = "unknown";
};

/// Output checks. A failed check makes the run incorrect (exit 1).
class Checks {
 public:
  void expect(bool cond, const std::string& what) {
    if (cond) return;
    ok_ = false;
    std::fprintf(stderr, "rlsbench: check failed: %s\n", what.c_str());
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  bool ok_ = true;
};

/// Metrics in print order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + items_[i].name + "\": {\"value\": " +
             number(items_[i].value) + ", \"unit\": \"" + items_[i].unit +
             "\"}";
    }
    return out + "}";
  }
  /// Shortest round-trip rendering: every digit as measured.
  static std::string number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Collects a context's event stream in memory.
class StringSink final : public obs::TraceSink {
 public:
  void write(const obs::TraceEvent& ev) override {
    out_ += obs::to_jsonl(ev);
    out_.push_back('\n');
  }
  [[nodiscard]] const std::string& text() const noexcept { return out_; }

 private:
  std::string out_;
};

std::uint64_t counter(const std::vector<std::pair<std::string, std::uint64_t>>&
                          snapshot,
                      const std::string& name) {
  for (const auto& [key, value] : snapshot) {
    if (key == name) return value;
  }
  return 0;
}

/// Times `reps` set-ups into `times`. Every set-up but the last is torn
/// down again; the last one is handed back.
template <class T, class Make>
std::unique_ptr<T> timed_setups(int reps, const Make& make,
                                std::vector<double>& times) {
  std::unique_ptr<T> kept;
  for (int r = 0; r < reps; ++r) {
    kept.reset();
    const auto t0 = Clock::now();
    kept = make(r);
    times.push_back(ms_since(t0) / 1e3);
  }
  return kept;
}

/// setup_s is the median of kSetupReps set-ups: the first batch before the
/// timed loop (its last set-up serves the loop), the rest after it, so one
/// slow moment of the host does not decide the figure.
constexpr int kSetupReps = 51;
constexpr int kSetupRepsBefore = kSetupReps / 2 + 1;

// ---------------------------------------------------------------------------
// Traced layer calls shared by the campaign workloads and serve_mix.

/// Per-call times of the circuit preparation CampaignService::execute does
/// before any simulation (the Workbench constructor's calls).
struct PrepSpans {
  double make_circuit_ms = 0, compile_ms = 0, collapse_ms = 0, classify_ms = 0;
  std::size_t universe = 0;
  atpg::DetectabilityReport det;
  [[nodiscard]] double total_ms() const {
    return make_circuit_ms + compile_ms + collapse_ms + classify_ms;
  }
};

struct Prepared {
  std::unique_ptr<netlist::Netlist> nl;
  std::unique_ptr<sim::CompiledCircuit> cc;
  std::vector<fault::Fault> targets;
  PrepSpans spans;
};

Prepared prepare_traced(const std::string& circuit,
                        const atpg::DetectabilityOptions& detect) {
  Prepared p;
  auto t = Clock::now();
  p.nl = std::make_unique<netlist::Netlist>(gen::make_circuit(circuit));
  p.spans.make_circuit_ms = ms_since(t);
  t = Clock::now();
  p.cc = std::make_unique<sim::CompiledCircuit>(*p.nl);
  p.spans.compile_ms = ms_since(t);
  t = Clock::now();
  std::vector<fault::Fault> universe = fault::collapsed_universe(*p.nl);
  p.spans.collapse_ms = ms_since(t);
  p.spans.universe = universe.size();
  t = Clock::now();
  p.spans.det = atpg::classify(*p.cc, universe, detect);
  p.spans.classify_ms = ms_since(t);
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (p.spans.det.cls[i] == atpg::FaultClass::kDetectable) {
      p.targets.push_back(universe[i]);
    }
  }
  return p;
}

void set_atpg_metrics(Metrics& m, double classify_ms,
                      const std::vector<const atpg::DetectabilityReport*>& dets) {
  std::uint64_t random = 0, podem = 0, untestable = 0, aborted = 0;
  for (const atpg::DetectabilityReport* d : dets) {
    random += d->detected_by_random;
    podem += d->detected_by_atpg;
    untestable += d->num_untestable;
    aborted += d->num_aborted;
  }
  m.set("atpg.classify_ms", classify_ms, "ms");
  m.set("atpg.random_detected", static_cast<double>(random), "count");
  m.set("atpg.podem_detected", static_cast<double>(podem), "count");
  m.set("atpg.untestable", static_cast<double>(untestable), "count");
  m.set("atpg.aborted", static_cast<double>(aborted), "count");
  m.set("atpg.random_share",
        random + podem == 0
            ? 0.0
            : static_cast<double>(random) / static_cast<double>(random + podem),
        "ratio");
}

struct FaultStats {
  double ts0_ms = 0, sweep_ms = 0;
  std::uint64_t sweeps = 0, tests = 0, gate_evals = 0, id1_pairs = 0;
};

void set_fault_metrics(Metrics& m, const FaultStats& f) {
  m.set("fault.ts0_ms", f.ts0_ms, "ms");
  m.set("fault.sweep_ms", f.sweep_ms, "ms");
  m.set("fault.sweeps", static_cast<double>(f.sweeps), "count");
  m.set("fault.tests", static_cast<double>(f.tests), "count");
  m.set("fault.gate_evals", static_cast<double>(f.gate_evals), "count");
  m.set("fault.ns_per_gate_eval",
        f.gate_evals == 0 ? 0.0
                          : (f.ts0_ms + f.sweep_ms) * 1e6 /
                                static_cast<double>(f.gate_evals),
        "ns");
  m.set("fault.useful_sweep_ratio",
        f.sweeps == 0 ? 0.0
                      : static_cast<double>(f.id1_pairs) /
                            static_cast<double>(f.sweeps),
        "ratio");
}

struct LayerCounters {
  std::uint64_t cache_hits = 0, executions = 0, bytes_read = 0,
                bytes_written = 0, checkpoint_saves = 0, corrupt = 0,
                coalesced = 0, rejected = 0, net_bytes_in = 0,
                net_bytes_out = 0, net_disconnects = 0, net_frame_errors = 0;
  double exec_ms_p50 = 0, wait_ms_p50 = 0, wait_ms_p95 = 0;
};

void set_service_metrics(Metrics& m, const LayerCounters& c) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m.set("store.cache_hits", d(c.cache_hits), "count");
  m.set("store.hit_ratio",
        c.executions == 0 ? 0.0 : d(c.cache_hits) / d(c.executions), "ratio");
  m.set("store.bytes_read", d(c.bytes_read), "B");
  m.set("store.bytes_written", d(c.bytes_written), "B");
  m.set("store.checkpoint_saves", d(c.checkpoint_saves), "count");
  m.set("store.corrupt", d(c.corrupt), "count");
  m.set("svc.executions", d(c.executions), "count");
  m.set("svc.coalesced", d(c.coalesced), "count");
  m.set("svc.coalesce_ratio",
        c.executions + c.coalesced == 0
            ? 0.0
            : d(c.coalesced) / d(c.executions + c.coalesced),
        "ratio");
  m.set("svc.rejected", d(c.rejected), "count");
  m.set("svc.exec_ms_p50", c.exec_ms_p50, "ms");
  m.set("svc.wait_ms_p50", c.wait_ms_p50, "ms");
  m.set("svc.wait_ms_p95", c.wait_ms_p95, "ms");
  m.set("net.bytes_in", d(c.net_bytes_in), "B");
  m.set("net.bytes_out", d(c.net_bytes_out), "B");
  m.set("net.disconnects", d(c.net_disconnects), "count");
  m.set("net.frame_errors", d(c.net_frame_errors), "count");
}

void print_share(const char* layer, double ms, double base_ms) {
  std::printf("# layer %-22s %10.1f ms  %5.1f%%\n", layer, ms,
              base_ms > 0 ? 100.0 * ms / base_ms : 0.0);
}

// ---------------------------------------------------------------------------
// Campaign workloads: back-to-back solo campaigns, no store.

struct CampaignSpec {
  std::string circuit;
  std::uint64_t la = 0, lb = 0, n = 0;
  std::uint32_t max_iterations = 0;  ///< 0 = request default
  /// One campaign's wall time on the 4-CPU reference host. A run holds
  /// --seconds / nominal_s campaigns (at least one): a fixed count, so a
  /// slow host lengthens the run instead of changing its work.
  double nominal_s = 0;
  Row pinned;  ///< the row at the default seed (seed 0)
};

svc::CampaignRequest campaign_request(const CampaignSpec& spec,
                                      std::uint64_t seed) {
  svc::CampaignRequest req;
  req.circuit = spec.circuit;
  req.la = spec.la;
  req.lb = spec.lb;
  req.n = spec.n;
  if (spec.max_iterations > 0) {
    req.options.p2.max_iterations = spec.max_iterations;
  }
  req.options.p2.sim_threads = 1;
  req.options.combo_jobs = 1;
  // The seed moves detect_seed only: one campaign's cycles and work move
  // with base_seed far beyond the benchmark's bounds (see README).
  req.options.detect.seed ^= seed_mix(seed);
  return req;
}

std::unique_ptr<svc::CampaignService> make_solo_service() {
  svc::ServiceConfig cfg;  // as `rls run`: one worker, one slot, no store
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  auto service = std::make_unique<svc::CampaignService>(std::move(cfg));
  service->start();
  return service;
}

/// The traced run's direct-call replay of one pinned-combo campaign
/// request: the Workbench constructor's calls, then make_ts0 +
/// run_procedure2 as run_single_combo makes them.
struct DirectRun {
  Row row;
  PrepSpans prep;
  double ts0_gen_ms = 0, procedure2_ms = 0, total_ms = 0;
  std::uint64_t attempts = 0;
  FaultStats fault;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

DirectRun run_direct(const svc::CampaignRequest& req, std::uint64_t ts0_seed,
                     Checks& checks) {
  DirectRun d;
  core::RunContext ctx(req.options);
  ctx.set_timing(true);
  StringSink sink;
  ctx.set_sink(&sink);

  const auto t_all = Clock::now();
  Prepared p = prepare_traced(req.circuit, req.options.detect);
  d.prep = p.spans;
  const core::Combo c{req.la, req.lb, req.n,
                      scan::n_cyc0(p.nl->num_state_vars(), req.la, req.lb,
                                   req.n)};
  core::Ts0Config cfg;
  cfg.l_a = c.l_a;
  cfg.l_b = c.l_b;
  cfg.n = c.n;
  cfg.seed = ts0_seed;
  auto t = Clock::now();
  const scan::TestSet ts0 = core::make_ts0(*p.nl, cfg);
  d.ts0_gen_ms = ms_since(t);
  fault::FaultList fl(p.targets);
  t = Clock::now();
  const auto result = core::run_procedure2(*p.cc, ts0, fl, req.options.p2,
                                           &ctx);
  d.procedure2_ms = ms_since(t);
  d.total_ms = ms_since(t_all);
  d.attempts = 1;
  d.row = Row{p.nl->name(),
              c.l_a,
              c.l_b,
              c.n,
              c.ncyc0,
              result.complete,
              result.total_detected,
              p.targets.size(),
              1,
              result.num_applications(),
              result.total_cycles()};
  const rlsbench::StreamTimes st = rlsbench::parse_stream(sink.text());
  d.counters = ctx.counters().snapshot();
  d.fault.ts0_ms = st.ts0_ms;
  d.fault.sweep_ms = st.sweep_ms;
  d.fault.sweeps = counter(d.counters, "fsim.sweeps");
  d.fault.tests = counter(d.counters, "fsim.tests");
  d.fault.gate_evals = counter(d.counters, "fsim.gate_evals");
  d.fault.id1_pairs = st.id1_pairs;
  // fsim.sweeps counts the TS_0 simulation of each attempt as a sweep too.
  checks.expect(st.sweeps + st.ts0_events == d.fault.sweeps,
                "sweep + ts0 events (" +
                    std::to_string(st.sweeps + st.ts0_events) +
                    ") disagree with fsim.sweeps (" +
                    std::to_string(d.fault.sweeps) + ")");
  d.fault.sweeps = st.sweeps;
  checks.expect(st.ts0_events == 1, "one ts0 event per campaign expected");
  return d;
}

void check_row_sane(Checks& checks, const Row& row, const std::string& who) {
  checks.expect(row.detected <= row.targets,
                who + ": detected > targets (" + row.str() + ")");
  checks.expect(row.targets > 0, who + ": empty target set");
}

/// Requests attempted and failed in a run (the result object's counts).
struct Tally {
  std::size_t attempted = 0, failed = 0;
};

Tally run_campaign_workload(const std::string& name,
                                     const CampaignSpec& spec,
                                     const Args& args, Checks& checks,
                                     Metrics& m) {
  Tally res;
  const svc::CampaignRequest req = campaign_request(spec, args.seed);
  const auto make = [](int) { return make_solo_service(); };
  std::vector<double> setup_times;
  std::unique_ptr<svc::CampaignService> service =
      timed_setups<svc::CampaignService>(kSetupRepsBefore, make, setup_times);
  std::printf("# %s: %s\n", name.c_str(), req.canonical_json().c_str());

  if (!args.trace) {
    std::vector<double> lat, cpu;
    std::optional<Row> first;
    std::vector<std::pair<std::string, std::uint64_t>> first_counters;
    const auto campaigns = std::max<std::size_t>(
        1, static_cast<std::size_t>(args.seconds / spec.nominal_s + 0.5));
    while (res.attempted < campaigns) {
      const double cpu_before = cpu_ms();
      const auto t = Clock::now();
      const svc::CampaignResponse resp = service->run(req);
      const double ms = ms_since(t);
      ++res.attempted;
      if (!resp.ok) {
        ++res.failed;
        checks.expect(false, "campaign failed: " + resp.error);
        break;
      }
      lat.push_back(ms);
      cpu.push_back(cpu_ms() - cpu_before);
      const Row row = rlsbench::row_of(resp);
      check_row_sane(checks, row, name);
      // Every timed campaign must do the work of a fresh `rls run`: same
      // row, same engine counters, nothing served from a cache.
      if (!first) {
        first = row;
        first_counters = resp.counters;
      } else {
        checks.expect(row == *first, "campaign row changed within a run: " +
                                         row.str() + " vs " + first->str());
        checks.expect(resp.counters == first_counters,
                      "campaign counters changed within a run (an "
                      "in-process cache between campaigns?)");
      }
      checks.expect(counter(resp.counters, "sweep.ts0_cache_hits") == 0 &&
                        counter(resp.counters, "store.cache_hit") == 0,
                    "a campaign was served from a cache");
      std::printf("# campaign %zu: %.1f ms  %s  gate_evals=%llu\n",
                  lat.size(), ms, row.str().c_str(),
                  static_cast<unsigned long long>(
                      counter(resp.counters, "fsim.gate_evals")));
    }
    if (first && args.seed == 0) {
      checks.expect(*first == spec.pinned, "default-seed row " +
                                               first->str() + " != pinned " +
                                               spec.pinned.str());
    }
    service.reset();
    timed_setups<svc::CampaignService>(kSetupReps - kSetupRepsBefore, make,
                                       setup_times);
    const Row r = first.value_or(Row{});
    // Campaigns run one at a time and repeat identical work, so medians
    // stand for the run; a host stall during one campaign moves no figure.
    // A run holds too few campaigns to resolve any tail percentile (see
    // resolved_tail), so latency_p95_ms repeats the median here.
    const double p50 = lat.empty() ? 0 : rlsbench::percentile(lat, 50);
    m.set("setup_s", rlsbench::percentile(setup_times, 50), "s");
    m.set("latency_p50_ms", p50, "ms");
    m.set("latency_p95_ms", p50, "ms");
    m.set("throughput_rps", p50 > 0 ? 1e3 / p50 : 0, "1/s");
    m.set("cpu_ms_per_request", cpu.empty() ? 0 : rlsbench::percentile(cpu, 50),
          "ms");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("ok_ratio",
          static_cast<double>(lat.size()) / static_cast<double>(res.attempted),
          "ratio");
    m.set("fault_coverage",
          r.targets == 0 ? 0
                         : static_cast<double>(r.detected) /
                               static_cast<double>(r.targets),
          "ratio");
    m.set("test_cycles", static_cast<double>(r.total_cycles), "cycles");
    std::printf("# latency: %zu samples, no tail percentile resolvable\n",
                lat.size());
    return res;
  }

  // ---- traced run ----
  // The TS_0 seed of a circuit comes from its Workbench, built untimed
  // first; it also warms the process up before both timed campaigns.
  const std::uint64_t ts0_seed =
      core::Workbench(gen::make_circuit(req.circuit), req.options).ts0_seed();
  const auto t_svc = Clock::now();
  const svc::CampaignResponse resp = service->run(req);
  const double svc_ms = ms_since(t_svc);
  res.attempted = 1;
  if (!resp.ok) {
    res.failed = 1;
    checks.expect(false, "campaign failed: " + resp.error);
    return res;
  }
  const Row svc_row = rlsbench::row_of(resp);
  check_row_sane(checks, svc_row, name);
  res.attempted += 1;
  const DirectRun d = run_direct(req, ts0_seed, checks);
  checks.expect(d.row == svc_row, "direct-call row " + d.row.str() +
                                      " != service row " + svc_row.str());
  checks.expect(
      counter(d.counters, "fsim.gate_evals") ==
          counter(resp.counters, "fsim.gate_evals"),
      "direct-call fsim.gate_evals differs from the service's");
  if (args.seed == 0) {
    checks.expect(svc_row == spec.pinned, "default-seed row " +
                                              svc_row.str() + " != pinned " +
                                              spec.pinned.str());
  }

  const double span_sum = d.prep.total_ms() + d.ts0_gen_ms + d.procedure2_ms;
  std::printf("# service campaign %.1f ms, traced direct calls %.1f ms "
              "(the layer spans cover %.2f%% of the traced campaign)\n",
              svc_ms, d.total_ms, 100.0 * span_sum / d.total_ms);
  print_share("gen.make_circuit", d.prep.make_circuit_ms, d.total_ms);
  print_share("sim.compile", d.prep.compile_ms, d.total_ms);
  print_share("fault.collapse", d.prep.collapse_ms, d.total_ms);
  print_share("atpg.classify", d.prep.classify_ms, d.total_ms);
  print_share("core.ts0_gen", d.ts0_gen_ms, d.total_ms);
  print_share("core.procedure2", d.procedure2_ms, d.total_ms);
  print_share("  fault.ts0 (in p2)", d.fault.ts0_ms, d.total_ms);
  print_share("  fault.sweeps (in p2)", d.fault.sweep_ms, d.total_ms);

  set_atpg_metrics(m, d.prep.classify_ms, {&d.prep.det});
  set_fault_metrics(m, d.fault);
  m.set("core.procedure2_ms", d.procedure2_ms, "ms");
  m.set("core.ts0_gen_ms", d.ts0_gen_ms, "ms");
  m.set("core.attempts", static_cast<double>(d.attempts), "count");
  m.set("core.ts0_cache_hits",
        static_cast<double>(counter(resp.counters, "sweep.ts0_cache_hits")),
        "count");
  m.set("gen.make_circuit_ms", d.prep.make_circuit_ms, "ms");
  m.set("sim.compile_ms", d.prep.compile_ms, "ms");
  m.set("fault.collapse_ms", d.prep.collapse_ms, "ms");
  m.set("fault.universe", static_cast<double>(d.prep.universe), "count");
  const obs::CounterRegistry sc = service->counters();
  LayerCounters lc;
  lc.executions = sc.value("svc.admitted");
  lc.coalesced = sc.value("svc.coalesced");
  lc.rejected = sc.value("svc.rejected");
  set_service_metrics(m, lc);
  m.set("bench.trace_overhead_pct", 100.0 * (d.total_ms - svc_ms) / svc_ms,
        "%");
  m.set("bench.span_share_pct", 100.0 * span_sum / d.total_ms, "%");
  return res;
}

// ---------------------------------------------------------------------------
// serve_mix: a closed loop of 4 clients into a 2-worker NetServer.

constexpr unsigned kServeWorkers = 2;
constexpr unsigned kServeClients = 4;

struct PoolEntry {
  std::string circuit;
  std::uint64_t la, lb, n;
  std::uint32_t max_iterations;
};

constexpr std::array<const char*, 8> kPoolCircuits = {
    "s298", "s420", "s641", "s820", "s953", "s1423", "b10", "b11"};

/// 8 circuits x 4 pinned combos x max_iterations {2, 4}, circuit-major.
std::vector<PoolEntry> serve_pool() {
  static const std::uint64_t kCombos[][3] = {
      {8, 16, 16}, {8, 32, 16}, {16, 32, 16}, {8, 16, 32}};
  std::vector<PoolEntry> pool;
  for (const char* c : kPoolCircuits) {
    for (const auto& combo : kCombos) {
      for (const std::uint32_t iters : {2u, 4u}) {
        pool.push_back({c, combo[0], combo[1], combo[2], iters});
      }
    }
  }
  return pool;
}

std::string request_line(const PoolEntry& e, const std::string& id,
                         std::uint64_t seed, bool timing) {
  const core::CampaignOptions defaults;
  std::string line = "{\"schema\":2,\"id\":\"" + id + "\",\"circuit\":\"" +
                     e.circuit + "\",\"la\":" + std::to_string(e.la) +
                     ",\"lb\":" + std::to_string(e.lb) +
                     ",\"n\":" + std::to_string(e.n) + ",\"max_iterations\":" +
                     std::to_string(e.max_iterations) + ",\"detect_seed\":" +
                     std::to_string(defaults.detect.seed ^ seed_mix(seed));
  if (timing) line += ",\"timing\":true";
  return line + "}";
}

/// The seeded request sequence. The seed picks the order only; what a run
/// asks for is the same at every seed, so the figures measure the program
/// and not the draw:
///   * 3 of every 10 positions are cold while the pool lasts, taking the
///     next entry of a stratified shuffle — every 8 consecutive cold
///     requests hold one entry of each pool circuit;
///   * the other positions repeat issued entries in shuffled passes, so
///     every issued entry is repeated equally often (±1).
class MixSequence {
 public:
  MixSequence(std::size_t circuits, std::size_t variants, std::uint64_t seed)
      : rng_(seed ^ 0x5E4E5E4E5E4E5E4Eull) {
    // Pool index = circuit * variants + variant (serve_pool's order).
    std::vector<std::vector<std::size_t>> per_circuit(circuits);
    for (std::size_t c = 0; c < circuits; ++c) {
      for (std::size_t v = 0; v < variants; ++v) {
        per_circuit[c].push_back(c * variants + v);
      }
      shuffle(per_circuit[c]);
    }
    std::vector<std::size_t> circuit_order(circuits);
    for (std::size_t c = 0; c < circuits; ++c) circuit_order[c] = c;
    for (std::size_t v = 0; v < variants; ++v) {
      shuffle(circuit_order);
      for (const std::size_t c : circuit_order) {
        cold_order_.push_back(per_circuit[c][v]);
      }
    }
  }
  std::size_t next() {
    const std::size_t slot = position_++ % 10;
    if (next_cold_ < cold_order_.size() &&
        (slot == 0 || slot == 4 || slot == 7)) {
      issued_.push_back(cold_order_[next_cold_++]);
      return issued_.back();
    }
    if (deck_.empty()) {
      deck_ = issued_;
      shuffle(deck_);
    }
    const std::size_t key = deck_.back();
    deck_.pop_back();
    return key;
  }
  [[nodiscard]] bool pool_issued() const noexcept {
    return next_cold_ == cold_order_.size();
  }

 private:
  void shuffle(std::vector<std::size_t>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng_() % i]);
    }
  }

  std::vector<std::size_t> cold_order_;
  std::vector<std::size_t> issued_;
  std::vector<std::size_t> deck_;
  std::size_t next_cold_ = 0;
  std::size_t position_ = 0;
  std::mt19937_64 rng_;
};

/// One server instance with its fresh store and connected clients.
struct ServeStack {
  std::string store_dir;
  std::unique_ptr<svc::CampaignService> service;
  std::unique_ptr<net::NetServer> server;
  std::vector<std::unique_ptr<net::NetClient>> clients;

  ~ServeStack() {
    for (auto& c : clients) {
      try {
        c->shutdown_write();
      } catch (...) {
      }
    }
    clients.clear();
    if (service) service->drain();
    if (server) server->shutdown();
    server.reset();
    service.reset();
    std::error_code ec;
    fs::remove_all(store_dir, ec);
  }
};

std::unique_ptr<ServeStack> make_serve_stack(const std::string& dir,
                                             const std::string& stream_dir) {
  auto s = std::make_unique<ServeStack>();
  s->store_dir = dir;
  fs::remove_all(dir);
  svc::ServiceConfig cfg;
  cfg.store_dir = dir;
  cfg.workers = kServeWorkers;
  s->service = std::make_unique<svc::CampaignService>(std::move(cfg));
  net::NetConfig ncfg;
  ncfg.port = 0;
  ncfg.stream_dir = stream_dir;
  s->server = std::make_unique<net::NetServer>(*s->service, ncfg);
  for (unsigned c = 0; c < kServeClients; ++c) {
    s->clients.push_back(
        std::make_unique<net::NetClient>("127.0.0.1", s->server->port()));
  }
  return s;
}

struct Sample {
  std::size_t key = 0;
  std::string id;
  double ms = 0;
  std::optional<rlsbench::Envelope> env;  ///< nullopt: transport failure
};

struct LoopResult {
  std::vector<Sample> samples;
  double wall_ms = 0, cpu_ms = 0;
  bool complete = false;  ///< every request answered, whole pool issued
};

/// Requests in one serve_mix loop: a fixed count, so every run at every
/// seed asks for the same work (a time-boxed loop would end its warm tail
/// early on a slow run, and the cold share would track the host's speed).
/// kRequestsPerRunSecond x --seconds — about --seconds of wall time on the
/// 4-CPU reference host — and never fewer than it takes to issue the whole
/// pool.
constexpr std::size_t kRequestsPerRunSecond = 10;

std::size_t serve_requests(std::size_t pool_size, unsigned seconds) {
  MixSequence probe(kPoolCircuits.size(), pool_size / kPoolCircuits.size(), 0);
  std::size_t cover = 0;
  for (; !probe.pool_issued(); ++cover) probe.next();
  return std::max<std::size_t>(cover, kRequestsPerRunSecond * seconds);
}

/// Runs the closed loop for `requests` requests (or until the hard limit).
LoopResult serve_loop(ServeStack& stack, const std::vector<PoolEntry>& pool,
                      std::uint64_t seed, std::size_t requests, bool timing) {
  constexpr double kHardLimitMs = 75'000;
  MixSequence seq(kPoolCircuits.size(), pool.size() / kPoolCircuits.size(),
                  seed);
  std::mutex mu;
  std::size_t next_index = 0;
  LoopResult out;
  const double cpu0 = cpu_ms();
  const auto t0 = Clock::now();
  const auto client_loop = [&](net::NetClient& client) {
    for (;;) {
      Sample s;
      std::string line;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (next_index >= requests || ms_since(t0) >= kHardLimitMs) return;
        s.key = seq.next();
        char id[32];
        std::snprintf(id, sizeof id, "q%zu", next_index++);
        s.id = id;
        line = request_line(pool[s.key], s.id, seed, timing);
      }
      const auto t = Clock::now();
      bool alive = true;
      try {
        client.send_line(line);
        if (std::optional<std::string> reply = client.recv_line()) {
          s.ms = ms_since(t);
          s.env = rlsbench::parse_envelope(*reply);
        } else {
          alive = false;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rlsbench: client error: %s\n", e.what());
        alive = false;
      }
      std::lock_guard<std::mutex> lk(mu);
      out.samples.push_back(std::move(s));
      if (!alive) return;
    }
  };
  std::vector<std::thread> threads;
  for (auto& c : stack.clients) {
    threads.emplace_back(client_loop, std::ref(*c));
  }
  for (std::thread& t : threads) t.join();
  out.wall_ms = ms_since(t0);
  out.cpu_ms = cpu_ms() - cpu0;
  out.complete = seq.pool_issued() && out.samples.size() == requests;
  return out;
}

struct MixSummary {
  std::size_t attempted = 0, failed = 0, ok = 0;
  std::vector<double> lat;
  std::map<std::size_t, Row> first_rows;
};

MixSummary check_mix(const LoopResult& loop, std::size_t pool_size,
                     Checks& checks) {
  MixSummary s;
  for (const Sample& smp : loop.samples) {
    ++s.attempted;
    if (!smp.env || !smp.env->ok) {
      ++s.failed;
      checks.expect(false, "request " + smp.id + " failed: " +
                               (smp.env ? smp.env->error_code + ": " +
                                              smp.env->error
                                        : std::string("transport")));
      continue;
    }
    ++s.ok;
    s.lat.push_back(smp.ms);
    const Row& row = smp.env->row;
    check_row_sane(checks, row, smp.id);
    const auto [it, fresh] = s.first_rows.emplace(smp.key, row);
    if (!fresh) {
      checks.expect(row == it->second,
                    "repeat response " + smp.id + " row " + row.str() +
                        " != first row of its request " + it->second.str());
    }
  }
  checks.expect(loop.complete && s.first_rows.size() == pool_size,
                "the loop did not answer every request of the whole pool (" +
                    std::to_string(s.first_rows.size()) + "/" +
                    std::to_string(pool_size) + ")");
  return s;
}

Tally run_serve_mix(const Args& args, Checks& checks, Metrics& m) {
  const std::vector<PoolEntry> pool = serve_pool();
  const std::size_t requests = serve_requests(pool.size(), args.seconds);
  const std::string base = args.scratch + "/serve_mix";
  fs::create_directories(base);
  const auto make = [&](int r) {
    return make_serve_stack(base + "/store" + std::to_string(r), "");
  };
  std::vector<double> setup_times;
  std::unique_ptr<ServeStack> stack =
      timed_setups<ServeStack>(kSetupRepsBefore, make, setup_times);
  const LoopResult loop =
      serve_loop(*stack, pool, args.seed, requests, false);
  const obs::CounterRegistry svc_counters = stack->service->counters();
  const obs::CounterRegistry net_counters = stack->server->counters();
  stack.reset();
  timed_setups<ServeStack>(kSetupReps - kSetupRepsBefore, make, setup_times);
  const MixSummary s = check_mix(loop, pool.size(), checks);
  checks.expect(net_counters.value("net.frame_errors") == 0,
                "the server saw frame errors");
  const double p50 = s.lat.empty() ? 0 : rlsbench::percentile(s.lat, 50);
  std::printf("# serve_mix: %zu requests (%zu ok), %zu distinct, %.1f s, "
              "%llu executions, %llu coalesced, %llu store hits\n",
              s.attempted, s.ok, s.first_rows.size(), loop.wall_ms / 1e3,
              static_cast<unsigned long long>(svc_counters.value("svc.admitted")),
              static_cast<unsigned long long>(
                  svc_counters.value("svc.coalesced")),
              static_cast<unsigned long long>(
                  svc_counters.value("store.cache_hit")));

  if (!args.trace) {
    std::uint64_t detected = 0, targets = 0, cycles = 0;
    for (const auto& [key, row] : s.first_rows) {
      detected += row.detected;
      targets += row.targets;
      cycles += row.total_cycles;
    }
    const rlsbench::Tail tail = rlsbench::resolved_tail(s.lat);
    std::printf("# latency: %zu samples; resolved tail: p%s = %.1f ms with "
                "%zu beyond\n",
                s.lat.size(), Metrics::number(tail.q).c_str(), tail.value,
                tail.beyond);
    const double n_ok = static_cast<double>(s.ok);
    m.set("setup_s", rlsbench::percentile(setup_times, 50), "s");
    m.set("latency_p50_ms", p50, "ms");
    m.set("latency_p95_ms",
          s.lat.empty() ? 0 : rlsbench::percentile(s.lat, 95), "ms");
    m.set("throughput_rps", n_ok / (loop.wall_ms / 1e3), "1/s");
    m.set("cpu_ms_per_request", s.ok == 0 ? 0 : loop.cpu_ms / n_ok, "ms");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m.set("ok_ratio", s.attempted == 0 ? 0 : n_ok / s.attempted, "ratio");
    m.set("fault_coverage",
          targets == 0 ? 0
                       : static_cast<double>(detected) /
                             static_cast<double>(targets),
          "ratio");
    m.set("test_cycles", static_cast<double>(cycles), "cycles");
    return {s.attempted, s.failed};
  }

  // ---- traced run: the same sequence as timed requests, streams kept ----
  const std::string stream_dir = base + "/streams";
  fs::remove_all(stream_dir);
  fs::create_directories(stream_dir);
  auto traced = make_serve_stack(base + "/store-traced", stream_dir);
  const LoopResult tloop =
      serve_loop(*traced, pool, args.seed, requests, true);
  const obs::CounterRegistry tsvc = traced->service->counters();
  const obs::CounterRegistry tnet = traced->server->counters();
  traced.reset();
  const MixSummary ts = check_mix(tloop, pool.size(), checks);
  for (const auto& [key, row] : ts.first_rows) {
    const auto it = s.first_rows.find(key);
    if (it != s.first_rows.end()) {
      checks.expect(row == it->second,
                    "timed request row differs from the untimed one: " +
                        row.str());
    }
  }

  // Execution time per request from its stream; the fault-simulation
  // split from the streams of requests that executed (not coalesced).
  std::vector<double> exec, wait;
  double leader_exec_ms = 0;
  std::uint64_t ts0_events = 0;
  FaultStats fst;
  std::map<std::string, std::size_t> executions_per_circuit;
  for (const Sample& smp : tloop.samples) {
    if (!smp.env || !smp.env->ok) continue;
    std::ifstream in(stream_dir + "/" + smp.id + ".jsonl");
    std::stringstream buf;
    buf << in.rdbuf();
    const rlsbench::StreamTimes st = rlsbench::parse_stream(buf.str());
    checks.expect(in.good() && st.has_result,
                  "no timed result event for " + smp.id);
    exec.push_back(st.result_ms);
    wait.push_back(std::max(0.0, smp.ms - st.result_ms));
    if (!smp.env->coalesced) {
      leader_exec_ms += st.result_ms;
      fst.ts0_ms += st.ts0_ms;
      fst.sweep_ms += st.sweep_ms;
      fst.id1_pairs += st.id1_pairs;
      fst.sweeps += st.sweeps;
      ts0_events += st.ts0_events;
      ++executions_per_circuit[smp.env->row.circuit];
    }
  }
  fs::remove_all(stream_dir);
  checks.expect(fst.sweeps + ts0_events == tsvc.value("fsim.sweeps"),
                "sweep + ts0 events disagree with fsim.sweeps");
  fst.tests = tsvc.value("fsim.tests");
  fst.gate_evals = tsvc.value("fsim.gate_evals");

  // Per-circuit preparation costs, direct calls, weighted by how often
  // each circuit executed in the traced loop.
  PrepSpans mean;
  std::vector<Prepared> preps;
  std::size_t executions = 0;
  for (const auto& [circuit, count] : executions_per_circuit) {
    atpg::DetectabilityOptions detect;
    detect.seed ^= seed_mix(args.seed);
    preps.push_back(prepare_traced(circuit, detect));
    const PrepSpans& p = preps.back().spans;
    const double w = static_cast<double>(count);
    mean.make_circuit_ms += w * p.make_circuit_ms;
    mean.compile_ms += w * p.compile_ms;
    mean.collapse_ms += w * p.collapse_ms;
    mean.classify_ms += w * p.classify_ms;
    mean.universe += p.universe;
    executions += count;
    for (const auto& [key, row] : ts.first_rows) {
      if (row.circuit == circuit) {
        checks.expect(row.targets == preps.back().targets.size(),
                      "direct classify of " + circuit +
                          " disagrees with the served target count");
      }
    }
  }
  const double nexec = std::max<double>(1.0, static_cast<double>(executions));
  mean.make_circuit_ms /= nexec;
  mean.compile_ms /= nexec;
  mean.collapse_ms /= nexec;
  mean.classify_ms /= nexec;
  const double per_exec = leader_exec_ms / nexec;
  std::printf("# traced serve_mix: %zu executions, mean execution %.1f ms\n",
              executions, per_exec);
  print_share("gen.make_circuit", mean.make_circuit_ms, per_exec);
  print_share("sim.compile", mean.compile_ms, per_exec);
  print_share("fault.collapse", mean.collapse_ms, per_exec);
  print_share("atpg.classify", mean.classify_ms, per_exec);
  print_share("fault.ts0+sweeps", (fst.ts0_ms + fst.sweep_ms) / nexec,
              per_exec);

  std::vector<const atpg::DetectabilityReport*> dets;
  for (const Prepared& p : preps) dets.push_back(&p.spans.det);
  set_atpg_metrics(m, mean.classify_ms, dets);
  set_fault_metrics(m, fst);
  m.set("core.procedure2_ms", 0, "ms");
  m.set("core.ts0_gen_ms", 0, "ms");
  m.set("core.attempts", static_cast<double>(ts0_events), "count");
  m.set("core.ts0_cache_hits",
        static_cast<double>(tsvc.value("sweep.ts0_cache_hits") +
                            tsvc.value("store.ts0_disk_hits")),
        "count");
  m.set("gen.make_circuit_ms", mean.make_circuit_ms, "ms");
  m.set("sim.compile_ms", mean.compile_ms, "ms");
  m.set("fault.collapse_ms", mean.collapse_ms, "ms");
  m.set("fault.universe", static_cast<double>(mean.universe), "count");
  LayerCounters lc;
  lc.cache_hits = tsvc.value("store.cache_hit");
  lc.executions = tsvc.value("svc.admitted");
  lc.bytes_read = tsvc.value("store.bytes_read");
  lc.bytes_written = tsvc.value("store.bytes_written");
  lc.checkpoint_saves = tsvc.value("store.checkpoint_saves");
  lc.corrupt = tsvc.value("store.corrupt");
  lc.coalesced = tsvc.value("svc.coalesced");
  lc.rejected = tsvc.value("svc.rejected");
  lc.net_bytes_in = tnet.value("net.bytes_in");
  lc.net_bytes_out = tnet.value("net.bytes_out");
  lc.net_disconnects = tnet.value("net.disconnects");
  lc.net_frame_errors = tnet.value("net.frame_errors");
  if (!exec.empty()) {
    lc.exec_ms_p50 = rlsbench::percentile(exec, 50);
    lc.wait_ms_p50 = rlsbench::percentile(wait, 50);
    lc.wait_ms_p95 = rlsbench::percentile(wait, 95);
  }
  set_service_metrics(m, lc);
  const double tp50 = ts.lat.empty() ? 0 : rlsbench::percentile(ts.lat, 50);
  m.set("bench.trace_overhead_pct", p50 > 0 ? 100.0 * (tp50 - p50) / p50 : 0,
        "%");
  m.set("bench.span_share_pct",
        per_exec > 0 ? 100.0 *
                           (mean.total_ms() +
                            (fst.ts0_ms + fst.sweep_ms) / nexec) /
                           per_exec
                     : 0,
        "%");
  return {s.attempted + ts.attempted, s.failed + ts.failed};
}

// ---------------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = static_cast<unsigned>(std::stoul(val));
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return false;
        a.trace = val == "1";
      } else if (key == "--scratch") {
        a.scratch = val;
      } else if (key == "--source") {
        a.source = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

void print_host(const Args& a) {
  double load1 = 0;
  if (std::FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &load1) != 1) load1 = 0;
    std::fclose(f);
  }
  std::printf(
      "{\"host\": {\"nproc\": %ld, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"source\": \"%s\", \"loadavg_1m\": %s}}\n",
      sysconf(_SC_NPROCESSORS_ONLN), RLSBENCH_BUILD_TYPE, RLSBENCH_COMPILER,
      a.source.c_str(), Metrics::number(load1).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: rlsbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR] [--source ID]\n");
    return 2;
  }
  print_host(args);
  Checks checks;
  Metrics metrics;
  Tally res;
  try {
    if (args.workload == "campaign_s5378") {
      CampaignSpec spec{"s5378", 8, 16, 16, 4, 10.0,
                        Row{"s5378", 8, 16, 16, 6291, false, 9143, 9637, 1, 33,
                            605622}};
      res = run_campaign_workload(args.workload, spec, args, checks, metrics);
    } else if (args.workload == "serve_mix") {
      res = run_serve_mix(args, checks, metrics);
    } else {
      std::fprintf(stderr, "rlsbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlsbench: %s\n", e.what());
    checks.expect(false, "workload threw");
    res.failed = std::max<std::size_t>(res.failed, 1);
    res.attempted = std::max(res.attempted, res.failed);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              checks.ok() ? "true" : "false", res.attempted, res.failed,
              metrics.json().c_str());
  return checks.ok() ? 0 : 1;
}
