// Campaign service tests: the typed request schema, single-flight dedup
// (N identical concurrent requests -> one execution, N byte-identical
// streams), bounded admission (queue-full is a typed error, never a
// hang), killed-session resume via the resume flag, and the PR 7
// acceptance batch (8 distinct x 4 duplicates -> 8 executions, 24
// coalesced responses).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/run_context.hpp"
#include "fault/seq_fsim.hpp"
#include "obs/trace.hpp"
#include "store/artifact_store.hpp"
#include "store/checkpoint.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"

namespace fs = std::filesystem;

namespace rls {
namespace {

class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("rls-svc-") + tag + "-XXXXXX"))
                .string();
    if (::mkdtemp(path_.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + path_);
    }
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// A cheap, deterministic pinned-combo request. Explicit sim_threads=1 so
/// the service's oversubscription pin never changes the request.
svc::CampaignRequest s27_request(std::uint64_t n = 16) {
  svc::CampaignRequest req;
  req.circuit = "s27";
  req.la = 8;
  req.lb = 16;
  req.n = n;
  req.options.p2.sim_threads = 1;
  return req;
}

struct Solo {
  core::ExperimentRow row;
  std::string stream;
  std::uint64_t gate_evals = 0;
};

/// Executes `req` exactly the way CampaignService::execute does, but
/// inline — the byte-identity oracle for response streams.
Solo solo_run(const svc::CampaignRequest& req,
              store::ArtifactStore* astore = nullptr, bool resume = false) {
  Solo out;
  core::RunContext ctx(req.options);
  ctx.set_timing(req.timing);
  obs::VectorSink sink;
  ctx.set_sink(&sink);
  core::Workbench wb(req.circuit, ctx.options);
  std::unique_ptr<store::CampaignStore> cs;
  if (astore != nullptr) {
    cs = std::make_unique<store::CampaignStore>(*astore, wb.nl(),
                                                wb.target_faults(), resume);
    ctx.set_store(cs.get());
  }
  out.row =
      (req.la != 0 && req.lb != 0 && req.n != 0)
          ? run_single_combo(wb,
                             core::Combo{static_cast<std::size_t>(req.la),
                                         static_cast<std::size_t>(req.lb),
                                         static_cast<std::size_t>(req.n), 0},
                             ctx)
          : run_first_complete(wb, ctx);
  ctx.emit_counters();
  for (const obs::TraceEvent& ev : sink.events()) {
    out.stream += obs::to_jsonl(ev);
    out.stream.push_back('\n');
  }
  out.gate_evals = ctx.counters().value("fsim.gate_evals");
  return out;
}

/// JSONL lines of `stream` whose event type is in `keep`.
std::vector<std::string> filter_lines(const std::string& stream,
                                      std::initializer_list<const char*> keep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    std::size_t end = stream.find('\n', pos);
    if (end == std::string::npos) end = stream.size();
    const std::string line = stream.substr(pos, end - pos);
    for (const char* k : keep) {
      if (line.rfind(std::string("{\"ev\":\"") + k + "\"", 0) == 0) {
        out.push_back(line);
        break;
      }
    }
    pos = end + 1;
  }
  return out;
}

bool is_suffix(const std::vector<std::string>& suffix,
               const std::vector<std::string>& full) {
  if (suffix.size() > full.size()) return false;
  return std::equal(suffix.begin(), suffix.end(),
                    full.end() - static_cast<std::ptrdiff_t>(suffix.size()));
}

// ---- SvcRequest: wire schema ---------------------------------------------

TEST(SvcRequest, CanonicalJsonRoundTrips) {
  svc::CampaignRequest req;
  req.id = "alpha";
  req.circuit = "s298";
  req.la = 8;
  req.lb = 32;
  req.n = 64;
  req.options.p2.d1_order = {10, 9, 8};
  req.options.p2.max_iterations = 12;
  req.options.p2.base_seed = 42;
  req.options.p2.reseed_per_test = false;
  req.options.p2.sim_threads = 2;
  req.options.combo_jobs = 3;
  req.options.max_attempts = 5;
  req.options.detect.seed = 7;
  req.timing = true;

  const std::string canon = req.canonical_json();
  const svc::CampaignRequest back = svc::parse_request(canon, "test");
  EXPECT_EQ(back.canonical_json(), canon);
  EXPECT_EQ(back.id, "alpha");
  EXPECT_EQ(back.options.p2.d1_order,
            (std::vector<std::uint32_t>{10, 9, 8}));
  EXPECT_TRUE(back.timing);
}

TEST(SvcRequest, DefaultsRoundTripAndParseBack) {
  svc::CampaignRequest req;
  req.circuit = "s27";
  const svc::CampaignRequest back =
      svc::parse_request(req.canonical_json(), "test");
  EXPECT_EQ(back.canonical_json(), req.canonical_json());
  // Absent optional fields mean defaults.
  const svc::CampaignRequest sparse =
      svc::parse_request(R"({"schema":1,"circuit":"s27"})", "test");
  EXPECT_EQ(sparse.canonical_json(), req.canonical_json());
}

TEST(SvcRequest, StrictParsingRejectsBadInput) {
  // schema is required and version-gated.
  EXPECT_THROW(svc::parse_request(R"({"circuit":"s27"})", "t"),
               svc::RequestError);
  EXPECT_THROW(svc::parse_request(R"({"schema":3,"circuit":"s27"})", "t"),
               svc::RequestError);
  // Unknown fields are a hard error (typo'd knobs must not default).
  EXPECT_THROW(
      svc::parse_request(R"({"schema":1,"circuit":"s27","sead":1})", "t"),
      svc::RequestError);
  // circuit is required; la/lb/n are all-or-none; engine is validated.
  EXPECT_THROW(svc::parse_request(R"({"schema":1})", "t"), svc::RequestError);
  EXPECT_THROW(
      svc::parse_request(R"({"schema":1,"circuit":"s27","la":8})", "t"),
      svc::RequestError);
  EXPECT_THROW(svc::parse_request(
                   R"({"schema":1,"circuit":"s27","engine":"warp"})", "t"),
               svc::RequestError);
  EXPECT_THROW(svc::parse_request(
                   R"({"schema":1,"circuit":"s27","d1_order":[]})", "t"),
               svc::RequestError);
}

TEST(SvcRequest, ScheduleFieldsAreScheduleOnly) {
  // priority / deadline_ms (schema 2) round-trip through the canonical
  // form but never change the execution identity: a high-priority
  // deadline-bearing request coalesces with its plain twin.
  svc::CampaignRequest req;
  req.circuit = "s298";
  req.priority = 9;
  req.deadline_ms = 1500;
  const svc::CampaignRequest back =
      svc::parse_request(req.canonical_json(), "test");
  EXPECT_EQ(back.priority, 9u);
  EXPECT_EQ(back.deadline_ms, 1500u);
  EXPECT_EQ(back.canonical_json(), req.canonical_json());

  svc::CampaignRequest plain;
  plain.circuit = "s298";
  EXPECT_EQ(svc::coalesce_key(req), svc::coalesce_key(plain));
}

TEST(SvcRequest, ParseLineDispatchesCancelStrictly) {
  const svc::ParsedLine req =
      svc::parse_line(R"({"schema":1,"circuit":"s27"})", "t");
  ASSERT_TRUE(req.request.has_value());
  EXPECT_FALSE(req.cancel.has_value());

  const svc::ParsedLine cancel =
      svc::parse_line(R"({"cancel":"q7"})", "t");
  ASSERT_TRUE(cancel.cancel.has_value());
  EXPECT_EQ(cancel.cancel->target, "q7");
  // The canonical form round-trips (the fuzz fixpoint contract).
  const svc::ParsedLine canon =
      svc::parse_line(cancel.cancel->canonical_json(), "t");
  ASSERT_TRUE(canon.cancel.has_value());
  EXPECT_EQ(canon.cancel->target, "q7");

  // Strict: no extra fields, a named target, version-gated schema.
  EXPECT_THROW(svc::parse_line(R"({"cancel":"q7","circuit":"s27"})", "t"),
               svc::RequestError);
  EXPECT_THROW(svc::parse_line(R"({"cancel":""})", "t"), svc::RequestError);
  EXPECT_THROW(svc::parse_line(R"({"schema":3,"cancel":"q7"})", "t"),
               svc::RequestError);
}

/// Parses `line` and expects a RequestError whose message contains every
/// fragment in `want` (the field name and its range).
void expect_request_error(const std::string& line,
                          std::initializer_list<const char*> want) {
  try {
    (void)svc::parse_line(line, "t");
    ADD_FAILURE() << "accepted: " << line;
  } catch (const svc::RequestError& e) {
    const std::string what = e.what();
    for (const char* w : want) {
      EXPECT_NE(what.find(w), std::string::npos) << what;
    }
  }
}

TEST(SvcRequest, DefaultRequestUsesThePackedEngine) {
  const svc::CampaignRequest req =
      svc::parse_request(R"({"schema":2,"circuit":"s27"})", "t");
  EXPECT_EQ(req.options.p2.engine, fault::Engine::kPacked);
  EXPECT_NE(req.canonical_json().find(R"("engine":"packed")"),
            std::string::npos);
}

TEST(SvcRequest, RetiredConediffEngineIsATypedError) {
  expect_request_error(R"({"schema":2,"circuit":"s27","engine":"conediff"})",
                       {"\"engine\" expects one of fullsweep, packed",
                        "conediff"});
}

// ---- SvcRequestRange: no silent narrowing at the request boundary -------

TEST(SvcRequestRange, SchemaRejectsValuesBeyond32Bits) {
  // 4294967298 used to wrap to schema 2 and parse.
  expect_request_error(R"({"schema":4294967298,"circuit":"s27"})",
                       {"\"schema\"", "[0, 4294967295]", "4294967298"});
}

TEST(SvcRequestRange, CancelSchemaRejectsValuesBeyond32Bits) {
  expect_request_error(R"({"schema":4294967296,"cancel":"q7"})",
                       {"\"schema\"", "[0, 4294967295]"});
}

TEST(SvcRequestRange, ThreadsRejectsValuesBeyond32Bits) {
  expect_request_error(R"({"schema":2,"circuit":"s27","threads":4294967296})",
                       {"\"threads\"", "[0, 4294967295]", "4294967296"});
  const svc::CampaignRequest max = svc::parse_request(
      R"({"schema":2,"circuit":"s27","threads":4294967295})", "t");
  EXPECT_EQ(max.options.p2.sim_threads, 4294967295u);
}

TEST(SvcRequestRange, ComboJobsRejectsValuesBeyond32Bits) {
  expect_request_error(
      R"({"schema":2,"circuit":"s27","combo_jobs":4294967296})",
      {"\"combo_jobs\"", "[0, 4294967295]"});
}

TEST(SvcRequestRange, D1OrderElementsMustBeIn1To32Bits) {
  // [4294967296] used to wrap to [0], coalesce with a literal [0]
  // request and fail late as a "run" error.
  expect_request_error(
      R"({"schema":2,"circuit":"s27","d1_order":[1,4294967296]})",
      {"\"d1_order[1]\"", "[1, 4294967295]", "4294967296"});
  expect_request_error(R"({"schema":2,"circuit":"s27","d1_order":[0]})",
                       {"\"d1_order[0]\"", "[1, 4294967295]"});
}

TEST(SvcRequestRange, NSameFcRejectsValuesBeyond32Bits) {
  expect_request_error(R"({"schema":2,"circuit":"s27","n_same_fc":4294967296})",
                       {"\"n_same_fc\"", "[0, 4294967295]"});
}

TEST(SvcRequestRange, MaxIterationsRejectsValuesBeyond32Bits) {
  expect_request_error(
      R"({"schema":2,"circuit":"s27","max_iterations":4294967296})",
      {"\"max_iterations\"", "[0, 4294967295]"});
}

TEST(SvcRequestRange, BacktrackLimitRejectsValuesBeyondInt) {
  // 4294967295 used to become backtrack_limit -1.
  expect_request_error(
      R"({"schema":2,"circuit":"s27","backtrack_limit":4294967295})",
      {"\"backtrack_limit\"", "[0, 2147483647]", "4294967295"});
  expect_request_error(
      R"({"schema":2,"circuit":"s27","backtrack_limit":2147483648})",
      {"\"backtrack_limit\"", "[0, 2147483647]"});
  const svc::CampaignRequest max = svc::parse_request(
      R"({"schema":2,"circuit":"s27","backtrack_limit":2147483647})", "t");
  EXPECT_EQ(max.options.detect.backtrack_limit, 2147483647);
  EXPECT_EQ(svc::parse_request(max.canonical_json(), "t").canonical_json(),
            max.canonical_json());
}

TEST(SvcRequestRange, ZeroPinnedLengthGetsItsOwnMessage) {
  expect_request_error(R"({"schema":2,"circuit":"s27","la":0,"lb":16,"n":8})",
                       {"\"la\" must be >= 1"});
  expect_request_error(R"({"schema":2,"circuit":"s27","la":8,"lb":16,"n":0})",
                       {"\"n\" must be >= 1"});
  // An omitted field keeps the all-or-none message.
  expect_request_error(R"({"schema":2,"circuit":"s27","lb":16,"n":8})",
                       {"must be given together"});
  // All three explicit zeros are the canonical first-complete sweep.
  EXPECT_NO_THROW(svc::parse_request(
      R"({"schema":2,"circuit":"s27","la":0,"lb":0,"n":0})", "t"));
}

TEST(SvcRequestRange, UpperBoundsParseAndRoundTrip) {
  // The range check is inclusive: each narrowed field accepts exactly its
  // type's maximum, and the canonical form re-parses to itself.
  const svc::CampaignRequest req = svc::parse_request(
      R"({"schema":2,"circuit":"s27","combo_jobs":4294967295,)"
      R"("d1_order":[1,4294967295],"n_same_fc":4294967295,)"
      R"("max_iterations":4294967295})",
      "t");
  EXPECT_EQ(req.options.combo_jobs, 4294967295u);
  EXPECT_EQ(req.options.p2.d1_order,
            (std::vector<std::uint32_t>{1u, 4294967295u}));
  EXPECT_EQ(req.options.p2.n_same_fc, 4294967295u);
  EXPECT_EQ(req.options.p2.max_iterations, 4294967295u);
  EXPECT_EQ(svc::parse_request(req.canonical_json(), "t").canonical_json(),
            req.canonical_json());
  // A zero lb among pinned la/n names lb, like la and n.
  expect_request_error(R"({"schema":2,"circuit":"s27","la":8,"lb":0,"n":8})",
                       {"\"lb\" must be >= 1"});
}

TEST(SvcRequest, CoalesceKeyNeutralizesScheduleOnlyFields) {
  const svc::CampaignRequest base = s27_request();
  const std::uint64_t key = svc::coalesce_key(base);

  svc::CampaignRequest same = base;
  same.id = "other-name";
  same.options.p2.sim_threads = 7;
  same.options.combo_jobs = 4;
  EXPECT_EQ(svc::coalesce_key(same), key);

  svc::CampaignRequest seed = base;
  seed.options.p2.base_seed ^= 1;
  EXPECT_NE(svc::coalesce_key(seed), key);
  svc::CampaignRequest combo = base;
  combo.n = 64;
  EXPECT_NE(svc::coalesce_key(combo), key);
  svc::CampaignRequest timing = base;
  timing.timing = true;  // timing changes stream bytes: never coalesce
  EXPECT_NE(svc::coalesce_key(timing), key);
}

// ---- SvcSingleFlight -----------------------------------------------------

TEST(SvcSingleFlight, IdenticalRequestsShareOneExecution) {
  svc::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.autostart = false;  // queue everything first: coalescing is certain
  svc::CampaignService service(std::move(cfg));

  const svc::CampaignRequest req = s27_request();
  std::vector<std::shared_future<svc::CampaignResponse>> futures;
  for (int k = 0; k < 4; ++k) futures.push_back(service.submit(req));
  service.start();

  const Solo solo = solo_run(req);
  int leaders = 0;
  std::vector<std::string> ids;
  for (auto& f : futures) {
    const svc::CampaignResponse resp = f.get();
    ASSERT_TRUE(resp.ok) << resp.error;
    if (!resp.coalesced) ++leaders;
    ids.push_back(resp.id);
    // Every subscriber gets the same byte-exact stream a solo run makes.
    EXPECT_EQ(resp.stream, solo.stream);
    EXPECT_EQ(resp.detected, solo.row.result.total_detected);
    EXPECT_EQ(resp.total_cycles, solo.row.result.total_cycles());
    EXPECT_EQ(resp.complete, solo.row.found_complete);
  }
  EXPECT_EQ(leaders, 1);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"r0", "r1", "r2", "r3"}));

  const obs::CounterRegistry c = service.counters();
  EXPECT_EQ(c.value("svc.queued"), 1u);
  EXPECT_EQ(c.value("svc.admitted"), 1u);
  EXPECT_EQ(c.value("svc.coalesced"), 3u);
  EXPECT_EQ(c.value("svc.rejected"), 0u);
  // The fsim counters prove exactly one execution ran for all four.
  EXPECT_EQ(c.value("fsim.gate_evals"), solo.gate_evals);
}

// ---- SvcQueueFull --------------------------------------------------------

TEST(SvcQueueFull, AdmissionRejectsWithTypedErrorNeverHangs) {
  svc::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.autostart = false;
  svc::CampaignService service(std::move(cfg));

  auto first = service.submit(s27_request(16));  // occupies the only slot
  try {
    service.submit(s27_request(64));  // different key: needs a slot
    FAIL() << "expected QueueFullError";
  } catch (const svc::QueueFullError& e) {
    EXPECT_EQ(e.id, "r1");
    EXPECT_NE(std::string(e.what()).find("queue is full"), std::string::npos);
  }
  // A duplicate of the queued request still coalesces — subscribers do
  // not occupy queue slots.
  auto dup = service.submit(s27_request(16));
  EXPECT_EQ(service.counters().value("svc.rejected"), 1u);
  EXPECT_EQ(service.counters().value("svc.coalesced"), 1u);

  // The batch path converts the rejection into an immediate error
  // response future instead of throwing.
  auto futures = service.submit_batch({s27_request(64)});
  ASSERT_EQ(futures.size(), 1u);
  ASSERT_EQ(futures[0].wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const svc::CampaignResponse rejected = futures[0].get();
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("queue is full"), std::string::npos);

  service.start();
  EXPECT_TRUE(first.get().ok);
  EXPECT_TRUE(dup.get().ok);
}

TEST(SvcQueueFull, ShutdownResolvesQueuedRequestsWithError) {
  svc::ServiceConfig cfg;
  cfg.autostart = false;  // never started: the request can never run
  svc::CampaignService service(std::move(cfg));
  auto f = service.submit(s27_request());
  service.shutdown();
  const svc::CampaignResponse resp = f.get();
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("stopped"), std::string::npos);
  EXPECT_THROW(service.submit(s27_request()), svc::ServiceStoppedError);
}

// ---- SvcResume -----------------------------------------------------------

TEST(SvcResume, KilledSessionResumesViaResumeFlag) {
  // s420 is random-resistant: with Procedure 2 cut to one D_1 = 1 sweep
  // no combination completes, so the cut session deterministically leaves
  // a partial campaign checkpoint behind (stands in for a killed serve).
  svc::CampaignRequest full_req;
  full_req.circuit = "s420";
  full_req.options.p2.d1_order = {1};
  full_req.options.p2.max_iterations = 1;
  full_req.options.p2.n_same_fc = 1;
  full_req.options.p2.sim_threads = 1;
  full_req.options.max_attempts = 4;
  full_req.options.max_combos_on_failure = 4;

  const Solo base = solo_run(full_req);
  ASSERT_FALSE(base.row.found_complete);
  ASSERT_EQ(base.row.attempts, 4u);

  const ScratchDir dir("resume");
  {
    // "Killed" serve session: two committed attempts, then gone.
    svc::ServiceConfig cfg;
    cfg.store_dir = dir.path();
    svc::CampaignService service(std::move(cfg));
    svc::CampaignRequest cut = full_req;
    cut.options.max_attempts = 2;
    const svc::CampaignResponse resp = service.run(cut);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.complete);
  }
  {
    // Restarted with resume: adopts the two attempts, runs the rest.
    svc::ServiceConfig cfg;
    cfg.store_dir = dir.path();
    cfg.resume = true;
    svc::CampaignService service(std::move(cfg));
    const svc::CampaignResponse resp = service.run(full_req);
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.circuit, base.row.circuit);
    EXPECT_EQ(resp.la, base.row.combo.l_a);
    EXPECT_EQ(resp.lb, base.row.combo.l_b);
    EXPECT_EQ(resp.n, base.row.combo.n);
    EXPECT_EQ(resp.complete, base.row.found_complete);
    EXPECT_EQ(resp.attempts, base.row.attempts);
    EXPECT_EQ(resp.detected, base.row.result.total_detected);
    EXPECT_EQ(resp.total_cycles, base.row.result.total_cycles());

    const obs::CounterRegistry c = service.counters();
    EXPECT_GE(c.value("store.resumes"), 1u);
    // The adopted prefix was not re-simulated.
    EXPECT_LT(c.value("fsim.gate_evals"), base.gate_evals);

    // The resumed stream is a strict suffix of the uninterrupted one:
    // adopted attempts replay silently, the continuation is bytewise
    // identical.
    const auto keep = {"ts0",     "sweep",         "id1_pair",
                       "summary", "combo_attempt", "result"};
    const auto base_lines = filter_lines(base.stream, keep);
    const auto resume_lines = filter_lines(resp.stream, keep);
    EXPECT_LT(resume_lines.size(), base_lines.size());
    EXPECT_TRUE(is_suffix(resume_lines, base_lines));
  }
}

// ---- SvcAcceptance -------------------------------------------------------

TEST(SvcAcceptance, BatchOf32CoalescesToEightExecutions) {
  // 8 distinct requests (4 cheap s27 pins, 4 bounded s298 pins)...
  std::vector<svc::CampaignRequest> distinct;
  for (const auto [la, lb, n] :
       {std::array<std::uint64_t, 3>{8, 16, 16}, {8, 16, 64},
        {8, 32, 16}, {8, 32, 64}}) {
    svc::CampaignRequest req = s27_request();
    req.la = la;
    req.lb = lb;
    req.n = n;
    distinct.push_back(std::move(req));
  }
  for (const auto [la, lb, n] :
       {std::array<std::uint64_t, 3>{8, 16, 64}, {8, 32, 64},
        {16, 16, 64}, {8, 16, 128}}) {
    svc::CampaignRequest req;
    req.circuit = "s298";
    req.la = la;
    req.lb = lb;
    req.n = n;
    req.options.p2.sim_threads = 1;
    req.options.p2.max_iterations = 6;  // bounded: incomplete rows are fine
    distinct.push_back(std::move(req));
  }

  // ...against a warm sharded store.
  const ScratchDir dir("accept");
  {
    store::ArtifactStore warmup(dir.path());
    for (const svc::CampaignRequest& req : distinct) {
      solo_run(req, &warmup);
    }
  }
  // Solo oracle streams against the warm store (pure cache reads).
  std::vector<Solo> solos;
  {
    store::ArtifactStore warm(dir.path());
    for (const svc::CampaignRequest& req : distinct) {
      solos.push_back(solo_run(req, &warm));
      EXPECT_EQ(solos.back().gate_evals, 0u) << "store should be warm";
    }
  }

  // 32 requests: 8 distinct x 4 duplicates, interleaved.
  std::vector<svc::CampaignRequest> batch;
  for (int dup = 0; dup < 4; ++dup) {
    for (const svc::CampaignRequest& req : distinct) batch.push_back(req);
  }
  svc::ServiceConfig cfg;
  cfg.store_dir = dir.path();
  cfg.workers = 2;
  cfg.queue_capacity = 16;
  cfg.autostart = false;
  svc::CampaignService service(std::move(cfg));
  auto futures = service.submit_batch(std::move(batch));
  service.start();

  ASSERT_EQ(futures.size(), 32u);
  for (std::size_t k = 0; k < futures.size(); ++k) {
    const svc::CampaignResponse resp = futures[k].get();
    ASSERT_TRUE(resp.ok) << resp.error;
    // Byte-identical to the solo run of the same request.
    EXPECT_EQ(resp.stream, solos[k % 8].stream) << "request " << k;
    EXPECT_EQ(resp.detected, solos[k % 8].row.result.total_detected);
  }
  const obs::CounterRegistry c = service.counters();
  EXPECT_EQ(c.value("svc.queued"), 8u);     // one leader per distinct key
  EXPECT_LE(c.value("svc.admitted"), 8u);   // <= 8 executions
  EXPECT_EQ(c.value("svc.coalesced"), 24u);
  EXPECT_EQ(c.value("svc.rejected"), 0u);
  EXPECT_EQ(c.value("fsim.gate_evals"), 0u);  // warm: no simulation at all
}

}  // namespace
}  // namespace rls
