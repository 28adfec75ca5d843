// Self-tests of the benchmark's own logic: the percentile rule, envelope
// parsing and timed-event parsing. Run through `python3 rlsbench/run.py
// --selftest`, which also runs the Python tests of run.py.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats.hpp"
#include "svc/json.hpp"
#include "svc/request.hpp"

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(rlsbench::percentile(one_to(100), 50), 50);
  EXPECT_EQ(rlsbench::percentile(one_to(100), 95), 95);
  EXPECT_EQ(rlsbench::percentile(one_to(100), 100), 100);
  EXPECT_EQ(rlsbench::percentile(one_to(3), 50), 2);
  EXPECT_EQ(rlsbench::percentile(one_to(2), 50), 1);
  EXPECT_EQ(rlsbench::percentile(one_to(1), 95), 1);
  EXPECT_EQ(rlsbench::percentile(one_to(3), 95), 3);
  EXPECT_THROW(rlsbench::percentile({}, 50), std::invalid_argument);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(rlsbench::samples_beyond(200, 95), 10u);
  EXPECT_EQ(rlsbench::samples_beyond(199, 95), 9u);
  EXPECT_EQ(rlsbench::samples_beyond(1000, 99), 10u);
  EXPECT_EQ(rlsbench::samples_beyond(20, 50), 10u);
  EXPECT_EQ(rlsbench::samples_beyond(5, 100), 0u);
}

TEST(Percentile, TailIsHighestWithTenBeyond) {
  // 300 samples: p99 leaves 3 beyond, p95 leaves 15 -> p95.
  rlsbench::Tail t = rlsbench::resolved_tail(one_to(300));
  EXPECT_EQ(t.q, 95);
  EXPECT_EQ(t.beyond, 15u);
  EXPECT_EQ(t.samples, 300u);
  EXPECT_EQ(t.value, 285);
  // Exactly 1000: p99 has 10 beyond.
  t = rlsbench::resolved_tail(one_to(1000));
  EXPECT_EQ(t.q, 99);
  EXPECT_EQ(t.beyond, 10u);
  // 199 samples: p95 leaves 9, so p90 (19 beyond).
  t = rlsbench::resolved_tail(one_to(199));
  EXPECT_EQ(t.q, 90);
  EXPECT_EQ(t.beyond, 19u);
  // Three campaigns: nothing resolves; report the maximum, q = 0.
  t = rlsbench::resolved_tail(one_to(3));
  EXPECT_EQ(t.q, 0);
  EXPECT_EQ(t.value, 3);
  EXPECT_EQ(t.beyond, 0u);
}

TEST(Envelope, ParsesOkRow) {
  const rlsbench::Envelope e = rlsbench::parse_envelope(
      R"({"schema":2,"id":"q7","ok":true,"coalesced":true,"circuit":"s420",)"
      R"("la":8,"lb":64,"n":128,"ncyc0":13328,"complete":true,"detected":801,)"
      R"("targets":801,"attempts":13,"applications":7,"total_cycles":330368})");
  EXPECT_EQ(e.id, "q7");
  EXPECT_TRUE(e.ok);
  EXPECT_TRUE(e.coalesced);
  const rlsbench::Row want{"s420", 8, 64, 128, 13328, true,
                           801,    801, 13, 7,   330368};
  EXPECT_EQ(e.row, want);
}

TEST(Envelope, RoundTripsTheServiceRendering) {
  rls::svc::CampaignResponse resp;
  resp.id = "r1";
  resp.ok = true;
  resp.circuit = "s27";
  resp.la = 8;
  resp.lb = 16;
  resp.n = 64;
  resp.ncyc0 = 1234;
  resp.detected = 30;
  resp.targets = 32;
  resp.attempts = 1;
  resp.applications = 2;
  resp.total_cycles = 4567;
  const rlsbench::Envelope e = rlsbench::parse_envelope(resp.to_json());
  EXPECT_EQ(e.row, rlsbench::row_of(resp));
  EXPECT_FALSE(e.coalesced);
}

TEST(Envelope, ParsesErrors) {
  const rlsbench::Envelope e = rlsbench::parse_envelope(
      R"({"schema":2,"id":"q1","ok":false,"error":"full",)"
      R"("error_code":"queue_full","retry_after_hint":50,"coalesced":false})");
  EXPECT_FALSE(e.ok);
  EXPECT_EQ(e.error_code, "queue_full");
  EXPECT_EQ(e.error, "full");
}

TEST(Envelope, RejectsMalformed) {
  EXPECT_THROW(rlsbench::parse_envelope("{\"id\":\"x\""),
               rls::svc::JsonError);
  // ok row without its cycle count
  EXPECT_THROW(rlsbench::parse_envelope(
                   R"({"id":"x","ok":true,"coalesced":false,"circuit":"s27"})"),
               std::runtime_error);
}

TEST(Stream, SumsTimedEvents) {
  const std::string stream =
      R"({"ev":"run_start","circuit":"s27","targets":32})" "\n"
      R"({"ev":"ts0","attempt":0,"detected":20,"targets":32,"ncyc0":99,"fc":0.625,"wall_ms":2.5})" "\n"
      R"({"ev":"sweep","attempt":0,"iteration":1,"d1":1,"tests":4,"det":2,"gate_evals":10,"wall_ms":1.25})" "\n"
      R"({"ev":"id1_pair","attempt":0,"iteration":1,"d1":1,"det":2,"wall_ms":1.25})" "\n"
      R"({"ev":"sweep","attempt":0,"iteration":1,"d1":2,"tests":4,"det":0,"gate_evals":10,"wall_ms":3})" "\n"
      R"({"ev":"result","circuit":"s27","detected":22,"targets":32,"wall_ms":12.75})" "\n";
  const rlsbench::StreamTimes t = rlsbench::parse_stream(stream);
  EXPECT_DOUBLE_EQ(t.ts0_ms, 2.5);
  EXPECT_DOUBLE_EQ(t.sweep_ms, 4.25);
  EXPECT_DOUBLE_EQ(t.result_ms, 12.75);
  EXPECT_EQ(t.ts0_events, 1u);
  EXPECT_EQ(t.sweeps, 2u);
  EXPECT_EQ(t.id1_pairs, 1u);
  EXPECT_TRUE(t.has_result);
}

TEST(Stream, WarmHitAndUntimedStreams) {
  const rlsbench::StreamTimes t = rlsbench::parse_stream(
      R"({"ev":"cache_hit","key":"abc"})" "\n"
      R"({"ev":"result","circuit":"s27","wall_ms":0})");
  EXPECT_EQ(t.cache_hits, 1u);
  EXPECT_EQ(t.sweeps, 0u);
  EXPECT_TRUE(t.has_result);
  EXPECT_EQ(t.result_ms, 0);
  EXPECT_FALSE(rlsbench::parse_stream("").has_result);
}

TEST(Stream, RejectsLinesWithoutEventName) {
  EXPECT_THROW(rlsbench::parse_stream(R"({"wall_ms":1})"), std::runtime_error);
  EXPECT_THROW(rlsbench::parse_stream("not json\n"), rls::svc::JsonError);
}

}  // namespace
