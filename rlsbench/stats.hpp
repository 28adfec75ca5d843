// Pure helpers of rlsbench: sample statistics, and parsing of the
// program's two wire formats the benchmark reads back — response
// envelopes (one JSON object per line from `rls serve`) and the JSONL
// event stream of a timed request. Kept apart from bench.cpp so the
// self-tests can pin them without running a workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "svc/request.hpp"

namespace rlsbench {

/// Nearest-rank percentile: the smallest sample with at least q% of the
/// samples at or below it (q in (0, 100]). Throws on an empty sample.
double percentile(std::vector<double> samples, double q);

/// Number of samples ranked strictly above the nearest-rank q-th
/// percentile: n - ceil(q * n / 100).
std::size_t samples_beyond(std::size_t n, double q);

/// The tail a run can resolve: the highest of the percentiles 99.9, 99,
/// 95, 90, 75 and 50 that has at least 10 samples beyond it. `q` is 0
/// (and `value` the maximum) when even the median has fewer than 10.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail resolved_tail(const std::vector<double>& samples);

/// The result row of one campaign: every field the response envelope
/// carries about the simulated outcome. Two rows are equal iff the
/// campaigns reached the same result.
struct Row {
  std::string circuit;
  std::uint64_t la = 0, lb = 0, n = 0, ncyc0 = 0;
  bool complete = false;
  std::uint64_t detected = 0, targets = 0, attempts = 0, applications = 0;
  std::uint64_t total_cycles = 0;

  bool operator==(const Row&) const = default;
  [[nodiscard]] std::string str() const;
};

Row row_of(const rls::svc::CampaignResponse& resp);

/// One parsed response envelope.
struct Envelope {
  std::string id;
  bool ok = false;
  bool coalesced = false;
  std::string error;
  std::string error_code;
  Row row;  ///< meaningful only when ok
};

/// Parses one envelope line. Throws rls::svc::JsonError on malformed JSON
/// and std::runtime_error when a required field is missing or mistyped.
Envelope parse_envelope(std::string_view line);

/// What a timed request's event stream says about where its time went.
/// `ts0_ms`/`sweep_ms` sum the per-event durations of the `ts0` and
/// `sweep` events; `result_ms` is the `result` event's stamp, the time
/// from the start of the execution to its result.
struct StreamTimes {
  double ts0_ms = 0.0;
  double sweep_ms = 0.0;
  double result_ms = 0.0;
  std::size_t ts0_events = 0;
  std::size_t sweeps = 0;
  std::size_t id1_pairs = 0;
  std::size_t cache_hits = 0;
  bool has_result = false;
};

/// Parses a JSONL event stream. Throws rls::svc::JsonError on a malformed
/// line and std::runtime_error on an event without its "ev" name.
StreamTimes parse_stream(std::string_view jsonl);

}  // namespace rlsbench
