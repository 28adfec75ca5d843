#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "svc/json.hpp"

namespace rlsbench {

using rls::svc::JsonObject;
using rls::svc::JsonValue;

namespace {

const JsonValue* find(const JsonObject& obj, std::string_view name) {
  for (const auto& [key, value] : obj) {
    if (key == name) return &value;
  }
  return nullptr;
}

const JsonValue& require(const JsonObject& obj, std::string_view name,
                         JsonValue::Kind kind) {
  const JsonValue* v = find(obj, name);
  if (v == nullptr || v->kind != kind) {
    throw std::runtime_error("envelope field \"" + std::string(name) +
                             "\" is missing or has the wrong type");
  }
  return *v;
}

std::uint64_t uint_field(const JsonObject& obj, std::string_view name) {
  return require(obj, name, JsonValue::Kind::kUint).u;
}

/// Event stamps are rendered with %g: integral values come back as
/// unsigned integers, the rest as doubles.
double number_field(const JsonObject& obj, std::string_view name) {
  const JsonValue* v = find(obj, name);
  if (v == nullptr) return 0.0;
  if (v->kind == JsonValue::Kind::kUint) return static_cast<double>(v->u);
  if (v->kind == JsonValue::Kind::kDouble) return v->d;
  throw std::runtime_error("event field \"" + std::string(name) +
                           "\" is not a number");
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t beyond = samples_beyond(n, q);
  return samples[n - beyond - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  // ceil(q n / 100) with q in (0, 100], clamped to rank >= 1.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

Tail resolved_tail(const std::vector<double>& samples) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const std::size_t beyond = samples_beyond(samples.size(), q);
    if (beyond >= 10) {
      t.q = q;
      t.beyond = beyond;
      t.value = percentile(samples, q);
      return t;
    }
  }
  t.value = *std::max_element(samples.begin(), samples.end());
  return t;
}

std::string Row::str() const {
  return circuit + " (" + std::to_string(la) + "," + std::to_string(lb) +
         "," + std::to_string(n) + ") ncyc0=" + std::to_string(ncyc0) + " " +
         std::to_string(detected) + "/" + std::to_string(targets) +
         (complete ? " complete" : " incomplete") +
         " attempts=" + std::to_string(attempts) +
         " apps=" + std::to_string(applications) +
         " cycles=" + std::to_string(total_cycles);
}

Row row_of(const rls::svc::CampaignResponse& resp) {
  return Row{resp.circuit,      resp.la,       resp.lb,
             resp.n,            resp.ncyc0,    resp.complete,
             resp.detected,     resp.targets,  resp.attempts,
             resp.applications, resp.total_cycles};
}

Envelope parse_envelope(std::string_view line) {
  const JsonObject obj = rls::svc::parse_json_object(line, "envelope");
  Envelope env;
  env.id = require(obj, "id", JsonValue::Kind::kString).s;
  env.ok = require(obj, "ok", JsonValue::Kind::kBool).b;
  env.coalesced = require(obj, "coalesced", JsonValue::Kind::kBool).b;
  if (!env.ok) {
    env.error = require(obj, "error", JsonValue::Kind::kString).s;
    if (const JsonValue* code = find(obj, "error_code")) env.error_code = code->s;
    return env;
  }
  Row& r = env.row;
  r.circuit = require(obj, "circuit", JsonValue::Kind::kString).s;
  r.la = uint_field(obj, "la");
  r.lb = uint_field(obj, "lb");
  r.n = uint_field(obj, "n");
  r.ncyc0 = uint_field(obj, "ncyc0");
  r.complete = require(obj, "complete", JsonValue::Kind::kBool).b;
  r.detected = uint_field(obj, "detected");
  r.targets = uint_field(obj, "targets");
  r.attempts = uint_field(obj, "attempts");
  r.applications = uint_field(obj, "applications");
  r.total_cycles = uint_field(obj, "total_cycles");
  return env;
}

StreamTimes parse_stream(std::string_view jsonl) {
  StreamTimes t;
  std::size_t line_no = 0;
  while (!jsonl.empty()) {
    const std::size_t nl = jsonl.find('\n');
    const std::string_view line = jsonl.substr(0, nl);
    jsonl = nl == std::string_view::npos ? std::string_view{}
                                         : jsonl.substr(nl + 1);
    ++line_no;
    if (line.empty()) continue;
    const JsonObject obj = rls::svc::parse_json_object(
        line, "stream line " + std::to_string(line_no));
    const JsonValue* ev = find(obj, "ev");
    if (ev == nullptr || ev->kind != JsonValue::Kind::kString) {
      throw std::runtime_error("stream line " + std::to_string(line_no) +
                               " has no \"ev\" name");
    }
    if (ev->s == "ts0") {
      t.ts0_ms += number_field(obj, "wall_ms");
      ++t.ts0_events;
    } else if (ev->s == "sweep") {
      t.sweep_ms += number_field(obj, "wall_ms");
      ++t.sweeps;
    } else if (ev->s == "id1_pair") {
      ++t.id1_pairs;
    } else if (ev->s == "cache_hit") {
      ++t.cache_hits;
    } else if (ev->s == "result") {
      t.result_ms = number_field(obj, "wall_ms");
      t.has_result = true;
    }
  }
  return t;
}

}  // namespace rlsbench
