#include "svc/request.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>

#include "fault/seq_fsim.hpp"
#include "store/serde.hpp"
#include "svc/json.hpp"

namespace rls::svc {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

void append_field_name(std::string& out, std::string_view name) {
  append_json_string(out, name);
  out.push_back(':');
}

/// Range-checks an unsigned value against [lo, max(T)] and narrows it to
/// T. Every narrowed request field goes through here, so an out-of-range
/// value is a typed error naming the field instead of a silent wrap
/// (4294967296 must not become 0, nor 4294967295 become int -1).
template <typename T>
T in_range(std::uint64_t v, const std::string& name, const std::string& origin,
           std::uint64_t lo = 0) {
  constexpr auto hi = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  if (v < lo || v > hi) {
    throw RequestError(origin + ": field \"" + name + "\" must be in [" +
                       std::to_string(lo) + ", " + std::to_string(hi) +
                       "], got " + std::to_string(v));
  }
  return static_cast<T>(v);
}

/// Reads an unsigned integer field, range-checked into T.
template <typename T = std::uint64_t>
T get_uint(const JsonValue& v, const std::string& name,
           const std::string& origin) {
  if (v.kind != JsonValue::Kind::kUint) {
    throw RequestError(origin + ": field \"" + name +
                       "\" must be an unsigned integer");
  }
  return in_range<T>(v.u, name, origin);
}

bool get_bool(const JsonValue& v, const std::string& name,
              const std::string& origin) {
  if (v.kind != JsonValue::Kind::kBool) {
    throw RequestError(origin + ": field \"" + name + "\" must be a boolean");
  }
  return v.b;
}

const std::string& get_string(const JsonValue& v, const std::string& name,
                              const std::string& origin) {
  if (v.kind != JsonValue::Kind::kString) {
    throw RequestError(origin + ": field \"" + name + "\" must be a string");
  }
  return v.s;
}

}  // namespace

std::string CampaignRequest::canonical_json() const {
  std::string out = "{";
  append_field_name(out, "schema");
  append_u64(out, kSchemaVersion);
  out += ',';
  append_field_name(out, "id");
  append_json_string(out, id);
  out += ',';
  append_field_name(out, "circuit");
  append_json_string(out, circuit);
  const auto uint_field = [&out](std::string_view name, std::uint64_t v) {
    out += ',';
    append_field_name(out, name);
    append_u64(out, v);
  };
  const auto bool_field = [&out](std::string_view name, bool v) {
    out += ',';
    append_field_name(out, name);
    out += v ? "true" : "false";
  };
  uint_field("la", la);
  uint_field("lb", lb);
  uint_field("n", n);
  out += ',';
  append_field_name(out, "engine");
  append_json_string(out, fault::engine_name(options.p2.engine));
  uint_field("threads", options.p2.sim_threads);
  uint_field("combo_jobs", options.combo_jobs);
  out += ',';
  append_field_name(out, "d1_order");
  out += '[';
  for (std::size_t i = 0; i < options.p2.d1_order.size(); ++i) {
    if (i > 0) out += ',';
    append_u64(out, options.p2.d1_order[i]);
  }
  out += ']';
  uint_field("n_same_fc", options.p2.n_same_fc);
  uint_field("max_iterations", options.p2.max_iterations);
  uint_field("base_seed", options.p2.base_seed);
  bool_field("reseed_per_test", options.p2.reseed_per_test);
  uint_field("detect_rounds", options.detect.random_rounds);
  uint_field("detect_seed", options.detect.seed);
  uint_field("backtrack_limit",
             static_cast<std::uint64_t>(options.detect.backtrack_limit));
  uint_field("max_combos_on_failure", options.max_combos_on_failure);
  uint_field("max_attempts", options.max_attempts);
  bool_field("prune_untestable", options.prune_untestable);
  bool_field("timing", timing);
  uint_field("priority", priority);
  uint_field("deadline_ms", deadline_ms);
  out += '}';
  return out;
}

std::string CancelLine::canonical_json() const {
  std::string out = "{";
  append_field_name(out, "schema");
  append_u64(out, CampaignRequest::kSchemaVersion);
  out += ',';
  append_field_name(out, "cancel");
  append_json_string(out, target);
  out += '}';
  return out;
}

CampaignRequest parse_request(std::string_view text,
                              const std::string& origin) {
  const JsonObject obj = parse_json_object(text, origin);
  CampaignRequest req;
  std::optional<std::uint32_t> schema;
  std::string zero_pinned;  // an la/lb/n field given as 0
  for (const auto& [name, value] : obj) {
    if (name == "schema") {
      schema = get_uint<std::uint32_t>(value, name, origin);
    } else if (name == "id") {
      req.id = get_string(value, name, origin);
    } else if (name == "circuit") {
      req.circuit = get_string(value, name, origin);
    } else if (name == "la" || name == "lb" || name == "n") {
      std::uint64_t& field =
          name == "la" ? req.la : (name == "lb" ? req.lb : req.n);
      field = get_uint(value, name, origin);
      if (field == 0) zero_pinned = name;
    } else if (name == "engine") {
      const std::string& engine = get_string(value, name, origin);
      const std::optional<fault::Engine> e = fault::parse_engine(engine);
      if (!e) {
        throw RequestError(origin + ": \"engine\" expects one of " +
                           fault::engine_choices() + ", got \"" + engine +
                           "\"");
      }
      req.options.p2.engine = *e;
    } else if (name == "threads") {
      req.options.p2.sim_threads = get_uint<unsigned>(value, name, origin);
    } else if (name == "combo_jobs") {
      req.options.combo_jobs = get_uint<unsigned>(value, name, origin);
    } else if (name == "d1_order") {
      if (value.kind != JsonValue::Kind::kArray) {
        throw RequestError(origin +
                           ": field \"d1_order\" must be an array of "
                           "unsigned integers");
      }
      if (value.arr.empty()) {
        throw RequestError(origin + ": \"d1_order\" must not be empty");
      }
      req.options.p2.d1_order.clear();
      for (std::size_t i = 0; i < value.arr.size(); ++i) {
        // D_1 counts shift cycles per limited scan operation: >= 1.
        req.options.p2.d1_order.push_back(in_range<std::uint32_t>(
            value.arr[i], "d1_order[" + std::to_string(i) + "]", origin, 1));
      }
    } else if (name == "n_same_fc") {
      req.options.p2.n_same_fc = get_uint<std::uint32_t>(value, name, origin);
    } else if (name == "max_iterations") {
      req.options.p2.max_iterations =
          get_uint<std::uint32_t>(value, name, origin);
    } else if (name == "base_seed") {
      req.options.p2.base_seed = get_uint(value, name, origin);
    } else if (name == "reseed_per_test") {
      req.options.p2.reseed_per_test = get_bool(value, name, origin);
    } else if (name == "detect_rounds") {
      req.options.detect.random_rounds =
          get_uint<std::size_t>(value, name, origin);
    } else if (name == "detect_seed") {
      req.options.detect.seed = get_uint(value, name, origin);
    } else if (name == "backtrack_limit") {
      req.options.detect.backtrack_limit = get_uint<int>(value, name, origin);
    } else if (name == "max_combos_on_failure") {
      req.options.max_combos_on_failure =
          get_uint<std::size_t>(value, name, origin);
    } else if (name == "max_attempts") {
      req.options.max_attempts = get_uint<std::size_t>(value, name, origin);
    } else if (name == "prune_untestable") {
      req.options.prune_untestable = get_bool(value, name, origin);
    } else if (name == "timing") {
      req.timing = get_bool(value, name, origin);
    } else if (name == "priority") {
      req.priority = get_uint(value, name, origin);
    } else if (name == "deadline_ms") {
      req.deadline_ms = get_uint(value, name, origin);
    } else {
      throw RequestError(origin + ": unknown field \"" + name +
                         "\" (schema v" + std::to_string(
                             CampaignRequest::kSchemaVersion) +
                         " rejects unrecognized fields)");
    }
  }
  if (!schema) {
    throw RequestError(origin + ": missing required field \"schema\"");
  }
  if (*schema > CampaignRequest::kSchemaVersion) {
    throw RequestError(origin + ": schema v" + std::to_string(*schema) +
                       " is newer than this binary (supports <= v" +
                       std::to_string(CampaignRequest::kSchemaVersion) + ")");
  }
  if (req.circuit.empty()) {
    throw RequestError(origin + ": missing required field \"circuit\"");
  }
  const bool any = (req.la != 0) || (req.lb != 0) || (req.n != 0);
  const bool all = (req.la != 0) && (req.lb != 0) && (req.n != 0);
  if (any && !all) {
    if (!zero_pinned.empty()) {
      throw RequestError(origin + ": field \"" + zero_pinned +
                         "\" must be >= 1 when pinning a combination "
                         "(omit la, lb and n for the first-complete sweep)");
    }
    throw RequestError(origin +
                       ": la/lb/n pin a single combination and must be "
                       "given together (or all omitted for the "
                       "first-complete sweep)");
  }
  return req;
}

ParsedLine parse_line(std::string_view text, const std::string& origin) {
  ParsedLine line;
  const JsonObject obj = parse_json_object(text, origin);
  const bool is_cancel =
      std::any_of(obj.begin(), obj.end(),
                  [](const auto& f) { return f.first == "cancel"; });
  if (!is_cancel) {
    line.request = parse_request(text, origin);
    return line;
  }
  CancelLine cancel;
  std::optional<std::uint32_t> schema;
  for (const auto& [name, value] : obj) {
    if (name == "schema") {
      schema = get_uint<std::uint32_t>(value, name, origin);
    } else if (name == "cancel") {
      cancel.target = get_string(value, name, origin);
    } else {
      throw RequestError(origin + ": unknown field \"" + name +
                         "\" in cancel line (only \"schema\" and "
                         "\"cancel\" are allowed)");
    }
  }
  if (schema && *schema > CampaignRequest::kSchemaVersion) {
    throw RequestError(origin + ": schema v" + std::to_string(*schema) +
                       " is newer than this binary (supports <= v" +
                       std::to_string(CampaignRequest::kSchemaVersion) + ")");
  }
  if (cancel.target.empty()) {
    throw RequestError(origin + ": \"cancel\" must name a request id");
  }
  line.cancel = std::move(cancel);
  return line;
}

std::uint64_t coalesce_key(const CampaignRequest& req) {
  CampaignRequest identity = req;
  identity.id.clear();
  identity.options.p2.sim_threads = 0;
  identity.options.combo_jobs = 1;
  identity.priority = 0;
  identity.deadline_ms = 0;
  const std::string canon = identity.canonical_json();
  return store::fnv1a64(canon.data(), canon.size());
}

std::string CampaignResponse::to_json() const {
  std::string out = "{";
  append_field_name(out, "schema");
  append_u64(out, kSchemaVersion);
  out += ',';
  append_field_name(out, "id");
  append_json_string(out, id);
  out += ',';
  append_field_name(out, "ok");
  out += ok ? "true" : "false";
  if (!ok) {
    out += ',';
    append_field_name(out, "error");
    append_json_string(out, error);
    if (!error_code.empty()) {
      out += ',';
      append_field_name(out, "error_code");
      append_json_string(out, error_code);
    }
    if (retry_after_hint > 0) {
      out += ',';
      append_field_name(out, "retry_after_hint");
      append_u64(out, retry_after_hint);
    }
  }
  out += ',';
  append_field_name(out, "coalesced");
  out += coalesced ? "true" : "false";
  if (ok) {
    out += ',';
    append_field_name(out, "circuit");
    append_json_string(out, circuit);
    const auto uint_field = [&out](std::string_view name, std::uint64_t v) {
      out += ',';
      append_field_name(out, name);
      append_u64(out, v);
    };
    uint_field("la", la);
    uint_field("lb", lb);
    uint_field("n", n);
    uint_field("ncyc0", ncyc0);
    out += ',';
    append_field_name(out, "complete");
    out += complete ? "true" : "false";
    uint_field("detected", detected);
    uint_field("targets", targets);
    uint_field("attempts", attempts);
    uint_field("applications", applications);
    uint_field("total_cycles", total_cycles);
  }
  out += '}';
  return out;
}

CampaignResponse error_response(RequestId id, std::string what,
                                const char* code, std::uint64_t retry_hint) {
  CampaignResponse resp;
  resp.id = std::move(id);
  resp.ok = false;
  resp.error = std::move(what);
  resp.error_code = code;
  resp.retry_after_hint = retry_hint;
  return resp;
}

bool write_stream_file(const std::string& dir, const CampaignResponse& resp) {
  if (dir.empty() || !resp.ok) return true;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
  std::string name = resp.id;
  std::replace(name.begin(), name.end(), '/', '_');
  std::ofstream out(dir + "/" + name + ".jsonl",
                    std::ios::binary | std::ios::trunc);
  out.write(resp.stream.data(),
            static_cast<std::streamsize>(resp.stream.size()));
  return out.good();
}

}  // namespace rls::svc
