// Trace events and sinks — the telemetry half of the RLS front door.
//
// A TraceEvent is a typed record: an event name plus an *ordered* list of
// key/value fields. Field order is part of the schema — sinks serialize
// fields exactly in emission order, so two runs that emit the same events
// produce byte-identical streams (the determinism contract the paper's
// hardware repeatability argument extends to our telemetry).
//
// Sinks are deliberately dumb: they receive finished events and write
// them somewhere. JsonlSink renders one JSON object per line with a
// stable number format; VectorSink retains events for tests; NullSink
// drops everything (the disabled path — callers normally skip event
// construction entirely when no sink is attached, see RunContext).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

namespace rls::obs {

/// One field value. Unsigned counters dominate; doubles carry ratios and
/// wall times; strings carry names (circuit, phase).
using Value = std::variant<std::uint64_t, std::int64_t, double, bool,
                           std::string>;

struct TraceEvent {
  std::string type;  ///< event name, serialized as the "ev" field
  std::vector<std::pair<std::string, Value>> fields;

  explicit TraceEvent(std::string t) : type(std::move(t)) {}

  /// Builder-style field appenders (order of calls == serialized order).
  TraceEvent& u64(std::string key, std::uint64_t v) {
    return add<std::uint64_t>(std::move(key), v);
  }
  TraceEvent& i64(std::string key, std::int64_t v) {
    return add<std::int64_t>(std::move(key), v);
  }
  TraceEvent& f64(std::string key, double v) {
    return add<double>(std::move(key), v);
  }
  TraceEvent& boolean(std::string key, bool v) {
    return add<bool>(std::move(key), v);
  }
  TraceEvent& str(std::string key, std::string v) {
    return add<std::string>(std::move(key), std::move(v));
  }

 private:
  /// Builds the field in place: moving a temporary Value into the pair
  /// trips GCC 12's -Wmaybe-uninitialized on the inactive alternatives.
  template <typename T, typename Arg>
  TraceEvent& add(std::string&& key, Arg&& v) {
    fields.emplace_back(std::piecewise_construct,
                        std::forward_as_tuple(std::move(key)),
                        std::forward_as_tuple(std::in_place_type<T>,
                                              std::forward<Arg>(v)));
    return *this;
  }
};

/// Serializes one event as a single-line JSON object:
///   {"ev":"<type>","k1":v1,...}
/// Numbers use a locale-independent fixed format ("%.6g" for doubles), so
/// the rendering is deterministic for deterministic inputs.
std::string to_jsonl(const TraceEvent& ev);

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceEvent& ev) = 0;
  /// Flushes buffered output (called at end of run; optional).
  virtual void flush() {}
};

/// Drops every event. Exists so "attach a sink" code paths can be
/// exercised without output; the truly-disabled path is a null pointer.
class NullSink final : public TraceSink {
 public:
  void write(const TraceEvent&) override {}
};

/// Retains events in memory — the test sink.
class VectorSink final : public TraceSink {
 public:
  void write(const TraceEvent& ev) override { events_.push_back(ev); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// JSON-lines sink over a file. Owns the handle when opened by path.
class JsonlSink final : public TraceSink {
 public:
  /// Opens `path` for writing (truncates). Throws std::runtime_error on
  /// failure.
  explicit JsonlSink(const std::string& path);
  /// Adopts an already-open stream (not closed on destruction) — used by
  /// tests and by `--trace -` (stdout).
  explicit JsonlSink(std::FILE* stream);
  ~JsonlSink() override;

  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  void write(const TraceEvent& ev) override;
  void flush() override;

 private:
  std::FILE* out_ = nullptr;
  bool owned_ = false;
};

}  // namespace rls::obs
