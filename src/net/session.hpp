// Session — one NDJSON request stream into the campaign service and its
// ordered envelope stream back out (DESIGN.md §16). Both `rls serve`
// front doors are a Session: stdin is one, and so is each NetServer
// connection. It alone owns the work from bytes to envelopes:
//   * framing — a LineSplitter; a FrameError poisons the rest of the
//     stream, so it queues one typed `frame` envelope with id "line<N>"
//     (N = the line being framed) and closes input;
//   * dispatch — lines are numbered from 1; blank lines (spaces, tabs,
//     '\r') get no envelope; every other line goes through
//     svc::parse_line (origin "<origin>:<N>") to submit() or to cancel(),
//     which takes no slot (the outcome shows on the target's envelope);
//   * typed errors in the offending line's slot — `request` and
//     `drained` with id "line<N>", `queue_full` with the request's id;
//   * the response queue — envelopes come out in admission order, each
//     as soon as it and every earlier one have resolved.
// One producer (feed/finish/close) and one consumer (next) may run
// concurrently. Sockets, stdout and stream files stay with the caller.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <string_view>

#include "net/framing.hpp"
#include "svc/service.hpp"

namespace rls::net {

class Session {
 public:
  /// Counter hook, called with "net.requests" (each non-blank,
  /// non-cancel line), "net.cancels" and "net.frame_errors".
  using CountFn = std::function<void(const char* name)>;

  /// `origin` prefixes line numbers in error prose ("stdin", "conn3").
  /// The service must outlive the session.
  Session(svc::CampaignService& service, std::string origin,
          std::size_t max_line_bytes, CountFn count = {});

  /// Frames and dispatches a chunk of input. Returns false once input is
  /// closed (by a frame error or earlier) — stop reading.
  bool feed(std::string_view bytes);
  /// End of input: dispatches a final unterminated line, then closes.
  void finish();
  /// Closes input, dropping a buffered partial line (stop paths).
  /// Envelopes already owed still come out of next().
  void close();

  enum class Next { kEnvelope, kTimeout, kDone };
  /// Waits up to `timeout` for the oldest owed envelope to resolve and
  /// moves it into `out`. kDone once input is closed and all are out.
  Next next(svc::CampaignResponse& out, std::chrono::milliseconds timeout);
  /// Envelopes owed, resolved or not.
  [[nodiscard]] std::size_t pending() const;

 private:
  void dispatch(std::string_view line);
  void push_error(svc::RequestId id, std::string what, const char* code,
                  std::uint64_t retry_hint = 0);
  void push(std::shared_future<svc::CampaignResponse> fut);
  void count(const char* name) const {
    if (count_) count_(name);
  }

  svc::CampaignService& service_;
  const std::string origin_;
  const CountFn count_;
  LineSplitter splitter_;    ///< producer-only
  std::uint64_t lines_ = 0;  ///< producer-only

  mutable std::mutex mu_;  ///< queue_ + closed_
  std::condition_variable cv_;
  std::deque<std::shared_future<svc::CampaignResponse>> queue_;
  bool closed_ = false;
};

}  // namespace rls::net
