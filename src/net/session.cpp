#include "net/session.hpp"

#include <utility>

namespace rls::net {

Session::Session(svc::CampaignService& service, std::string origin,
                 std::size_t max_line_bytes, CountFn count)
    : service_(service),
      origin_(std::move(origin)),
      count_(std::move(count)),
      splitter_(max_line_bytes) {}

bool Session::feed(std::string_view bytes) {
  if (std::lock_guard<std::mutex> lk(mu_); closed_) return false;
  try {
    splitter_.feed(bytes, [this](std::string_view line) { dispatch(line); });
    return true;
  } catch (const FrameError& e) {
    count("net.frame_errors");
    push_error("line" + std::to_string(lines_ + 1), e.what(),
               svc::error_code::kFrame);
    close();
    return false;
  }
}

void Session::finish() {
  if (std::lock_guard<std::mutex> lk(mu_); closed_) return;
  if (const auto last = splitter_.finish()) dispatch(*last);
  close();
}

void Session::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

void Session::dispatch(std::string_view line) {
  ++lines_;
  if (line.find_first_not_of(" \t\r") == std::string_view::npos) return;
  const std::string lineno = std::to_string(lines_);
  try {
    svc::ParsedLine parsed = svc::parse_line(line, origin_ + ":" + lineno);
    if (parsed.cancel) {
      count("net.cancels");
      service_.cancel(parsed.cancel->target);
      return;
    }
    count("net.requests");
    push(service_.submit(std::move(*parsed.request)));
  } catch (const svc::QueueFullError& e) {  // counted before submit()
    push_error(e.id, e.what(), svc::error_code::kQueueFull,
               e.retry_after_hint);
  } catch (const svc::ServiceStoppedError& e) {
    push_error("line" + lineno, e.what(), svc::error_code::kDrained, 25);
  } catch (const std::exception& e) {
    // Parse / validation errors (RequestError, JsonError).
    count("net.requests");
    push_error("line" + lineno, e.what(), svc::error_code::kRequest);
  }
}

void Session::push_error(svc::RequestId id, std::string what,
                         const char* code, std::uint64_t retry_hint) {
  std::promise<svc::CampaignResponse> ready;
  ready.set_value(
      svc::error_response(std::move(id), std::move(what), code, retry_hint));
  push(ready.get_future().share());
}

void Session::push(std::shared_future<svc::CampaignResponse> fut) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(fut));
  }
  cv_.notify_all();
}

Session::Next Session::next(svc::CampaignResponse& out,
                            std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::shared_future<svc::CampaignResponse> front;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_until(lk, deadline, [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return closed_ ? Next::kDone : Next::kTimeout;
    front = queue_.front();
  }
  // Only the consumer pops, so the front cannot change while we wait.
  if (front.wait_until(deadline) != std::future_status::ready) {
    return Next::kTimeout;
  }
  out = front.get();
  std::lock_guard<std::mutex> lk(mu_);
  queue_.pop_front();
  return Next::kEnvelope;
}

std::size_t Session::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

}  // namespace rls::net
