// CampaignService — queued concurrent campaign execution over a shared
// sharded artifact store (DESIGN.md §12).
//
// The service owns three pieces:
//   * a bounded admission queue — submit() returns a future, or throws
//     the typed QueueFullError when the queue is at capacity (callers
//     never hang on admission);
//   * an execution scheduler — a dedicated thread drives
//     sim::WorkerPool::run_tasks(workers, step), each worker claiming
//     queued executions until shutdown;
//   * a shared store::ArtifactStore (sharded layout) + per-execution
//     store::CampaignStore bindings, with an optional round-robin
//     per-shard gc byte budget applied after each execution.
//
// Single-flight dedup: requests whose coalesce_key() matches an
// execution that is queued or in flight attach as subscribers instead of
// occupying a queue slot — one campaign runs, every subscriber receives
// the same result row and the same byte-exact JSONL stream. Counters
// (svc.queued / svc.admitted / svc.coalesced / svc.rejected /
// svc.cancelled / svc.deadline_expired / svc.gc_evictions, plus the
// merged per-execution fsim.*/store.* registries) make the dedup
// observable and testable.
//
// Scheduling (schema 2, PR 10): the admission queue is a *stable
// priority queue* — executions sorted by descending priority, admission
// order within a priority (a coalescing subscriber with a higher
// priority promotes the queued execution). Cancellation and deadlines
// are queue-level: cancel(id) aborts a still-queued subscriber with a
// typed "cancelled" response, and a subscriber whose deadline_ms has
// passed when a worker claims its execution gets a typed
// "deadline_exceeded" response; once a worker claims an execution it
// always runs to completion (coalescing semantics stay intact, and a
// claimed run always reaches its terminal checkpoint).
//
// Determinism: executions run with wall-clock stamping off unless the
// request opts in, so a response stream is byte-identical to a solo
// `rls run` of the same options against the same store state.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"
#include "obs/counters.hpp"
#include "obs/progress.hpp"
#include "sim/worker_pool.hpp"
#include "store/artifact_store.hpp"
#include "svc/request.hpp"

namespace rls::svc {

struct ServiceConfig {
  /// Artifact store directory; empty disables persistence entirely.
  std::string store_dir;
  /// Concurrent campaign executions (0 = hardware concurrency).
  unsigned workers = 1;
  /// Admission queue capacity (leaders only; coalesced subscribers do
  /// not occupy slots). Must be nonzero — a service that can admit
  /// nothing is a misconfiguration, rejected in the constructor.
  std::size_t queue_capacity = 64;
  /// Adopt partial checkpoints from the store (killed-serve recovery).
  bool resume = false;
  /// Per-shard gc byte budget, applied round-robin one shard after each
  /// execution (0 = never collect).
  std::uint64_t gc_shard_bytes = 0;
  /// Spawn the scheduler in the constructor. Tests set false, enqueue a
  /// deterministic backlog, then call start().
  bool autostart = true;
};

/// Loads a circuit by registry name (s27, s208, ...) or, failing that, from
/// a readable ISCAS-89 .bench file. Throws RequestError naming `which`
/// when it is neither. Shared by the service and every `rls` subcommand.
netlist::Netlist load_circuit(const std::string& which);

/// Typed admission rejection: the queue was full at submit() time.
/// Carries a deterministic back-off hint (proportional to the queue
/// depth at rejection) that the service surfaces as the envelope's
/// `retry_after_hint` field.
class QueueFullError : public std::runtime_error {
 public:
  QueueFullError(RequestId request_id, std::uint64_t retry_hint_ms)
      : std::runtime_error("campaign service queue is full (request \"" +
                           request_id + "\" rejected)"),
        id(std::move(request_id)),
        retry_after_hint(retry_hint_ms) {}
  const RequestId id;
  const std::uint64_t retry_after_hint;  ///< suggested back-off (ms)
};

/// Submitting to a service that is shutting down.
class ServiceStoppedError : public std::runtime_error {
 public:
  ServiceStoppedError()
      : std::runtime_error("campaign service is shutting down") {}
};

class CampaignService {
 public:
  explicit CampaignService(ServiceConfig cfg);
  ~CampaignService();
  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Spawns the scheduler (idempotent; no-op after shutdown()).
  void start();

  /// Admits one request (assigning an id if empty) and returns the future
  /// response. Coalesces with a queued/in-flight execution of the same
  /// coalesce_key() when possible. Throws QueueFullError /
  /// ServiceStoppedError; never blocks on admission. The optional
  /// progress observer is leader-only and best-effort (it must outlive
  /// the execution).
  std::shared_future<CampaignResponse> submit(
      CampaignRequest req, obs::ProgressObserver* progress = nullptr);

  /// Admits a whole batch under one admission lock — duplicate keys
  /// inside the batch coalesce deterministically regardless of worker
  /// timing. A rejected request yields an immediate error response
  /// future instead of throwing.
  std::vector<std::shared_future<CampaignResponse>> submit_batch(
      std::vector<CampaignRequest> reqs);

  /// submit() + wait: the synchronous path `rls run` uses.
  CampaignResponse run(CampaignRequest req,
                       obs::ProgressObserver* progress = nullptr);

  /// Outcome of cancel(): the subscriber was still queued and is now
  /// resolved with a typed "cancelled" response; already claimed by a
  /// worker (it will finish normally); or unknown.
  enum class CancelResult { kCancelled, kRunning, kNotFound };

  /// Queue-level cancellation by request id. Removes the subscriber from
  /// its queued execution (the execution itself is dequeued when it has
  /// no subscribers left) and resolves its future with a typed
  /// "cancelled" error envelope.
  CancelResult cancel(const RequestId& id);

  /// Graceful drain: stop admitting, resolve every queued-but-unclaimed
  /// request with a typed "drained" error (retry_after_hint set), let
  /// claimed executions finish (terminal checkpoints land in the store,
  /// so a restart with resume=true replays them), then park the workers
  /// and join the scheduler. Idempotent.
  void drain();

  /// drain() with the "stopped" error code — the destructor path.
  void shutdown();

  /// Leader ids of the queued (unclaimed) executions, in the order a
  /// worker would claim them. Introspection for tests and ops tooling.
  [[nodiscard]] std::vector<RequestId> queued_order() const;

  /// Snapshot of the service counters (svc.* + merged execution
  /// registries).
  [[nodiscard]] obs::CounterRegistry counters() const;

  /// The shared store (null when store_dir is empty).
  [[nodiscard]] store::ArtifactStore* artifact_store() noexcept {
    return astore_.get();
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  struct Subscriber {
    RequestId id;
    bool coalesced = false;
    obs::ProgressObserver* progress = nullptr;
    /// Queue-level deadline (admission time + deadline_ms); checked when
    /// a worker claims the execution. No deadline when !has_deadline.
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    std::shared_ptr<std::promise<CampaignResponse>> promise;
    std::shared_future<CampaignResponse> future;
  };
  struct Execution {
    std::uint64_t key = 0;
    CampaignRequest req;      ///< the leader's request defines the run
    RequestId leader_id;      ///< fixed at creation (RunContext scope)
    std::uint64_t priority = 0;  ///< max over subscribers (promotion)
    std::uint64_t seq = 0;       ///< admission order (stability tie-break)
    obs::ProgressObserver* progress = nullptr;  ///< leader-only
    std::vector<Subscriber> subscribers;        ///< guarded by mu_
  };

  std::shared_future<CampaignResponse> submit_locked(
      CampaignRequest&& req, obs::ProgressObserver* progress);
  /// Inserts into queue_ keeping (priority desc, seq asc) order.
  void enqueue_locked(std::shared_ptr<Execution> ex);
  /// Re-sorts a queued execution after a priority promotion.
  void promote_locked(const std::shared_ptr<Execution>& ex,
                      std::uint64_t priority);
  bool step(unsigned worker);
  CampaignResponse execute(const Execution& ex);
  void finish(const std::shared_ptr<Execution>& ex, CampaignResponse base);
  void collect_one_shard();
  /// Shared drain/shutdown: `code` becomes the error_code of every
  /// queued-but-unclaimed subscriber's typed response.
  void stop(const char* code);

  ServiceConfig cfg_;
  std::unique_ptr<store::ArtifactStore> astore_;
  sim::WorkerPool pool_;
  std::thread scheduler_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Stable priority queue: sorted by (priority desc, seq asc).
  std::deque<std::shared_ptr<Execution>> queue_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Execution>> inflight_;
  obs::CounterRegistry counters_;
  std::uint64_t next_id_ = 0;
  std::uint64_t next_seq_ = 0;
  unsigned gc_cursor_ = 0;
  bool started_ = false;
  bool stopping_ = false;
};

}  // namespace rls::svc
