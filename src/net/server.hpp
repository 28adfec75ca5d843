// NetServer — the TCP front end of the campaign service (DESIGN.md §16).
//
// A dependency-free POSIX-sockets NDJSON server layered on
// svc::CampaignService. Each connection is one net::Session — the same
// Session `rls serve` runs on stdin — so the wire protocol, the typed
// error envelopes and the response order are those of stdin: one
// CampaignRequest (or cancel control line) per line in, one
// CampaignResponse envelope per line out, in per-connection admission
// order. Because the service coalesces across submitters, N connections
// asking for the same campaign still run it once — the transport adds no
// new semantics, only reach.
//
// Threading model (per connection, both joined by the reaper):
//   * a reader thread: recv → Session::feed (framing, parse_line,
//     submit() / cancel(), typed error envelopes in the request's slot).
//   * a writer thread: Session::next pops envelopes in order as they
//     resolve, serializes each + '\n' and sends it with non-blocking
//     writes. Bytes a slow client has not accepted accumulate in a
//     bounded buffer; past max_write_buffer the connection is
//     disconnected with a typed overflow (net.overflow_disconnects) — a
//     dead client never blocks the scheduler or pins unbounded memory.
//
// Observability: net.* counters (accepted, disconnects,
// overflow_disconnects, requests, responses, cancels, frame_errors,
// bytes_in, bytes_out) and, when a TraceSink is attached, `net_conn`
// open/close events and a `net_rr` event per request/response pair.
// The sink is shared across connection threads and mutex-guarded here —
// per-request campaign streams never flow through it (they go to
// stream_dir files, exactly like `rls serve --stream-dir`).
//
// Shutdown: drain() stops accepting and reading, lets the service
// resolve everything already admitted, flushes each connection's
// pending responses (bounded by drain_flush_ms per connection), closes,
// and joins every thread. The CLI calls service.drain() first, then
// server.drain() — queued-but-unclaimed requests resolve with typed
// "drained" envelopes that flush like any other response.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"

namespace rls::net {

class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct NetConfig {
  /// Listen address (IPv4 dotted quad or a resolvable name).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (see NetServer::port()).
  std::uint16_t port = 0;
  int backlog = 64;
  /// Hard cap on one NDJSON request line (FrameError::kOversize beyond).
  std::size_t max_line_bytes = 1 << 20;
  /// Per-connection cap on un-acked response bytes before a typed
  /// overflow disconnect.
  std::size_t max_write_buffer = 4u << 20;
  /// Writer poll cadence (liveness checks while blocked on a future or
  /// a full socket).
  unsigned poll_interval_ms = 50;
  /// Per-connection budget for flushing pending responses during drain.
  unsigned drain_flush_ms = 5000;
  /// When set, each request's JSONL event stream is written to
  /// "<stream_dir>/<id>.jsonl" ('/' in ids mapped to '_'), matching
  /// `rls serve --stream-dir`.
  std::string stream_dir;
  /// SO_SNDBUF for accepted sockets (0 = kernel default). Tests shrink
  /// it to force the slow-reader overflow path deterministically.
  int send_buffer_bytes = 0;
};

class NetServer {
 public:
  /// Binds and starts accepting immediately. Throws NetError when the
  /// socket cannot be bound. The service must outlive the server.
  NetServer(svc::CampaignService& service, NetConfig cfg);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (resolves an ephemeral cfg.port = 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Attaches a sink for net_conn / net_rr events. Call before clients
  /// connect; the sink must outlive the server. Mutex-guarded writes.
  void set_sink(obs::TraceSink* sink);

  /// Graceful drain + full teardown (idempotent; also the destructor).
  /// Stops accepting, stops reading, flushes pending responses with a
  /// per-connection deadline, closes and joins everything.
  void shutdown();

  /// Snapshot of the net.* counters.
  [[nodiscard]] obs::CounterRegistry counters() const;

  /// Currently open connections (reaped lazily; testing aid).
  [[nodiscard]] std::size_t active_connections() const;

 private:
  struct Connection;

  void accept_loop();
  void reader_loop(Connection& conn);
  void writer_loop(Connection& conn);
  void reap_finished();
  void count(const char* name, std::uint64_t delta = 1);
  void emit_conn(std::uint64_t conn_id, const char* action,
                 const std::string& reason);
  void emit_rr(std::uint64_t conn_id, const svc::RequestId& id, bool ok);

  svc::CampaignService& service_;
  NetConfig cfg_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;

  mutable std::mutex mu_;  ///< counters_ + connections_ + next_conn_id_
  obs::CounterRegistry counters_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 0;

  std::mutex sink_mu_;
  obs::TraceSink* sink_ = nullptr;
};

}  // namespace rls::net
