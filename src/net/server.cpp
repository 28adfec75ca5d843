#include "net/server.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/session.hpp"

namespace rls::net {

namespace {

std::string errno_text() { return std::strerror(errno); }

}  // namespace

struct NetServer::Connection {
  std::uint64_t id = 0;
  int fd = -1;
  std::thread reader, writer;
  /// The reader feeds it; the writer pops envelopes from it.
  std::unique_ptr<Session> session;

  /// Set by the writer when it force-closed the socket (overflow, peer
  /// reset, drain timeout): tells the reader to stop even mid-stream.
  std::atomic<bool> dead{false};
  std::atomic<bool> reader_exited{false};
  std::atomic<bool> writer_exited{false};
};

NetServer::NetServer(svc::CampaignService& service, NetConfig cfg)
    : service_(service), cfg_(std::move(cfg)) {
  if (::pipe(wake_pipe_) != 0) {
    throw NetError("cannot create wake pipe: " + errno_text());
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(cfg_.port);
  const int gai =
      ::getaddrinfo(cfg_.bind_address.c_str(), port_str.c_str(), &hints, &res);
  if (gai != 0) {
    throw NetError("cannot resolve bind address '" + cfg_.bind_address +
                   "': " + ::gai_strerror(gai));
  }
  listen_fd_ = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (listen_fd_ < 0) {
    ::freeaddrinfo(res);
    throw NetError("cannot create listen socket: " + errno_text());
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(listen_fd_, res->ai_addr, res->ai_addrlen) != 0 ||
      ::listen(listen_fd_, cfg_.backlog) != 0) {
    const std::string msg = errno_text();
    ::freeaddrinfo(res);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw NetError("cannot listen on " + cfg_.bind_address + ":" + port_str +
                   ": " + msg);
  }
  ::freeaddrinfo(res);
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

NetServer::~NetServer() { shutdown(); }

void NetServer::set_sink(obs::TraceSink* sink) {
  std::lock_guard<std::mutex> lk(sink_mu_);
  sink_ = sink;
}

void NetServer::count(const char* name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lk(mu_);
  counters_.add(name, delta);
}

void NetServer::emit_conn(std::uint64_t conn_id, const char* action,
                          const std::string& reason) {
  std::lock_guard<std::mutex> lk(sink_mu_);
  if (sink_ == nullptr) return;
  obs::TraceEvent ev("net_conn");
  ev.u64("conn", conn_id).str("action", action);
  if (!reason.empty()) ev.str("reason", reason);
  sink_->write(ev);
}

void NetServer::emit_rr(std::uint64_t conn_id, const svc::RequestId& id,
                        bool ok) {
  std::lock_guard<std::mutex> lk(sink_mu_);
  if (sink_ == nullptr) return;
  obs::TraceEvent ev("net_rr");
  ev.u64("conn", conn_id).str("id", id).boolean("ok", ok);
  sink_->write(ev);
}

void NetServer::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0 && errno != EINTR) break;
    if (stopping_.load(std::memory_order_acquire)) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) {
        continue;
      }
      break;  // listen socket closed under us
    }
    const int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (cfg_.send_buffer_bytes > 0) {
      ::setsockopt(cfd, SOL_SOCKET, SO_SNDBUF, &cfg_.send_buffer_bytes,
                   sizeof cfg_.send_buffer_bytes);
    }
    auto conn = std::make_unique<Connection>();
    Connection* c = conn.get();
    c->fd = cfd;
    {
      std::lock_guard<std::mutex> lk(mu_);
      c->id = next_conn_id_++;
      counters_.add("net.accepted", 1);
    }
    c->session = std::make_unique<Session>(
        service_, "conn" + std::to_string(c->id), cfg_.max_line_bytes,
        [this](const char* name) { count(name); });
    emit_conn(c->id, "open", "");
    c->reader = std::thread([this, c] { reader_loop(*c); });
    c->writer = std::thread([this, c] { writer_loop(*c); });
    {
      std::lock_guard<std::mutex> lk(mu_);
      connections_.push_back(std::move(conn));
    }
    reap_finished();
  }
}

void NetServer::reader_loop(Connection& conn) {
  char buf[1 << 16];
  while (!conn.dead.load(std::memory_order_acquire) &&
         !stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{conn.fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load(std::memory_order_acquire) ||
        conn.dead.load(std::memory_order_acquire)) {
      break;
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    if (n == 0) {  // orderly EOF: serve any final unterminated line
      conn.session->finish();
      break;
    }
    count("net.bytes_in", static_cast<std::uint64_t>(n));
    // false after a frame error: the session queued its typed envelope;
    // stop reading and let the writer flush and half-close.
    if (!conn.session->feed({buf, static_cast<std::size_t>(n)})) break;
  }
  conn.session->close();
  conn.reader_exited.store(true, std::memory_order_release);
}

void NetServer::writer_loop(Connection& conn) {
  const auto poll_iv = std::chrono::milliseconds(
      cfg_.poll_interval_ms > 0 ? cfg_.poll_interval_ms : 50);
  std::string outbuf;  // writer-private
  const char* close_reason = "eof";
  bool force_close = false;
  bool deadline_set = false;
  std::chrono::steady_clock::time_point drain_deadline{};

  for (;;) {
    if (stopping_.load(std::memory_order_acquire) && !deadline_set) {
      deadline_set = true;
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(cfg_.drain_flush_ms);
    }
    // 1. Take the session's next envelope in admission order, blocking
    //    only while there is nothing to flush.
    svc::CampaignResponse resp;
    const Session::Next got = conn.session->next(
        resp, outbuf.empty() ? poll_iv : std::chrono::milliseconds(0));
    if (got == Session::Next::kDone && outbuf.empty()) break;
    const bool have = got == Session::Next::kEnvelope;
    if (have) {
      // Best effort: a stream-file failure must not drop the envelope.
      (void)svc::write_stream_file(cfg_.stream_dir, resp);
      emit_rr(conn.id, resp.id, resp.ok);
      outbuf += resp.to_json();
      outbuf.push_back('\n');
      count("net.responses");
    }
    // 2. Flush as much as the socket accepts right now.
    bool sent_any = false;
    bool sock_dead = false;
    while (!outbuf.empty()) {
      const ssize_t n = ::send(conn.fd, outbuf.data(), outbuf.size(),
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        count("net.bytes_out", static_cast<std::uint64_t>(n));
        outbuf.erase(0, static_cast<std::size_t>(n));
        sent_any = true;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      sock_dead = true;  // peer reset / half-closed under us
      break;
    }
    if (sock_dead) {
      close_reason = "error";
      force_close = true;
      break;
    }
    // 3. Slow-reader guard: un-acked bytes past the cap are a typed
    //    overflow disconnect, not unbounded buffering.
    if (outbuf.size() > cfg_.max_write_buffer) {
      count("net.overflow_disconnects");
      close_reason = "overflow";
      force_close = true;
      break;
    }
    // 4. Drain deadline: a client that will not take its final bytes
    //    cannot hold shutdown hostage.
    if (deadline_set && std::chrono::steady_clock::now() > drain_deadline) {
      if (conn.session->pending() > 0 || !outbuf.empty()) {
        close_reason = "drain_timeout";
        force_close = true;
        break;
      }
    }
    // 5. Nothing moved and the socket is clogged: wait for writability.
    if (!sent_any && !have && !outbuf.empty()) {
      pollfd pfd{conn.fd, POLLOUT, 0};
      ::poll(&pfd, 1, static_cast<int>(poll_iv.count()));
    }
  }

  // Counted before the peer can see EOF, so a client that reads to EOF
  // and then asks for the counters always finds its disconnect.
  count("net.disconnects");
  emit_conn(conn.id, "close", close_reason);
  if (force_close) {
    // Unblock the reader (and the peer) immediately; undelivered
    // responses are dropped — their executions finish in the service
    // and land in the store regardless.
    conn.dead.store(true, std::memory_order_release);
    ::shutdown(conn.fd, SHUT_RDWR);
  } else {
    // Graceful: everything flushed and the reader saw EOF. Half-close
    // so the client reading our stream sees EOF after the last byte.
    ::shutdown(conn.fd, SHUT_WR);
  }
  conn.writer_exited.store(true, std::memory_order_release);
}

void NetServer::reap_finished() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      Connection& c = **it;
      if (c.reader_exited.load(std::memory_order_acquire) &&
          c.writer_exited.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& c : finished) {
    if (c->reader.joinable()) c->reader.join();
    if (c->writer.joinable()) c->writer.join();
    ::close(c->fd);
  }
}

std::size_t NetServer::active_connections() const {
  std::lock_guard<std::mutex> lk(mu_);
  return connections_.size();
}

void NetServer::shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // Second call: the first one already tore everything down.
    return;
  }
  // Wake every poller (acceptor + all readers): the byte is never read
  // back, so the pipe stays readable for all of them.
  (void)!::write(wake_pipe_[1], "x", 1);
  if (acceptor_.joinable()) acceptor_.join();
  // Join all connections: readers exit on the wake pipe, writers flush
  // within drain_flush_ms and exit.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lk(mu_);
    conns.swap(connections_);
  }
  for (const auto& c : conns) {
    if (c->reader.joinable()) c->reader.join();
    if (c->writer.joinable()) c->writer.join();
    ::close(c->fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

obs::CounterRegistry NetServer::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

}  // namespace rls::net
