// The two `rls serve` front doors are one net::Session (DESIGN.md §16):
// the same NDJSON bytes sent on stdin (the real `rls` binary, as a
// subprocess) and over TCP (an in-process NetServer + NetClient) must
// yield the same envelope sequence, apart from the origin prefix inside
// `error` prose ("stdin:N" vs "connK:N"). Also pinned here: stdin
// streams each envelope as soon as it resolves, and the Session's own
// ordering / framing / end-of-input rules.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"

namespace rls {
namespace {

using namespace std::chrono_literals;

const std::string kS27 =
    R"({"schema":2,"id":"%","circuit":"s27","la":8,"lb":16,"n":16})";

/// `tmpl` with its '%' id placeholder replaced by `id`.
std::string with_id(const std::string& tmpl, const std::string& id) {
  std::string out = tmpl;
  out.replace(out.find('%'), 1, id);
  return out;
}

#ifdef RLS_CLI_PATH

/// ~0.6 s in a Release build, most of it PODEM (which ThreadSanitizer
/// slows far less than multi-threaded fault simulation): long enough that
/// everything written right behind it, including after the stdin path's
/// 200 ms settle pause, is admitted while it still occupies the only
/// worker.
const std::string kSlow =
    R"({"schema":2,"id":"%","circuit":"s1196","la":8,"lb":16,"n":16,)"
    R"("max_iterations":1,"threads":1})";

/// Error prose carries the line's origin ("stdin:2: ..." / "conn0:2:
/// ..."); it is the one place the two front doors may differ, so every
/// "stdin:N" and "connK:N" becomes "<origin>:N".
std::string strip_origin(const std::string& envelope) {
  const auto digits_end = [&](std::size_t i) {
    while (i < envelope.size() && envelope[i] >= '0' && envelope[i] <= '9') {
      ++i;
    }
    return i;
  };
  std::string out;
  std::size_t i = 0;
  while (i < envelope.size()) {
    std::size_t colon = std::string::npos;
    if (envelope.compare(i, 5, "stdin") == 0) {
      colon = i + 5;
    } else if (envelope.compare(i, 4, "conn") == 0 &&
               digits_end(i + 4) > i + 4) {
      colon = digits_end(i + 4);
    }
    if (colon < envelope.size() && envelope[colon] == ':' &&
        digits_end(colon + 1) > colon + 1) {
      const std::size_t end = digits_end(colon + 1);
      out += "<origin>";
      out.append(envelope, colon, end - colon);
      i = end;
    } else {
      out += envelope[i++];
    }
  }
  return out;
}

/// One write of an interaction script. After writing `bytes`, the
/// driver reads `await` envelopes, then (when `settle` > 0) waits until
/// `settle` executions have been claimed by a worker.
struct Chunk {
  std::string bytes;
  int await = 0;
  int settle = 0;
};

struct ServeArgs {
  unsigned workers = 1;
  std::size_t queue_cap = 64;
};

// ---- TCP: in-process NetServer + NetClient --------------------------------

std::vector<std::string> run_tcp(const std::vector<Chunk>& script,
                                 const ServeArgs& args) {
  svc::ServiceConfig scfg;
  scfg.workers = args.workers;
  scfg.queue_capacity = args.queue_cap;
  svc::CampaignService service(std::move(scfg));
  net::NetServer server(service, net::NetConfig{});
  net::NetClient client("127.0.0.1", server.port());

  std::vector<std::string> out;
  for (const Chunk& c : script) {
    // Raw send: the script decides about the final '\n'.
    std::size_t sent = 0;
    while (sent < c.bytes.size()) {
      const ssize_t n = ::send(client.fd(), c.bytes.data() + sent,
                               c.bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    for (int k = 0; k < c.await; ++k) {
      const auto line = client.recv_line();
      if (!line) throw std::runtime_error("server EOF while awaiting");
      out.push_back(*line);
    }
    if (c.settle > 0) {
      const auto deadline = std::chrono::steady_clock::now() + 60s;
      while (service.counters().value("svc.admitted") <
                 static_cast<std::uint64_t>(c.settle) ||
             !service.queued_order().empty()) {
        if (std::chrono::steady_clock::now() > deadline) {
          throw std::runtime_error("execution never claimed");
        }
        std::this_thread::sleep_for(1ms);
      }
    }
  }
  client.shutdown_write();
  while (const auto line = client.recv_line()) out.push_back(*line);
  return out;
}

// ---- stdin: the real `rls serve` subprocess -------------------------------

class ServeStdin {
 public:
  explicit ServeStdin(const ServeArgs& args) {
    ::signal(SIGPIPE, SIG_IGN);  // a dead child must fail, not kill, us
    int in[2];
    int out[2];
    if (::pipe(in) != 0 || ::pipe(out) != 0) {
      throw std::runtime_error("pipe failed");
    }
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(in[0], STDIN_FILENO);
      ::dup2(out[1], STDOUT_FILENO);
      for (const int fd : {in[0], in[1], out[0], out[1]}) ::close(fd);
      std::vector<std::string> argv_s = {
          RLS_CLI_PATH, "serve", "--workers=" + std::to_string(args.workers),
          "--queue-cap=" + std::to_string(args.queue_cap)};
      std::vector<char*> argv;
      for (std::string& a : argv_s) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(in[0]);
    ::close(out[1]);
    in_ = in[1];
    out_ = out[0];
  }
  ~ServeStdin() {
    close_stdin();
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) ::close(out_);
  }
  ServeStdin(const ServeStdin&) = delete;
  ServeStdin& operator=(const ServeStdin&) = delete;

  void write(const std::string& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::write(in_, bytes.data() + done, bytes.size() - done);
      if (n <= 0) throw std::runtime_error("write to rls serve failed");
      done += static_cast<std::size_t>(n);
    }
  }

  void close_stdin() {
    if (in_ >= 0) ::close(in_);
    in_ = -1;
  }

  /// Next stdout line within `timeout`; nullopt on EOF or timeout.
  std::optional<std::string> read_line(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return std::nullopt;
      pollfd pfd{out_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(out_, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Exit status after stdin EOF (-1 when it did not exit normally).
  int wait() {
    close_stdin();
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  std::string buf_;
};

constexpr auto kEnvelopeTimeout = 60s;

std::vector<std::string> run_stdin(const std::vector<Chunk>& script,
                                   const ServeArgs& args, int* exit_code) {
  ServeStdin proc(args);
  std::vector<std::string> out;
  for (const Chunk& c : script) {
    proc.write(c.bytes);
    for (int k = 0; k < c.await; ++k) {
      const auto line = proc.read_line(kEnvelopeTimeout);
      if (!line) throw std::runtime_error("no envelope while awaiting");
      out.push_back(*line);
    }
    // A subprocess cannot be asked whether its worker claimed the work;
    // the claim is a condition-variable wakeup, far below this margin.
    if (c.settle > 0) std::this_thread::sleep_for(200ms);
  }
  proc.close_stdin();
  while (const auto line = proc.read_line(kEnvelopeTimeout)) {
    out.push_back(*line);
  }
  *exit_code = proc.wait();
  return out;
}

/// Runs `script` through both front doors and checks the envelope
/// sequences match modulo origin; returns the stdin sequence.
std::vector<std::string> expect_parity(const std::vector<Chunk>& script,
                                       const ServeArgs& args,
                                       int* exit_code) {
  const std::vector<std::string> via_stdin = run_stdin(script, args, exit_code);
  const std::vector<std::string> via_tcp = run_tcp(script, args);
  EXPECT_EQ(via_stdin.size(), via_tcp.size());
  for (std::size_t i = 0; i < std::min(via_stdin.size(), via_tcp.size());
       ++i) {
    EXPECT_EQ(strip_origin(via_stdin[i]), strip_origin(via_tcp[i]))
        << "envelope " << i;
  }
  return via_stdin;
}

bool has(const std::string& envelope, const std::string& needle) {
  return envelope.find(needle) != std::string::npos;
}

TEST(FrontDoorParity, ErrorsAndCancelKeepAdmissionOrder) {
  // workers=1: "q" queues behind the slow leader, so the cancel line
  // finds it queued on either front door.
  const std::vector<Chunk> script = {
      {with_id(kSlow, "slow") + "\n" +        // line 1
       "{\"schema\":2,\n" +                   // line 2: malformed JSON
       R"({"schema":2,"id":"u","circuit":"s27","bogus":1})" "\n" +  // 3
       R"({"schema":2,"id":"q","circuit":"s27","la":8,"lb":16,"n":32})"
       "\n" +                                 // line 4
       R"({"cancel":"q"})" "\n" +             // line 5: no envelope
       " \t\r\n" +                            // line 6: blank
       with_id(kS27, "tail")}};               // line 7, unterminated
  int code = -1;
  const auto env = expect_parity(script, ServeArgs{}, &code);
  ASSERT_EQ(env.size(), 5u);
  EXPECT_TRUE(has(env[0], R"("id":"slow","ok":true)")) << env[0];
  EXPECT_TRUE(has(env[1], R"("id":"line2","ok":false)")) << env[1];
  EXPECT_TRUE(has(env[1], R"("error_code":"request")")) << env[1];
  EXPECT_TRUE(has(env[2], R"("id":"line3","ok":false)")) << env[2];
  EXPECT_TRUE(has(env[2], "stdin:3: unknown field")) << env[2];
  EXPECT_TRUE(has(env[3], R"("id":"q","ok":false)")) << env[3];
  EXPECT_TRUE(has(env[3], R"("error_code":"cancelled")")) << env[3];
  EXPECT_TRUE(has(env[4], R"("id":"tail","ok":true)")) << env[4];
  EXPECT_EQ(code, 1);  // some envelope is ok:false
}

TEST(FrontDoorParity, QueueFullTakesItsRequestsSlot) {
  // workers=1, queue_cap=1: a probe proves the server is up; "busy"
  // then holds the worker, "queued" fills the one slot and "bounced"
  // is rejected — and still answered in its admission position.
  const std::vector<Chunk> script = {
      {with_id(kS27, "probe") + "\n", 1, 0},
      {with_id(kSlow, "busy") + "\n", 0, 2},
      {with_id(kS27, "queued") + "\n" +
           R"({"schema":2,"id":"bounced","circuit":"s27","la":8,"lb":16,)"
           R"("n":32})" "\n",
       0, 0}};
  int code = -1;
  const auto env = expect_parity(script, ServeArgs{1, 1}, &code);
  ASSERT_EQ(env.size(), 4u);
  EXPECT_TRUE(has(env[0], R"("id":"probe","ok":true)")) << env[0];
  EXPECT_TRUE(has(env[1], R"("id":"busy","ok":true)")) << env[1];
  EXPECT_TRUE(has(env[2], R"("id":"queued","ok":true)")) << env[2];
  EXPECT_TRUE(has(env[3], R"("id":"bounced","ok":false)")) << env[3];
  EXPECT_TRUE(has(env[3], R"("error_code":"queue_full")")) << env[3];
  EXPECT_TRUE(has(env[3], R"("retry_after_hint":50)")) << env[3];
  EXPECT_EQ(code, 1);
}

TEST(FrontDoorParity, NulFrameErrorIsLineNumberedAndLast) {
  const std::vector<Chunk> script = {
      {with_id(kS27, "x") + "\n" + std::string("ab\0c\n", 5) +
       with_id(kS27, "never") + "\n"}};
  int code = -1;
  const auto env = expect_parity(script, ServeArgs{}, &code);
  ASSERT_EQ(env.size(), 2u);
  EXPECT_TRUE(has(env[0], R"("id":"x","ok":true)")) << env[0];
  EXPECT_TRUE(has(env[1], R"("id":"line2","ok":false)")) << env[1];
  EXPECT_TRUE(has(env[1], R"("error_code":"frame")")) << env[1];
  EXPECT_EQ(code, 1);
}

TEST(FrontDoorStreaming, StdinAnswersWithoutWaitingForMoreInput) {
  ServeStdin proc(ServeArgs{});
  proc.write(with_id(kS27, "live") + "\n");  // stdin stays open
  const auto line = proc.read_line(10s);
  ASSERT_TRUE(line.has_value()) << "envelope held back until more input";
  EXPECT_TRUE(has(*line, R"("id":"live","ok":true)")) << *line;
  EXPECT_EQ(proc.wait(), 0);
}

#endif  // RLS_CLI_PATH

// ---- NetSession: the shared session in isolation --------------------------

svc::ServiceConfig held_service() {
  svc::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.autostart = false;  // nothing resolves until start()
  return scfg;
}

TEST(NetSession, ErrorEnvelopesWaitBehindEarlierRequests) {
  svc::CampaignService service(held_service());
  net::Session session(service, "t", 1 << 20);
  ASSERT_TRUE(session.feed(with_id(kS27, "a") + "\nnot json\n"));
  EXPECT_EQ(session.pending(), 2u);

  svc::CampaignResponse resp;
  // "a" is unresolved, so the already-final error behind it must wait.
  EXPECT_EQ(session.next(resp, 0ms), net::Session::Next::kTimeout);
  service.start();
  ASSERT_EQ(session.next(resp, 60s), net::Session::Next::kEnvelope);
  EXPECT_EQ(resp.id, "a");
  EXPECT_TRUE(resp.ok);
  ASSERT_EQ(session.next(resp, 0ms), net::Session::Next::kEnvelope);
  EXPECT_EQ(resp.id, "line2");
  EXPECT_EQ(resp.error_code, svc::error_code::kRequest);
  EXPECT_EQ(resp.error.rfind("t:2:", 0), 0u) << resp.error;
  EXPECT_EQ(session.next(resp, 0ms), net::Session::Next::kTimeout);
  session.finish();
  EXPECT_EQ(session.next(resp, 0ms), net::Session::Next::kDone);
}

TEST(NetSession, FrameErrorClosesInputAndNamesTheLine) {
  svc::CampaignService service(held_service());
  int frame_errors = 0;
  net::Session session(service, "t", 16, [&](const char* name) {
    if (std::string(name) == "net.frame_errors") ++frame_errors;
  });
  EXPECT_TRUE(session.feed("\n\n"));  // blank lines still count
  EXPECT_FALSE(session.feed(std::string(17, 'x')));
  EXPECT_FALSE(session.feed("{}\n"));  // input stays closed
  EXPECT_EQ(frame_errors, 1);

  svc::CampaignResponse resp;
  ASSERT_EQ(session.next(resp, 0ms), net::Session::Next::kEnvelope);
  EXPECT_EQ(resp.id, "line3");
  EXPECT_EQ(resp.error_code, svc::error_code::kFrame);
  EXPECT_EQ(session.next(resp, 0ms), net::Session::Next::kDone);
}

TEST(NetSession, EveryRequestLineCountsOnceEvenWhenRejected) {
  svc::ServiceConfig scfg = held_service();
  scfg.queue_capacity = 1;
  svc::CampaignService service(std::move(scfg));
  std::map<std::string, int> counts;
  net::Session session(service, "t", 1 << 20,
                       [&](const char* name) { ++counts[name]; });
  ASSERT_TRUE(session.feed(
      with_id(kS27, "a") + "\n" +
      R"({"schema":2,"id":"b","circuit":"s27","la":8,"lb":16,"n":32})" "\n" +
      "not json\n" + R"({"cancel":"a"})" "\n"));
  EXPECT_EQ(counts["net.requests"], 3);  // queued, queue_full, malformed
  EXPECT_EQ(counts["net.cancels"], 1);
  EXPECT_EQ(session.pending(), 3u);
}

TEST(NetSession, FinishServesTheUnterminatedLineButCloseDropsIt) {
  svc::CampaignService service(held_service());
  net::Session finished(service, "t", 1 << 20);
  ASSERT_TRUE(finished.feed("{\"schema\":2,"));
  finished.finish();
  EXPECT_EQ(finished.pending(), 1u);  // the partial line got its slot

  net::Session closed(service, "t", 1 << 20);
  ASSERT_TRUE(closed.feed("{\"schema\":2,"));
  closed.close();
  svc::CampaignResponse resp;
  EXPECT_EQ(closed.next(resp, 0ms), net::Session::Next::kDone);
}

}  // namespace
}  // namespace rls
