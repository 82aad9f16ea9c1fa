#include "src/service/serve.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <functional>
#include <iostream>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/service/request_executor.h"
#include "src/service/version.h"
#include "src/util/deadline.h"
#include "src/util/fault.h"
#include "src/util/json.h"

namespace daydream {

namespace {

// --- Graceful drain -------------------------------------------------------
//
// SIGINT/SIGTERM request a drain, not an exit: stop accepting new input,
// answer everything already accepted, return 0. The handler is async-signal-
// safe (a flag store and one pipe write); the transports notice either
// through the self-pipe (TCP poll loop) or through the EINTR the handler
// causes in a blocked read (stdio — sa_flags deliberately omits SA_RESTART).

std::atomic<bool> g_drain{false};
int g_drain_pipe[2] = {-1, -1};

void DrainSignalHandler(int /*signum*/) {
  g_drain.store(true, std::memory_order_relaxed);
  if (g_drain_pipe[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(g_drain_pipe[1], &byte, 1);
  }
}

bool DrainRequested() { return g_drain.load(std::memory_order_relaxed); }

void InstallDrainHandlers() {
  static bool installed = false;
  if (installed) {
    return;
  }
  installed = true;
  if (::pipe(g_drain_pipe) != 0) {
    g_drain_pipe[0] = g_drain_pipe[1] = -1;
  }
  struct sigaction action {};
  action.sa_handler = DrainSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocked reads must EINTR so loops notice
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

// --- Worker pool ----------------------------------------------------------

// Executes request lines on a bounded worker pool and hands each response to
// a sink (which serializes writes). Admission control happens at Submit: a
// full queue sheds the request with an `overloaded` envelope instead of
// buffering without bound, and an admission-stamped deadline rides along so a
// request that died waiting is answered `deadline_exceeded` without burning a
// worker on it. Drain() is the graceful-shutdown barrier: every accepted
// line gets its response before the transport closes.
class RequestPool {
 public:
  using Sink = std::function<void(const RequestExecutor::Response&)>;

  RequestPool(RequestExecutor* executor, int workers, Sink sink)
      : executor_(executor), sink_(std::move(sink)) {
    const int count = workers < 1 ? 1 : workers;
    threads_.reserve(count);
    for (int i = 0; i < count; ++i) {
      threads_.emplace_back([this] { Worker(); });
    }
  }

  ~RequestPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    ready_.notify_all();
    for (std::thread& thread : threads_) {
      thread.join();
    }
  }

  void Submit(std::string line) {
    const ServeLimits& limits = executor_->limits();
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (limits.max_queue > 0 && static_cast<int>(queue_.size()) >= limits.max_queue) {
        shed = true;
      } else {
        Item item;
        item.line = std::move(line);
        if (limits.request_timeout_ms > 0) {
          item.deadline = Deadline::AfterMs(limits.request_timeout_ms);
        }
        queue_.push_back(std::move(item));
        ++pending_;
        executor_->counters().RecordQueueDepth(static_cast<int>(queue_.size()));
      }
    }
    if (shed) {
      // Outside the lock: the envelope write is the sink's problem, the
      // queue must not serialize behind it. Shed requests never enter
      // pending_, so Drain() does not wait on them.
      RequestExecutor::Response response;
      response.line = executor_->OverloadedResponse(line);
      sink_(response);
      return;
    }
    ready_.notify_one();
  }

  // Blocks until every submitted line has produced its response.
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    drained_.wait(lock, [this] { return pending_ == 0; });
  }

  bool shutdown_requested() const { return shutdown_requested_.load(); }

 private:
  struct Item {
    std::string line;
    Deadline deadline;  // stamped at admission; unbounded without a timeout
  };

  void Worker() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
          return;  // stopping_, and nothing left to do
        }
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      RequestExecutor::Response response;
      if (item.deadline.Expired()) {
        // Died waiting in the queue: answer without executing, freeing this
        // worker for requests that can still make their deadline.
        response.line = executor_->ExpiredResponse(item.line);
      } else if (FaultInjector::Global().ShouldFail("worker_execute")) {
        response.line = executor_->FaultedResponse(item.line, "worker_execute");
      } else {
        response = executor_->Handle(item.line, item.deadline);
      }
      if (response.shutdown) {
        shutdown_requested_.store(true);
      }
      sink_(response);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --pending_;
      }
      drained_.notify_all();
    }
  }

  RequestExecutor* executor_;
  Sink sink_;
  std::mutex mu_;
  std::condition_variable ready_;
  std::condition_variable drained_;
  std::deque<Item> queue_;
  int pending_ = 0;
  bool stopping_ = false;
  std::atomic<bool> shutdown_requested_{false};
  std::vector<std::thread> threads_;
};

// --- Bounded line reading (stdio) -----------------------------------------

enum class LineStatus { kLine, kEof, kOversized };

// getline with a length bound: an oversized line is discarded through its
// newline (the stream stays usable) and reported so the caller can answer
// one `bad_request` envelope instead of buffering an unbounded line.
LineStatus ReadBoundedLine(std::istream& in, std::string* line, size_t max_bytes) {
  line->clear();
  std::streambuf* buf = in.rdbuf();
  if (buf == nullptr) {
    in.setstate(std::ios::badbit);
    return LineStatus::kEof;
  }
  for (;;) {
    const int c = buf->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      return line->empty() ? LineStatus::kEof : LineStatus::kLine;
    }
    if (c == '\n') {
      return LineStatus::kLine;
    }
    if (max_bytes > 0 && line->size() >= max_bytes) {
      for (int d = buf->sbumpc();
           d != std::char_traits<char>::eof() && d != '\n'; d = buf->sbumpc()) {
      }
      return LineStatus::kOversized;
    }
    line->push_back(static_cast<char>(c));
  }
}

// True for a request line whose verb is `shutdown`. The worker that executes
// it sets shutdown_requested() only later; a stdio reader that went back into
// a blocking read meanwhile would keep the daemon up until stdin closes.
bool IsShutdownRequest(const std::string& line) {
  if (line.find("shutdown") == std::string::npos) {
    return false;  // skips the parse for every other request
  }
  std::string error;
  const std::optional<JsonObject> request = ParseJsonObject(line, &error);
  return request.has_value() && request->GetString("verb") == "shutdown";
}

}  // namespace

std::string ServeHelloBanner() {
  return "{\"daydream\": \"serve\", \"hello\": " + DaydreamVersionJson() + "}";
}

int RunServeStdio(std::istream& in, std::ostream& out, const ServeOptions& options) {
  if (options.install_signal_handlers) {
    InstallDrainHandlers();
  }
  RequestExecutor executor(options.session, options.workers, options.sim_jobs, options.limits);
  std::mutex out_mu;
  auto emit = [&out, &out_mu](const std::string& text) {
    std::lock_guard<std::mutex> lock(out_mu);
    out << text << "\n" << std::flush;
  };
  emit(ServeHelloBanner());
  RequestPool pool(&executor, options.workers,
                   [&emit](const RequestExecutor::Response& response) { emit(response.line); });
  std::string line;
  while (!pool.shutdown_requested() && !DrainRequested()) {
    const LineStatus status = ReadBoundedLine(in, &line, options.limits.max_line_bytes);
    if (status == LineStatus::kOversized) {
      emit(executor.OversizedResponse());
      continue;
    }
    if (status == LineStatus::kEof) {
      break;
    }
    if (!line.empty()) {  // blank lines are keep-alives, not requests
      const bool shutdown = IsShutdownRequest(line);
      pool.Submit(std::move(line));
      line.clear();
      if (shutdown) {
        // Let it execute before reading on: an accepted shutdown ends the
        // loop; a shed or failed one leaves the daemon reading.
        pool.Drain();
      }
    }
    if (!in.good()) {
      break;  // EOF after a final unterminated line, or an EINTR'd drain
    }
  }
  pool.Drain();
  return 0;
}

namespace {

// One TCP connection: banner, then line-in/line-out against the shared
// executor until the peer closes, a limit trips, or a shutdown verb lands.
void ServeConnection(int fd, RequestExecutor* executor, const ServeOptions& options,
                     const std::function<void()>& on_shutdown) {
  executor->counters().active_connections.fetch_add(1, std::memory_order_relaxed);
  std::mutex out_mu;
  auto write_line = [fd, &out_mu](const std::string& line) {
    std::lock_guard<std::mutex> lock(out_mu);
    const std::string framed = line + "\n";
    // Fault site: socket_write degrades each send to one byte, exercising
    // the short-write retry path — the line must still go out whole (the
    // exactly-one-envelope invariant is on this loop).
    const size_t max_chunk =
        FaultInjector::Global().ShouldFail("socket_write") ? 1 : framed.size();
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + sent,
                               std::min(framed.size() - sent, max_chunk), MSG_NOSIGNAL);
      if (n <= 0) {
        return;  // peer went away; nothing useful to do with the rest
      }
      sent += static_cast<size_t>(n);
    }
  };
  write_line(ServeHelloBanner());

  RequestPool pool(executor, options.workers,
                   [&write_line](const RequestExecutor::Response& response) {
                     write_line(response.line);
                   });
  const size_t max_line = options.limits.max_line_bytes;
  bool oversized = false;
  std::string buffer;
  char chunk[4096];
  while (!pool.shutdown_requested()) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t newline = buffer.find('\n', start); newline != std::string::npos;
         newline = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      if (max_line > 0 && line.size() > max_line) {
        oversized = true;
        break;
      }
      if (!line.empty()) {
        pool.Submit(std::move(line));
      }
    }
    buffer.erase(0, start);
    // A peer streaming a newline-less line used to grow `buffer` without
    // bound — the single-client OOM this limit exists for.
    if (!oversized && max_line > 0 && buffer.size() > max_line) {
      oversized = true;
    }
    if (oversized) {
      write_line(executor->OversizedResponse());
      break;  // protocol framing is gone; close after draining
    }
  }
  pool.Drain();
  if (pool.shutdown_requested()) {
    on_shutdown();
  }
  ::close(fd);
  executor->counters().active_connections.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace

int RunServeTcp(int port, const ServeOptions& options) {
  if (options.install_signal_handlers) {
    InstallDrainHandlers();
  }
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::cerr << "serve: socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  const int reuse = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local clients only
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd, 16) < 0) {
    std::cerr << "serve: cannot listen on port " << port << ": " << std::strerror(errno) << "\n";
    ::close(listen_fd);
    return 1;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  std::cout << "daydream serve listening on 127.0.0.1:" << ntohs(addr.sin_port) << "\n"
            << std::flush;

  RequestExecutor executor(options.session, options.workers, options.sim_jobs, options.limits);
  std::atomic<bool> shutting_down{false};
  // A shutdown verb stops the accept loop by shutting the listener down;
  // poll() then reports the listener readable and accept() fails.
  auto on_shutdown = [&shutting_down, listen_fd] {
    shutting_down.store(true);
    ::shutdown(listen_fd, SHUT_RDWR);
  };

  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<std::unique_ptr<Connection>> connections;
  auto reap = [&connections] {
    for (auto it = connections.begin(); it != connections.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };

  while (!shutting_down.load() && !DrainRequested()) {
    // Finished connection threads are joined here, in the accept loop, so a
    // long-lived daemon does not accumulate one zombie thread per past
    // client. The poll timeout bounds how long a completed thread lingers
    // when no new connection arrives.
    reap();
    struct pollfd fds[2];
    fds[0] = {listen_fd, POLLIN, 0};
    nfds_t nfds = 1;
    if (g_drain_pipe[0] >= 0) {
      fds[1] = {g_drain_pipe[0], POLLIN, 0};
      nfds = 2;
    }
    const int rc = ::poll(fds, nfds, 250);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;  // signal; the loop condition re-checks the drain flag
      }
      break;
    }
    if (rc == 0) {
      continue;  // timeout: loop to reap and re-check flags
    }
    if (nfds == 2 && (fds[1].revents & POLLIN) != 0) {
      break;  // drain signal via the self-pipe
    }
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
      continue;
    }
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // listener shut down (or hard error); stop accepting
    }
    if (options.limits.max_connections > 0 &&
        static_cast<int>(connections.size()) >= options.limits.max_connections) {
      // Refuse with one well-formed line so the client sees backpressure,
      // not a silent hangup.
      executor.counters().connections_refused.fetch_add(1, std::memory_order_relaxed);
      const std::string refusal =
          "{\"ok\": false, \"code\": \"overloaded\", "
          "\"error\": \"connection limit reached; retry later\"}\n";
      size_t sent = 0;
      while (sent < refusal.size()) {
        const ssize_t n =
            ::send(conn_fd, refusal.data() + sent, refusal.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
          break;
        }
        sent += static_cast<size_t>(n);
      }
      ::close(conn_fd);
      continue;
    }
    auto connection = std::make_unique<Connection>();
    connection->fd = conn_fd;
    Connection* raw = connection.get();
    connection->thread = std::thread([raw, &executor, &options, &on_shutdown] {
      ServeConnection(raw->fd, &executor, options, on_shutdown);
      raw->done.store(true, std::memory_order_release);
    });
    connections.push_back(std::move(connection));
  }
  // Drain: no new input on any live connection (recv unblocks and returns 0),
  // but every already-accepted request still flushes its response before the
  // connection thread exits — the exactly-one-envelope guarantee holds
  // through shutdown.
  for (const auto& connection : connections) {
    ::shutdown(connection->fd, SHUT_RD);
  }
  for (const auto& connection : connections) {
    connection->thread.join();
  }
  ::close(listen_fd);
  return 0;
}

}  // namespace daydream
