#include "serve/endpoint.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/span.hpp"

namespace gg::serve {

namespace {

constexpr size_t kMaxRequestBytes = 64 * 1024;
/// Handler threads: concurrent requests answered at once. Cold REPORTs
/// serialize on the server's analysis gate, so a few threads suffice for
/// cheap queries never to wait behind them.
constexpr size_t kHandlerThreads = 8;
/// Accepted connections waiting for a handler; past this a client gets
/// "ERR busy" instead of an unbounded queue.
constexpr size_t kMaxPending = 64;

bool fill_addr(const std::string& path, sockaddr_un* addr,
               std::string* error) {
  if (path.size() >= sizeof(addr->sun_path)) {
    if (error != nullptr) *error = "socket path too long: " + path;
    return false;
  }
  std::memset(addr, 0, sizeof *addr);
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

void write_all_fd(int fd, const char* data, size_t len) {
  while (len > 0) {
    // MSG_NOSIGNAL: a client that disconnects mid-response must surface
    // as EPIPE here, never as a SIGPIPE that kills the daemon.
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
}

/// Reads until '\n', EOF, or the deadline (bounded); the request is the
/// first line. *timed_out reports a deadline hit with no complete line.
std::string read_request(int fd, u64 deadline_ns, bool* timed_out) {
  *timed_out = false;
  std::string req;
  char buf[4096];
  const u64 start = obs::mono_ns();
  while (req.size() < kMaxRequestBytes) {
    const u64 elapsed = obs::mono_ns() - start;
    if (elapsed >= deadline_ns) {
      *timed_out = true;
      break;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(
        &pfd, 1,
        static_cast<int>(
            std::min<u64>((deadline_ns - elapsed) / 1'000'000, 100) | 1));
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;  // trickling client: re-check the deadline
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    req.append(buf, static_cast<size_t>(n));
    if (req.find('\n') != std::string::npos) break;
  }
  const size_t nl = req.find('\n');
  if (nl != std::string::npos) {
    req.resize(nl);
    *timed_out = false;
  } else if (*timed_out) {
    req.clear();
  }
  if (!req.empty() && req.back() == '\r') req.pop_back();
  return req;
}

}  // namespace

Endpoint::Endpoint(std::string socket_path, Handler handler,
                   u64 read_deadline_ns)
    : path_(std::move(socket_path)),
      handler_(std::move(handler)),
      read_deadline_ns_(read_deadline_ns) {}

Endpoint::~Endpoint() { stop(); }

bool Endpoint::start(std::string* error) {
  sockaddr_un addr;
  if (!fill_addr(path_, &addr, error)) return false;
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  ::unlink(path_.c_str());  // a stale socket from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 16) != 0) {
    if (error != nullptr)
      *error = "cannot bind " + path_ + ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  for (size_t i = 0; i < kHandlerThreads; ++i)
    handlers_.emplace_back([this] { handler_loop(); });
  thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Endpoint::stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (thread_.joinable()) thread_.join();
  {
    // Under mu_, so no handler is between its predicate check and wait.
    std::lock_guard<std::mutex> lock(mu_);
  }
  cv_.notify_all();
  for (std::thread& t : handlers_) t.join();
  handlers_.clear();
  for (int fd : pending_) ::close(fd);
  pending_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(path_.c_str());
}

void Endpoint::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.size() < kMaxPending) {
        pending_.push_back(fd);
        cv_.notify_one();
        continue;
      }
    }
    static constexpr char kBusy[] = "ERR busy\n";
    write_all_fd(fd, kBusy, sizeof kBusy - 1);
    ::close(fd);
  }
}

void Endpoint::handler_loop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return !pending_.empty() || stop_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) return;  // stopping, nothing left to answer
      fd = pending_.front();
      pending_.pop_front();
    }
    serve(fd);
  }
}

void Endpoint::serve(int fd) {
  bool timed_out = false;
  const std::string request = read_request(fd, read_deadline_ns_, &timed_out);
  const std::string response =
      timed_out ? "ERR timeout\n"
                : (handler_ ? handler_(request) : std::string());
  write_all_fd(fd, response.data(), response.size());
  ::shutdown(fd, SHUT_WR);
  ::close(fd);
}

bool endpoint_request(const std::string& socket_path,
                      const std::string& request, std::string* response,
                      std::string* error) {
  sockaddr_un addr;
  if (!fill_addr(socket_path, &addr, error)) return false;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (error != nullptr)
      *error = "cannot connect to " + socket_path + ": " +
               std::strerror(errno);
    ::close(fd);
    return false;
  }
  std::string line = request;
  if (line.empty() || line.back() != '\n') line.push_back('\n');
  write_all_fd(fd, line.data(), line.size());
  ::shutdown(fd, SHUT_WR);
  response->clear();
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    response->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return true;
}

bool endpoint_request_retry(const std::string& socket_path,
                            const std::string& request, u32 max_attempts,
                            u64 backoff_initial_ns, u64 backoff_max_ns,
                            std::string* response, std::string* error) {
  u64 backoff = backoff_initial_ns;
  std::string err;
  for (u32 attempt = 0;; ++attempt) {
    if (endpoint_request(socket_path, request, response, &err)) return true;
    // Only the daemon-still-starting failures are retryable; anything
    // else (path too long, read error) fails immediately.
    const bool retryable =
        err.find("cannot connect") != std::string::npos;
    if (!retryable || attempt + 1 >= max_attempts) {
      if (error != nullptr) *error = err;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
    backoff = std::min(backoff * 2, backoff_max_ns);
  }
}

}  // namespace gg::serve
