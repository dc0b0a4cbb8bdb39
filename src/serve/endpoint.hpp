// AF_UNIX line-protocol endpoint for ggserved.
//
// Transport only: one request line per connection, the handler's response
// bytes written back, connection closed. The protocol lives in
// Server::query(); ggstat --connect is the matching client. Connections are
// answered on a fixed set of handler threads, so a cheap request never
// queues behind a slow one (a cold REPORT) or a trickling client.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace gg::serve {

class Endpoint {
 public:
  using Handler = std::function<std::string(const std::string&)>;

  /// `read_deadline_ns`: a connection that has not produced a full request
  /// line within this long is answered with "ERR timeout" and closed
  /// (slowloris guard — a stalled client must not hold a handler).
  Endpoint(std::string socket_path, Handler handler,
           u64 read_deadline_ns = 5'000'000'000);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Binds + listens + starts the accept and handler threads. False with
  /// *error set on failure (stale sockets at the path are unlinked first).
  bool start(std::string* error);
  /// Stops accepting, lets in-flight requests finish, closes the rest.
  void stop();

  const std::string& path() const { return path_; }

 private:
  void accept_loop();
  void handler_loop();
  void serve(int fd);

  std::string path_;
  Handler handler_;
  u64 read_deadline_ns_;
  int listen_fd_ = -1;
  std::mutex mu_;  // guards pending_
  std::condition_variable cv_;
  std::deque<int> pending_;  ///< accepted, not yet picked up
  std::atomic<bool> stop_{false};
  std::thread thread_;                 ///< accept loop
  std::vector<std::thread> handlers_;  ///< answer pending_ connections
};

/// Client half (ggstat --connect): sends one request line, returns the
/// whole response. False with *error set on connect/IO failure.
bool endpoint_request(const std::string& socket_path,
                      const std::string& request, std::string* response,
                      std::string* error);

/// endpoint_request with capped exponential backoff on connection failure
/// (ECONNREFUSED / ENOENT): lets scripts launch daemon + client without
/// racing the socket's appearance. Non-connect errors fail immediately.
bool endpoint_request_retry(const std::string& socket_path,
                            const std::string& request, u32 max_attempts,
                            u64 backoff_initial_ns, u64 backoff_max_ns,
                            std::string* response, std::string* error);

}  // namespace gg::serve
