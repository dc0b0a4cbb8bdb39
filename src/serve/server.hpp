// The ggserved core: session table, supervision loop, query surface.
//
// A Server owns N sessions (one per tailed spool), found by scanning a
// directory for *.ggspool files and/or attached explicitly. Everything
// stateful happens inside tick() — one supervision round: scan for new
// spools, poll every live tailer, recompute the admission level, apply
// backpressure (pause/resume), evict idle finalized sessions. tick() takes
// its time from an injectable clock, so tests drive the entire lifecycle
// (backoff, staleness, eviction) deterministically with a fake clock.
//
// run() wraps tick() in a real-time loop with the socket endpoint and a
// watchdog thread mirroring rts/supervisor.hpp: the ingest loop heartbeats
// once per tick; if the heartbeat freezes past the stall deadline the
// watchdog dumps a structured diagnosis to stderr and publishes
// serve.watchdog_stalls — it never aborts (a serving daemon degrades, it
// does not die). Every holder of the session-table lock is tagged (tick,
// query <CMD>, ...) so the diagnosis names who holds it and for how long.
//
// REPORT never analyzes under that lock: the lock covers the lookup, the
// admission check and the snapshot (a shared finalized trace, or a copy of
// a live session's records); the analysis runs under a separate server-
// wide gate, so at most one is in memory at a time, and its rendered bytes
// are cached on the session. A repeat REPORT with nothing new is a copy of
// the cached bytes.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/admission.hpp"
#include "serve/ingest.hpp"
#include "serve/session.hpp"

namespace gg::obs {
class Registry;
class Counter;
class Gauge;
class Histogram;
}  // namespace gg::obs

namespace gg::serve {

class Endpoint;

struct ServerOptions {
  /// Directory scanned for *.ggspool files; empty disables scanning
  /// (sessions come from attach() / ATTACH only).
  std::string dir;
  /// AF_UNIX socket path for the query endpoint; empty disables it.
  std::string socket_path;
  /// AF_UNIX socket path for GGWIRE1 network ingestion; empty disables it.
  std::string ingest_socket_path;
  SessionOptions session;
  AdmissionOptions admission;
  IngestOptions ingest;
  /// Query-endpoint slowloris guard: a connection without a complete
  /// request line within this long gets "ERR timeout" and is closed.
  u64 query_read_deadline_ns = 5'000'000'000;
  /// Directory re-scan period.
  u64 scan_interval_ns = 500'000'000;
  /// run() loop sleep between ticks.
  u64 tick_sleep_ns = 2'000'000;
  /// Watchdog: ingest-loop heartbeat frozen this long == stall.
  u64 watchdog_stall_ns = 2'000'000'000;
  u64 watchdog_poll_ns = 10'000'000;
  /// run() returns once at least one session existed and all of them are
  /// finalized (the soak harness's clean-shutdown condition).
  bool exit_when_idle = false;
  /// Publishes serve.* metrics when set.
  obs::Registry* telemetry = nullptr;
  /// Injectable clock for tick-time (tests); null uses the steady clock.
  std::function<u64()> clock;
  /// Watchdog stall hook (tests); the stderr dump happens regardless.
  std::function<void(const std::string&)> on_stall;
};

class Server {
 public:
  explicit Server(const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Attaches one spool path as a session. False when already attached.
  bool attach(const std::string& path);

  /// One supervision round at the injected clock's current time.
  void tick();

  /// Answers one query-protocol request line (PING/STATUS/SESSIONS/
  /// SUMMARY/REPORT/TELEMETRY/ATTACH/EVICT/SHUTDOWN). Thread-safe; this is
  /// what the socket endpoint calls.
  std::string query(const std::string& request);

  /// Real-time serving loop: endpoint + watchdog + tick/sleep until
  /// stop() (or idle, with exit_when_idle). Finalizes every session on the
  /// way out. Returns 0 on a clean shutdown.
  int run();
  void stop() { stop_.store(true, std::memory_order_release); }
  bool stopping() const { return stop_.load(std::memory_order_acquire); }

  // Introspection (tests and the tool's final summary).
  size_t session_count() const;
  u64 resident_bytes() const;
  bool idle() const;  ///< at least one session existed, all finalized
  u64 ticks() const { return heartbeat_.load(std::memory_order_relaxed); }
  u64 watchdog_stalls() const {
    return watchdog_stalls_.load(std::memory_order_relaxed);
  }
  AdmissionController& admission() { return admission_; }
  IngestRegistry& ingest() { return ingest_; }
  const IngestRegistry& ingest() const { return ingest_; }
  /// Runs `fn` under the session lock for every session, in path order.
  void for_each_session(
      const std::function<void(const Session&)>& fn) const;
  /// Structured state dump (the watchdog's stall diagnosis; also STATUS).
  std::string diagnosis() const;

 private:
  class Hold;  // mu_ plus the holder tag the diagnosis prints

  u64 now_ns() const;
  /// REPORT after the lookup: cache hit, or snapshot + analysis under the
  /// gate with mu_ released.
  std::string report(const std::shared_ptr<Session>& s,
                     const std::shared_ptr<IngestStream>& ws,
                     const ReportKey& key);
  std::string answer(const std::string& cmd, const std::string& rest,
                     u64 now);
  void scan_dir_locked(u64 now);
  void apply_backpressure_locked(u64 now);
  void evict_sweep_locked(u64 now);
  void evict_locked(const std::string& path);
  std::shared_ptr<Session> find_locked(const std::string& key);
  std::string status_locked() const;
  void finalize_all();
  void watchdog_main();

  ServerOptions opts_;
  AdmissionController admission_;
  IngestRegistry ingest_;
  mutable std::mutex mu_;
  // Who holds mu_ (or held it last) and since when; guarded by holder_mu_.
  mutable std::mutex holder_mu_;
  mutable std::string holder_;
  mutable u64 holder_since_ns_ = 0;
  mutable bool holder_active_ = false;
  // Serializes cold REPORT analyses: at most one Analysis in memory.
  std::mutex analysis_gate_;
  // Shared so a REPORT in flight keeps its session alive across EVICT.
  std::map<std::string, std::shared_ptr<Session>> sessions_;  // by path
  u64 next_id_ = 1;
  u64 next_scan_ns_ = 0;
  bool ever_attached_ = false;

  obs::Counter* m_ticks_ = nullptr;
  obs::Counter* m_frames_ = nullptr;
  obs::Counter* m_attached_ = nullptr;
  obs::Counter* m_stalls_ = nullptr;
  obs::Counter* m_cache_hits_ = nullptr;
  obs::Counter* m_cache_misses_ = nullptr;
  obs::Gauge* g_cache_bytes_ = nullptr;
  std::map<std::string, obs::Histogram*> m_query_ns_;  // by command

  std::atomic<u64> heartbeat_{0};
  std::atomic<u64> watchdog_stalls_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> watchdog_stop_{false};
  std::thread watchdog_;
  std::unique_ptr<Endpoint> endpoint_;
  std::unique_ptr<IngestListener> ingest_listener_;
};

}  // namespace gg::serve
