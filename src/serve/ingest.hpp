// Network spool ingestion: GGWIRE1 streams feeding IncrementalTrace.
//
// The wire twin of the filesystem tailer. Each pushing client owns one
// IngestStream — keyed by its 128-bit token, NOT by its connection — that
// folds EPOCH-carried GGSPOOL1 frames straight into a spool::
// IncrementalTrace (no temp file). Connections are disposable: wire-level
// damage (bad magic, checksum failure, implausible length) poisons only
// the connection; the stream survives and the client resumes by
// re-HELLOing with its token. The server ACKs every applied epoch with
// the highest durably-applied wire seq, and deduplicates anything at or
// below it on resume, so a crash or disconnect at any byte boundary loses
// at most the unacked tail — the same ≤1-epoch-per-worker bound SIGKILL
// recovery gives the filesystem path.
//
// Layering (socketless core, transport shell):
//   IngestStream    token-keyed stream state + batch-identical finalize
//   IngestRegistry  thread-safe token → stream table, sweep, admission math
//   IngestConnection byte-in/byte-out protocol state machine (unit-testable
//                   without sockets; the fault proxy drives it through one)
//   IngestListener  AF_UNIX accept loop + per-connection threads, read
//                   deadlines (slowloris), connection caps, MSG_NOSIGNAL
//
// Finalize runs exactly the Session pipeline — tail-note mapping,
// IncrementalTrace::finish(), salvage when degraded, validate — so a
// stream pushed over the wire finalizes byte-identical to batch
// `gganalyze --recover` of the source spool (the chaos tests pin this).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "trace/incremental.hpp"

namespace gg::obs {
class Registry;
class Counter;
class Gauge;
}  // namespace gg::obs

namespace gg::serve {

struct IngestOptions {
  /// Max concurrent *unfinished* wire streams; new HELLOs past the cap are
  /// shed (resume of an existing stream is always admitted — an accepted
  /// session is never abandoned by admission).
  size_t max_sessions = 64;
  /// Max concurrent ingest connections (transport-level cap).
  size_t max_connections = 64;
  /// Per-connection reassembly-buffer cap: a peer that streams frame bytes
  /// faster than they decode (or sends one huge torn frame) is disconnected
  /// — resumable — once the decoder buffers this much.
  u64 max_wire_buffer_bytes = 16ull << 20;
  /// No bytes from a connection for this long → structured timeout ACK and
  /// disconnect (slowloris guard). The stream survives for resume.
  u64 read_deadline_ns = 10'000'000'000;
  /// An unfinished stream with no traffic for this long is presumed
  /// abandoned and finalized with what arrived (the client is dead).
  u64 stale_after_ns = 30'000'000'000;
  /// A finalized stream unqueried for this long is evicted by the sweep.
  u64 evict_after_ns = 60'000'000'000;
};

enum class IngestState : u8 {
  Open,     ///< handshake done / streaming epochs
  Sealed,   ///< SEAL applied: finalized, queryable
  Crashed,  ///< crash footer arrived in-stream: recovered + salvaged
  Failed,   ///< nothing recoverable
};

const char* ingest_state_name(IngestState s);

/// One wire-fed spool stream. Thread-safe: a resumed connection and a
/// half-dead predecessor may race, so every mutation takes the stream lock
/// and connections are fenced by a generation counter (a new HELLO
/// supersedes older connections to the same stream).
class IngestStream {
 public:
  IngestStream(u64 id, wire::Token token, std::string name, u64 now_ns);

  IngestStream(const IngestStream&) = delete;
  IngestStream& operator=(const IngestStream&) = delete;

  /// What a protocol step decided; the connection turns this into an ACK.
  struct Apply {
    wire::Status status = wire::Status::Ok;
    u64 acked_seq = 0;
    std::string message;
  };

  /// OFFER: allocates the IncrementalTrace. Idempotent for matching worker
  /// counts (a resumed client may re-OFFER); a mismatch is a session error.
  Apply offer(u32 num_workers, u64 now_ns);

  /// EPOCH: dedupes on wire seq (seq <= acked is an already-applied
  /// retransmit), requires exactly acked+1 next, parses the embedded
  /// GGSPOOL1 frame header strictly and folds it into the trace with
  /// batch-recovery semantics.
  Apply apply_epoch(u32 seq, const wire::EpochMsg& msg, u64 now_ns);

  /// SEAL: stamps the end-of-stream tail note (torn/garbled/overrun — what
  /// a tailer would find at the source's EOF) and finalizes.
  Apply seal(const wire::SealMsg& msg, u64 now_ns);

  /// Sweep/shutdown path: finalize with what arrived (no SEAL ever came —
  /// the client died; footer-less provenance is stamped, unacked tail lost).
  void finalize(u64 now_ns);

  /// A new connection takes over the stream; older connections observe the
  /// bumped generation and stand down.
  u64 adopt();
  u64 generation() const;

  u64 id() const { return id_; }
  const wire::Token& token() const { return token_; }
  const std::string& name() const { return name_; }
  bool offered() const;
  bool finalized() const;
  bool usable() const;
  IngestState state() const;
  u64 acked_seq() const;
  u64 resident_bytes() const;
  u64 last_activity_ns() const;
  u64 last_query_ns() const;
  void touch_query(u64 now_ns);

  /// The recovery report's summary line, taken under the stream lock;
  /// empty before OFFER.
  std::string summary() const;

  std::string status_line() const;
  /// Same contract as the Session methods of the same names; the live
  /// copy is taken under the stream lock, the analysis runs outside it.
  ReportKey report_key() const;
  ReportSnapshot snapshot() const;
  ReportCache& cache() const { return cache_; }

 private:
  Apply finalize_locked(wire::EndKind end, u64 end_offset, u64 end_len,
                        u64 now_ns);
  u64 resident_locked() const;

  const u64 id_;
  const wire::Token token_;
  const std::string name_;

  mutable std::mutex mu_;
  std::unique_ptr<spool::IncrementalTrace> inc_;
  u32 num_workers_ = 0;
  u64 acked_seq_ = 0;
  u64 epochs_duplicate_ = 0;
  bool footer_seen_ = false;
  IngestState state_ = IngestState::Open;
  bool finalized_ = false;
  bool usable_ = false;
  std::shared_ptr<const Trace> trace_;  ///< set once finalized_ && usable_
  spool::RecoverReport report_;         ///< frozen at finalize
  mutable ReportCache cache_;
  u64 last_activity_ns_ = 0;
  u64 last_query_ns_ = 0;
  std::atomic<u64> generation_{0};
};

/// Thread-safe token → stream table plus the ingest half of admission:
/// session caps, staleness sweep, eviction of idle finalized streams, and
/// the serve.ingest.* telemetry.
class IngestRegistry {
 public:
  IngestRegistry(const IngestOptions& opts, obs::Registry* telemetry);

  IngestRegistry(const IngestRegistry&) = delete;
  IngestRegistry& operator=(const IngestRegistry&) = delete;

  struct Hello {
    std::shared_ptr<IngestStream> stream;  ///< null when shed (at cap)
    bool created = false;                  ///< false: resumed
  };
  /// HELLO admission: resumes an existing token unconditionally, creates a
  /// new stream unless the unfinished-stream cap is reached (shed).
  Hello hello(const wire::Token& token, const std::string& name, u64 now_ns);

  std::shared_ptr<IngestStream> find(const wire::Token& token) const;
  /// Query-surface lookup: numeric id, exact name (if unique), or token
  /// hex prefix (>= 6 chars). Null when unknown or ambiguous.
  std::shared_ptr<IngestStream> find_by_key(const std::string& key) const;

  /// One supervision round: finalize abandoned open streams (stale), evict
  /// finalized streams idle past evict_after_ns.
  void sweep(u64 now_ns);
  /// Shutdown: finalize every open stream with what arrived.
  void finalize_all(u64 now_ns);

  u64 resident_bytes() const;
  size_t stream_count() const;
  size_t open_count() const;
  void for_each(const std::function<void(const IngestStream&)>& fn) const;

  const IngestOptions& options() const { return opts_; }

  // Telemetry hooks for the connection layer (null-safe).
  void note_resumed();
  void note_shed();
  void note_poisoned();
  void note_timeout();
  void note_epoch_applied();
  void note_epoch_duplicate();

 private:
  IngestOptions opts_;
  mutable std::mutex mu_;
  std::map<wire::Token, std::shared_ptr<IngestStream>> streams_;
  u64 next_id_ = 1;

  obs::Counter* m_created_ = nullptr;
  obs::Counter* m_resumed_ = nullptr;
  obs::Counter* m_shed_ = nullptr;
  obs::Counter* m_poisoned_ = nullptr;
  obs::Counter* m_timeouts_ = nullptr;
  obs::Counter* m_epochs_ = nullptr;
  obs::Counter* m_dup_epochs_ = nullptr;
  obs::Counter* m_evicted_ = nullptr;
  obs::Gauge* g_open_ = nullptr;
  obs::Gauge* g_streams_ = nullptr;
};

/// The GGWIRE1 server-side state machine over one connection's byte
/// stream. Transport-free: feed raw bytes in, collect ACK bytes out —
/// unit tests drive it directly, IngestListener drives it from a socket.
class IngestConnection {
 public:
  /// `admit_offer` gates brand-new streams' OFFERs (the degrade ladder
  /// sheds those before it ever pauses tailers); null admits everything.
  IngestConnection(IngestRegistry* registry,
                   std::function<bool()> admit_offer);

  /// Feeds received bytes; appends response bytes to *out. Returns false
  /// once the connection must close (poisoned wire, protocol error, BYE,
  /// buffer cap) — the reason is in close_reason().
  bool on_bytes(std::string_view bytes, std::string* out, u64 now_ns);

  /// The structured timeout path (listener read deadline fired): appends
  /// the final timeout ACK to *out and closes the connection.
  void on_timeout(std::string* out);

  bool open() const { return open_; }
  const std::string& close_reason() const { return close_reason_; }
  const std::shared_ptr<IngestStream>& stream() const { return stream_; }

 private:
  bool on_frame(const wire::Frame& f, std::string* out, u64 now_ns);
  bool fail(wire::Status status, const std::string& reason,
            std::string* out);

  IngestRegistry* registry_;
  std::function<bool()> admit_offer_;
  wire::Decoder decoder_;
  std::shared_ptr<IngestStream> stream_;
  u64 generation_ = 0;
  bool open_ = true;
  std::string close_reason_;
};

/// AF_UNIX ingest socket: accept loop + one thread per connection, with
/// read deadlines, connection caps, and SIGPIPE-proof writes.
class IngestListener {
 public:
  IngestListener(std::string socket_path, IngestRegistry* registry,
                 std::function<bool()> admit_offer,
                 std::function<u64()> clock);
  ~IngestListener();

  IngestListener(const IngestListener&) = delete;
  IngestListener& operator=(const IngestListener&) = delete;

  bool start(std::string* error);
  void stop();

  const std::string& path() const { return path_; }
  size_t active_connections() const {
    return active_.load(std::memory_order_acquire);
  }

 private:
  void accept_loop();
  void serve_connection(int fd);

  std::string path_;
  IngestRegistry* registry_;
  std::function<bool()> admit_offer_;
  std::function<u64()> clock_;
  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<size_t> active_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace gg::serve
