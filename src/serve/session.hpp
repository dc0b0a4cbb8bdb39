// Per-client session lifecycle over one tailed spool.
//
// A session wraps one SpoolTailer and owns the stream's life: attach when
// the file appears, tail while the writer lives, seal on a clean footer,
// hand a crashed stream (crash footer, or footer-less staleness) to the
// recovery path automatically, and expose the finalized trace to queries.
//
//   Tailing ──clean footer──────▶ Sealed
//      │  └───crash footer──────▶ Crashed        (recovery hand-off)
//      │  └───no growth for stale_after_ns──▶ Stale  (footer-less loss)
//      │  └───unrecoverable stream──────────▶ Failed
//      └───(admission pressure)⇄ paused flag, orthogonal to the states
//
// Sealed/Crashed/Stale all run the same finalize path: tailer.finalize()
// (batch-identical tail mapping + provenance), then the salvage pass when
// the stream was degraded — exactly the `gganalyze --recover` pipeline, so
// a session's post-recovery metrics are byte-identical to a batch run over
// the same spool. Idle finalized sessions are evicted by the server after
// evict_after_ns to bound resident memory.
//
// REPORT answers are snapshots: the session hands out its finalized trace
// (shared, so a query keeps it alive across eviction) or a copy of its live
// records, and the analysis runs on that with no lock held. Each session
// caches the rendered answer for its current ReportKey.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "serve/tailer.hpp"
#include "trace/trace.hpp"

namespace gg::serve {

enum class SessionState : u8 {
  Tailing,  ///< live: polling the spool
  Sealed,   ///< clean footer: finalized, queryable
  Crashed,  ///< crash footer: recovered + salvaged, queryable
  Stale,    ///< footer-less writer death (staleness): recovered + salvaged
  Failed,   ///< nothing recoverable (bad magic / empty stream)
};

const char* session_state_name(SessionState s);

struct SessionOptions {
  TailerOptions tailer;
  /// No file growth and no footer for this long → the writer is presumed
  /// dead; the session finalizes as a footer-less crash.
  u64 stale_after_ns = 10'000'000'000;
  /// A finalized session idle (no queries) this long is eligible for
  /// eviction by the server's admission sweep.
  u64 evict_after_ns = 60'000'000'000;
  /// Lower priority is paused first under admission pressure.
  int priority = 0;
};

/// What a session's REPORT answer depends on: the frames applied so far,
/// and whether the session is finalized (a live snapshot and the finalized
/// report of the same frames are different bytes).
struct ReportKey {
  bool finalized = false;
  u64 applied = 0;
  bool operator==(const ReportKey&) const = default;
};

/// What a REPORT analyzes, captured under the owning session's lock. At
/// most one of the traces is set; neither means nothing is analyzable.
struct ReportSnapshot {
  ReportKey key;
  std::shared_ptr<const Trace> finalized;  ///< the finalized trace, shared
  std::unique_ptr<Trace> live;             ///< a copy of the live records
};

/// The one REPORT path for both session types, run with no lock held. A
/// live copy first gets the repairs finalize would apply (region bounds,
/// finalize, salvage), so the live answer converges on the finalized one.
/// Empty when nothing is analyzable.
std::string snapshot_report_text(ReportSnapshot snap);

/// One session's REPORT cache: a single slot holding the rendered answer
/// for one key. The bytes, not the Analysis: a 300k-grain report is about
/// 240 KB, its graph and tables hundreds of MB. Thread-safe.
class ReportCache {
 public:
  /// The cached answer when it was rendered for `key`, else null.
  std::shared_ptr<const std::string> find(const ReportKey& key) const;
  void store(const ReportKey& key, std::shared_ptr<const std::string> text);
  u64 bytes() const;

 private:
  mutable std::mutex mu_;
  ReportKey key_;
  std::shared_ptr<const std::string> text_;
};

/// Heap bytes of a trace's record vectors: what a finalized session keeps
/// resident.
u64 trace_resident_bytes(const Trace& t);

class Session {
 public:
  Session(u64 id, std::string path, const SessionOptions& opts);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// One supervision round: poll the tailer (unless paused), run the
  /// lifecycle transitions. Returns frames applied.
  size_t tick(u64 now_ns);

  /// Admission backpressure: a paused session stops reading (its writer
  /// keeps appending to the file — nothing is lost, ingestion just lags).
  void pause(u64 now_ns);
  void resume(u64 now_ns);
  bool paused() const { return paused_; }

  /// Forces the end-of-life transition now (server shutdown / eviction of
  /// a still-tailing session). Safe to call repeatedly.
  void finalize(u64 now_ns);

  u64 id() const { return id_; }
  const std::string& path() const { return path_; }
  SessionState state() const { return state_; }
  bool finalized() const { return finalized_; }
  /// Usable after finalize: false means nothing recoverable (Failed).
  bool usable() const { return usable_; }
  int priority() const { return opts_.priority; }
  u64 last_activity_ns() const { return last_activity_ns_; }
  u64 last_query_ns() const { return last_query_ns_; }
  void touch_query(u64 now_ns) { last_query_ns_ = now_ns; }

  /// Records, buffered bytes and the cached REPORT answer.
  u64 resident_bytes() const;
  const SpoolTailer& tailer() const { return tailer_; }

  /// The recovery report: the tailer's accumulating one while live, the
  /// frozen copy after finalize. Null only before the header parsed.
  const spool::RecoverReport* report() const;

  /// The finalized (salvaged, validated) trace; null until finalize and
  /// for Failed sessions.
  const Trace* trace() const { return usable_ ? trace_.get() : nullptr; }

  /// Cheap query: one status line (id, state, frames, epochs, resident).
  std::string status_line() const;

  /// The key the current REPORT answer is cached under.
  ReportKey report_key() const;
  /// The REPORT input: the shared finalized trace, or a copy of the live
  /// records (the only heavy step the caller's lock covers).
  ReportSnapshot snapshot() const;
  ReportCache& cache() const { return cache_; }

 private:
  void run_finalize(u64 now_ns, SessionState end_state);

  u64 id_ = 0;
  std::string path_;
  SessionOptions opts_;
  SpoolTailer tailer_;
  SessionState state_ = SessionState::Tailing;
  std::shared_ptr<const Trace> trace_;  ///< set once finalized_ && usable_
  spool::RecoverReport report_;         ///< frozen at finalize
  mutable ReportCache cache_;
  u64 last_activity_ns_ = 0;
  u64 last_query_ns_ = 0;
  bool paused_ = false;
  bool finalized_ = false;
  bool usable_ = false;
};

/// The `gganalyze --recover` degradation rule: a recovered stream needs the
/// salvage pass when anything was lost or repaired. Shared with tools so
/// live and batch ingestion stay in lockstep.
bool recovery_degraded(const spool::RecoverReport& rep);

/// The analysis half of the query path: topology from the trace's own
/// metadata (generic4 fallback), full analyze(), textual report. Byte-for-
/// byte what `gganalyze` prints for the same trace.
std::string analysis_report_text(const Trace& trace);

}  // namespace gg::serve
