// The in-memory trace: every record captured during one profiled execution,
// plus execution metadata. Produced by a TraceRecorder attached to either
// runtime; consumed by the grain-graph builder and metric derivations.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "common/types.hpp"
#include "trace/records.hpp"

namespace gg {

/// Execution-wide facts needed to interpret a trace.
struct TraceMeta {
  std::string program;       ///< e.g. "sort"
  std::string runtime;       ///< e.g. "sim/mir-ws" or "threaded/ws"
  std::string topology;      ///< topology preset name
  int num_workers = 1;       ///< team size used for the run
  int num_cores = 1;         ///< cores of the (possibly simulated) machine
  double ghz = 1.0;          ///< core frequency for cycle<->ns conversion
  TimeNs region_start = 0;   ///< profiled-region bounds (makespan =
  TimeNs region_end = 0;     ///<   region_end - region_start)
  std::vector<std::string> notes;  ///< free-form provenance, e.g. knobs used
  // Profiling-substrate accounting (trace-format v3; defaults describe
  // pre-v3 traces, which were always recorded with profiling on).
  bool profiled = true;           ///< per-grain profiling was enabled
  u64 trace_buffer_bytes = 0;     ///< recorder buffer footprint at finish
  std::string clock_source;       ///< "tsc", "steady_clock", or "virtual"

  // Crash provenance. Spool recovery (trace/spool.hpp) stamps well-known
  // note prefixes instead of bumping the trace format: "recovered ..." for
  // a partial reconstruction, "crash ..." naming the signal/reason, and
  // "supervisor ..." carrying the stall diagnostic. These accessors are how
  // reports and exporters detect and render partial runs.

  /// True when this trace was reconstructed from a spool of a run that did
  /// not shut down cleanly (some records may be missing).
  bool recovered() const;

  /// The "recovered ..." note (frame/epoch accounting), or "" if clean.
  std::string recovery_note() const;

  /// The crash reason ("signal=11 SIGSEGV", "terminate", ...), or "".
  std::string crash_note() const;

  /// The supervisor's stall diagnostic (single line, "; "-joined), or "".
  std::string supervisor_note() const;

  /// The recorder's self-measured overhead note ("overhead_pct=0.42
  /// events=N est_ns_per_event=25"), stamped by the threaded engine when
  /// telemetry is enabled, or "" when the run did not self-measure.
  std::string recorder_note() const;

  /// Parsed overhead percentage from recorder_note(), if present. Reports
  /// compare it against the paper's 2.5% instrumentation budget.
  std::optional<double> recorder_overhead_pct() const;
};

class Trace {
 public:
  TraceMeta meta;

  std::vector<TaskRec> tasks;
  std::vector<FragmentRec> fragments;
  std::vector<JoinRec> joins;
  std::vector<LoopRec> loops;
  std::vector<ChunkRec> chunks;
  std::vector<BookkeepRec> bookkeeps;
  std::vector<DependRec> depends;
  std::vector<WorkerStatsRec> worker_stats;  ///< one per worker; may be empty
                                             ///< (pre-v3 or unprofiled runs)

  StringTable strings;

  /// Sorts all record vectors into canonical order (tasks by uid, fragments
  /// by (task, seq), ...) and builds the per-owner record ranges. Must be
  /// called after recording and after deserialization, before lookups.
  /// Lookups on a not-yet-finalized trace return empty/nullopt instead of
  /// aborting, so partially-ingested traces are safe to probe.
  ///
  /// The record vectors are public, and the ranges are a snapshot of them:
  /// after any edit (push, erase, reorder — salvage does all three) call
  /// finalize() again before the next lookup. The *_at accessors check
  /// that a cached range still lies inside its vector, so a stale read
  /// aborts instead of reading out of bounds.
  ///
  /// `threads` parallelizes the sorts (par_stable_sort). Every sort is
  /// stable, so the canonical order — including the relative order of
  /// duplicate-key records a damaged input may contain — is identical for
  /// every thread count. Already-sorted vectors are left untouched.
  void finalize(int threads = 1);

  /// Index of a task by uid after finalize(); nullopt if absent. Duplicate
  /// uids (damaged traces) resolve to the first occurrence. O(1) when uids
  /// are dense (uid == position, as both runtimes assign them); otherwise a
  /// galloping search from position `uid`, O(log distance).
  std::optional<size_t> task_index(TaskId uid) const;

  /// Index of a loop by uid after finalize(); nullopt if absent. Same
  /// search and duplicate rule as task_index().
  std::optional<size_t> loop_index(LoopId uid) const;

  // Owner-indexed record ranges, O(1). `task_idx` and `loop_idx` are
  // positions in `tasks` / `loops` (e.g. from task_index()); calling these
  // before finalize() aborts. Duplicate owners (damaged traces) each see
  // the full run of their uid. These are what the analysis walks use:
  // resolve a uid once, then walk owners by index.

  /// Fragments of tasks[task_idx] in seq order.
  std::span<const FragmentRec> fragments_at(size_t task_idx) const {
    return range_at(fragments, frag_ranges_, task_idx);
  }

  /// Joins of tasks[task_idx] in seq order.
  std::span<const JoinRec> joins_at(size_t task_idx) const {
    return range_at(joins, join_ranges_, task_idx);
  }

  /// Chunks of loops[loop_idx] in (thread, seq_on_thread) order.
  std::span<const ChunkRec> chunks_at(size_t loop_idx) const {
    return range_at(chunks, chunk_ranges_, loop_idx);
  }

  /// Book-keeping records of loops[loop_idx] in (thread, seq_on_thread)
  /// order.
  std::span<const BookkeepRec> bookkeeps_at(size_t loop_idx) const {
    return range_at(bookkeeps, bookkeep_ranges_, loop_idx);
  }

  // Zero-copy range accessors by uid: an index lookup plus the owner's
  // range. A uid without an owner record (orphan records of a damaged
  // trace) falls back to a binary search over the sorted records. The *_of
  // pointer-vector accessors below allocate per call and remain for
  // convenience.

  /// Fragments of one task in seq order; empty before finalize().
  std::span<const FragmentRec> fragments_span(TaskId uid) const;

  /// Joins of one task in seq order.
  std::span<const JoinRec> joins_span(TaskId uid) const;

  /// Chunks of one loop in (thread, seq_on_thread) order.
  std::span<const ChunkRec> chunks_span(LoopId uid) const;

  /// Book-keeping records of one loop in (thread, seq_on_thread) order.
  std::span<const BookkeepRec> bookkeeps_span(LoopId uid) const;

  /// Fragments of one task in seq order (contiguous after finalize()).
  std::vector<const FragmentRec*> fragments_of(TaskId uid) const;

  /// Joins of one task in seq order.
  std::vector<const JoinRec*> joins_of(TaskId uid) const;

  /// Chunks of one loop.
  std::vector<const ChunkRec*> chunks_of(LoopId uid) const;

  /// Book-keeping records of one loop.
  std::vector<const BookkeepRec*> bookkeeps_of(LoopId uid) const;

  /// Children of a task in creation order. Indexed after finalize()
  /// (O(log n + k) per call rather than a scan over all tasks).
  std::vector<const TaskRec*> children_of(TaskId uid) const;

  /// Dependence predecessors of a task (sorted after finalize()).
  std::vector<TaskId> predecessors_of(TaskId uid) const;

  /// Stats of one worker after finalize(); nullptr if not recorded.
  const WorkerStatsRec* worker_stats_of(u16 worker) const;

  TimeNs makespan() const { return meta.region_end - meta.region_start; }

  /// Total grains (tasks excluding the implicit root, plus chunks) — the
  /// counts the paper quotes per figure ("contains N grains").
  size_t grain_count() const;

  bool finalized() const { return finalized_; }

 private:
  /// [lo, hi) positions of one owner's records in a record vector.
  struct Range {
    u32 lo = 0;
    u32 hi = 0;
  };

  template <class Rec>
  static std::span<const Rec> range_at(const std::vector<Rec>& recs,
                                       const std::vector<Range>& ranges,
                                       size_t owner) {
    GG_CHECK_MSG(owner < ranges.size() && ranges[owner].hi <= recs.size(),
                 "stale owner range: finalize() the trace after editing it");
    const Range r = ranges[owner];
    return {recs.data() + r.lo, static_cast<size_t>(r.hi - r.lo)};
  }

  bool finalized_ = false;
  std::vector<Range> frag_ranges_;      // per task position
  std::vector<Range> join_ranges_;      // per task position
  std::vector<Range> chunk_ranges_;     // per loop position
  std::vector<Range> bookkeep_ranges_;  // per loop position
  std::vector<size_t> children_index_;  // task indices, sorted by
                                        // (parent, child_index)
};

/// Join with the given seq in one task's (seq-sorted) span, or nullptr.
/// Damaged traces can carry duplicate seqs; the *last* occurrence is
/// returned, matching what a forward linear scan that keeps overwriting its
/// match would select — every caller that resolves a fragment's
/// FragmentEnd::Join end_ref must use this so they agree on damaged inputs.
const JoinRec* find_join(std::span<const JoinRec> joins, u64 seq);

/// Interns a "file:line(func)" source identifier, the format the paper uses
/// to name task/loop definitions (e.g. "sparselu.c:246(bmod)").
StrId intern_src(StringTable& strings, std::string_view file, int line,
                 std::string_view func);

}  // namespace gg
