#include "trace/trace.hpp"

#include <algorithm>
#include <limits>

#include "common/par_sort.hpp"

namespace gg {

namespace {

/// Position of the first owner whose key is >= uid — std::lower_bound's
/// answer, so duplicates resolve to their first occurrence — or nullopt
/// when that owner's key is not uid. The search probes position `uid`
/// first and gallops outward, so dense uids (uid == position) cost one or
/// two probes and any other uid set costs O(log distance).
template <class Owner>
std::optional<size_t> find_owner(const std::vector<Owner>& owners,
                                 u64 Owner::*key, u64 uid) {
  const size_t n = owners.size();
  const size_t guess = static_cast<size_t>(std::min<u64>(uid, n));
  // Invariant: owners before `lo` have key < uid; `hi` is n or has
  // key >= uid. The answer is in [lo, hi].
  size_t lo = 0, hi = n;
  if (guess < n && owners[guess].*key < uid) {
    lo = guess + 1;
    for (size_t step = 1;; step *= 2) {
      const size_t probe = guess + step;
      if (probe >= n) break;
      if (owners[probe].*key >= uid) {
        hi = probe;
        break;
      }
      lo = probe + 1;
    }
  } else {
    hi = guess;
    for (size_t step = 1; step <= guess; step *= 2) {
      const size_t probe = guess - step;
      if (owners[probe].*key < uid) {
        lo = probe + 1;
        break;
      }
      hi = probe;
    }
  }
  const auto it = std::partition_point(
      owners.begin() + static_cast<ptrdiff_t>(lo),
      owners.begin() + static_cast<ptrdiff_t>(hi),
      [&](const Owner& o) { return o.*key < uid; });
  const size_t pos = static_cast<size_t>(it - owners.begin());
  if (pos == n || owners[pos].*key != uid) return std::nullopt;
  return pos;
}

/// [lo, hi) run of each owner's records, by one linear merge of the two
/// key-sorted vectors. Duplicate owners share their uid's run.
template <class Owner, class Rec, class Range>
void build_owner_ranges(const std::vector<Owner>& owners, u64 Owner::*key,
                        const std::vector<Rec>& recs, u64 Rec::*owner,
                        std::vector<Range>& out) {
  GG_CHECK_MSG(recs.size() <= std::numeric_limits<u32>::max(),
               "too many records for 32-bit owner ranges");
  out.assign(owners.size(), Range{});
  size_t lo = 0;
  for (size_t i = 0; i < owners.size(); ++i) {
    const u64 uid = owners[i].*key;
    if (i > 0 && owners[i - 1].*key == uid) {
      out[i] = out[i - 1];
      continue;
    }
    while (lo < recs.size() && recs[lo].*owner < uid) ++lo;
    size_t hi = lo;
    while (hi < recs.size() && recs[hi].*owner == uid) ++hi;
    out[i] = Range{static_cast<u32>(lo), static_cast<u32>(hi)};
    lo = hi;
  }
}

/// Records owned by `uid`, by binary search over the owner-sorted vector —
/// the lookup for records whose owner has no record of its own.
template <class Rec>
std::span<const Rec> owned_by(const std::vector<Rec>& recs, u64 Rec::*owner,
                              u64 uid) {
  const auto lo = std::partition_point(
      recs.begin(), recs.end(), [&](const Rec& r) { return r.*owner < uid; });
  const auto hi = std::partition_point(
      lo, recs.end(), [&](const Rec& r) { return r.*owner == uid; });
  return {recs.data() + (lo - recs.begin()), static_cast<size_t>(hi - lo)};
}

template <class Rec>
std::vector<const Rec*> pointers_to(std::span<const Rec> recs) {
  std::vector<const Rec*> out;
  out.reserve(recs.size());
  for (const Rec& r : recs) out.push_back(&r);
  return out;
}

}  // namespace

const char* to_string(ScheduleKind k) {
  switch (k) {
    case ScheduleKind::Static: return "static";
    case ScheduleKind::Dynamic: return "dynamic";
    case ScheduleKind::Guided: return "guided";
  }
  return "?";
}

void Trace::finalize(int threads) {
  // Stable sorts throughout: records with equal keys (possible in damaged
  // inputs) keep their arrival order, and par_stable_sort produces the same
  // permutation for every thread count — so a salvaged trace serializes
  // identically whether finalized serial or parallel.
  par_stable_sort(tasks, threads, [](const TaskRec& a, const TaskRec& b) {
    return a.uid < b.uid;
  });
  par_stable_sort(fragments, threads,
                  [](const FragmentRec& a, const FragmentRec& b) {
                    return a.task != b.task ? a.task < b.task : a.seq < b.seq;
                  });
  par_stable_sort(joins, threads, [](const JoinRec& a, const JoinRec& b) {
    return a.task != b.task ? a.task < b.task : a.seq < b.seq;
  });
  par_stable_sort(loops, threads, [](const LoopRec& a, const LoopRec& b) {
    return a.uid < b.uid;
  });
  par_stable_sort(chunks, threads, [](const ChunkRec& a, const ChunkRec& b) {
    if (a.loop != b.loop) return a.loop < b.loop;
    if (a.thread != b.thread) return a.thread < b.thread;
    return a.seq_on_thread < b.seq_on_thread;
  });
  par_stable_sort(depends, threads,
                  [](const DependRec& a, const DependRec& b) {
                    return a.succ != b.succ ? a.succ < b.succ
                                            : a.pred < b.pred;
                  });
  par_stable_sort(bookkeeps, threads,
                  [](const BookkeepRec& a, const BookkeepRec& b) {
                    if (a.loop != b.loop) return a.loop < b.loop;
                    if (a.thread != b.thread) return a.thread < b.thread;
                    return a.seq_on_thread < b.seq_on_thread;
                  });
  par_stable_sort(worker_stats, threads,
                  [](const WorkerStatsRec& a, const WorkerStatsRec& b) {
                    return a.worker < b.worker;
                  });

  build_owner_ranges(tasks, &TaskRec::uid, fragments, &FragmentRec::task,
                     frag_ranges_);
  build_owner_ranges(tasks, &TaskRec::uid, joins, &JoinRec::task,
                     join_ranges_);
  build_owner_ranges(loops, &LoopRec::uid, chunks, &ChunkRec::loop,
                     chunk_ranges_);
  build_owner_ranges(loops, &LoopRec::uid, bookkeeps, &BookkeepRec::loop,
                     bookkeep_ranges_);
  children_index_.clear();
  children_index_.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) children_index_.push_back(i);
  par_stable_sort(children_index_, threads, [this](size_t a, size_t b) {
    const TaskRec& ta = tasks[a];
    const TaskRec& tb = tasks[b];
    return ta.parent != tb.parent ? ta.parent < tb.parent
                                  : ta.child_index < tb.child_index;
  });
  finalized_ = true;
}

std::optional<size_t> Trace::task_index(TaskId uid) const {
  if (!finalized_) return std::nullopt;
  return find_owner(tasks, &TaskRec::uid, uid);
}

std::optional<size_t> Trace::loop_index(LoopId uid) const {
  if (!finalized_) return std::nullopt;
  return find_owner(loops, &LoopRec::uid, uid);
}

std::span<const FragmentRec> Trace::fragments_span(TaskId uid) const {
  if (!finalized_) return {};
  if (const auto i = find_owner(tasks, &TaskRec::uid, uid))
    return fragments_at(*i);
  return owned_by(fragments, &FragmentRec::task, uid);
}

std::span<const JoinRec> Trace::joins_span(TaskId uid) const {
  if (!finalized_) return {};
  if (const auto i = find_owner(tasks, &TaskRec::uid, uid)) return joins_at(*i);
  return owned_by(joins, &JoinRec::task, uid);
}

std::span<const ChunkRec> Trace::chunks_span(LoopId uid) const {
  if (!finalized_) return {};
  if (const auto l = find_owner(loops, &LoopRec::uid, uid)) return chunks_at(*l);
  return owned_by(chunks, &ChunkRec::loop, uid);
}

std::span<const BookkeepRec> Trace::bookkeeps_span(LoopId uid) const {
  if (!finalized_) return {};
  if (const auto l = find_owner(loops, &LoopRec::uid, uid))
    return bookkeeps_at(*l);
  return owned_by(bookkeeps, &BookkeepRec::loop, uid);
}

const JoinRec* find_join(std::span<const JoinRec> joins, u64 seq) {
  // The span is seq-sorted (Trace::finalize), so the last occurrence is the
  // element before the upper bound. u32 seqs promote losslessly to u64.
  auto hi = std::upper_bound(
      joins.begin(), joins.end(), seq,
      [](u64 v, const JoinRec& j) { return v < j.seq; });
  if (hi == joins.begin()) return nullptr;
  const JoinRec* j = &*(hi - 1);
  return j->seq == seq ? j : nullptr;
}

std::vector<const FragmentRec*> Trace::fragments_of(TaskId uid) const {
  return pointers_to(fragments_span(uid));
}

std::vector<const JoinRec*> Trace::joins_of(TaskId uid) const {
  return pointers_to(joins_span(uid));
}

std::vector<const ChunkRec*> Trace::chunks_of(LoopId uid) const {
  return pointers_to(chunks_span(uid));
}

std::vector<const BookkeepRec*> Trace::bookkeeps_of(LoopId uid) const {
  return pointers_to(bookkeeps_span(uid));
}

std::vector<const TaskRec*> Trace::children_of(TaskId uid) const {
  if (!finalized_) return {};
  auto lo = std::lower_bound(
      children_index_.begin(), children_index_.end(), uid,
      [this](size_t i, TaskId v) { return tasks[i].parent < v; });
  std::vector<const TaskRec*> out;
  for (auto it = lo; it != children_index_.end() && tasks[*it].parent == uid;
       ++it) {
    out.push_back(&tasks[*it]);
  }
  return out;
}

std::vector<TaskId> Trace::predecessors_of(TaskId uid) const {
  if (!finalized_) return {};
  std::vector<TaskId> out;
  auto lo = std::lower_bound(
      depends.begin(), depends.end(), uid,
      [](const DependRec& d, TaskId v) { return d.succ < v; });
  for (auto it = lo; it != depends.end() && it->succ == uid; ++it)
    out.push_back(it->pred);
  return out;
}

const WorkerStatsRec* Trace::worker_stats_of(u16 worker) const {
  if (!finalized_) return nullptr;
  auto it = std::lower_bound(
      worker_stats.begin(), worker_stats.end(), worker,
      [](const WorkerStatsRec& s, u16 v) { return s.worker < v; });
  if (it == worker_stats.end() || it->worker != worker) return nullptr;
  return &*it;
}

size_t Trace::grain_count() const {
  size_t n = chunks.size();
  for (const TaskRec& t : tasks) {
    if (t.uid != kRootTask) ++n;
  }
  return n;
}

namespace {

/// First note starting with `prefix` followed by a space, with the prefix
/// stripped; "" if absent.
std::string note_with_prefix(const std::vector<std::string>& notes,
                             std::string_view prefix) {
  for (const std::string& n : notes) {
    if (n.size() > prefix.size() && n.compare(0, prefix.size(), prefix) == 0 &&
        n[prefix.size()] == ' ') {
      return n.substr(prefix.size() + 1);
    }
  }
  return {};
}

}  // namespace

bool TraceMeta::recovered() const {
  return !note_with_prefix(notes, "recovered").empty();
}

std::string TraceMeta::recovery_note() const {
  return note_with_prefix(notes, "recovered");
}

std::string TraceMeta::crash_note() const {
  return note_with_prefix(notes, "crash");
}

std::string TraceMeta::supervisor_note() const {
  return note_with_prefix(notes, "supervisor");
}

std::string TraceMeta::recorder_note() const {
  return note_with_prefix(notes, "recorder");
}

std::optional<double> TraceMeta::recorder_overhead_pct() const {
  const std::string note = recorder_note();
  const std::string key = "overhead_pct=";
  const size_t at = note.find(key);
  if (at == std::string::npos) return std::nullopt;
  try {
    return std::stod(note.substr(at + key.size()));
  } catch (...) {
    return std::nullopt;
  }
}

StrId intern_src(StringTable& strings, std::string_view file, int line,
                 std::string_view func) {
  std::string s;
  s.reserve(file.size() + func.size() + 16);
  s += file;
  s += ':';
  s += std::to_string(line);
  s += '(';
  s += func;
  s += ')';
  return strings.intern(s);
}

}  // namespace gg
