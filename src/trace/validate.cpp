#include "trace/validate.hpp"

#include <algorithm>
#include <sstream>

namespace gg {

namespace {

class Reporter {
 public:
  explicit Reporter(ValidationReport& rep) : rep_(rep) {}

  template <typename... Args>
  void operator()(Violation::Subject subject, u64 id, Args&&... args) {
    std::ostringstream os;
    (os << ... << args);
    rep_.violations.push_back(Violation{subject, id, os.str()});
  }

 private:
  ValidationReport& rep_;
};

}  // namespace

const char* to_string(Violation::Subject s) {
  switch (s) {
    case Violation::Subject::Trace: return "trace";
    case Violation::Subject::Task: return "task";
    case Violation::Subject::Fragment: return "fragment";
    case Violation::Subject::Join: return "join";
    case Violation::Subject::Loop: return "loop";
    case Violation::Subject::Chunk: return "chunk";
    case Violation::Subject::Bookkeep: return "bookkeep";
    case Violation::Subject::Depend: return "depend";
    case Violation::Subject::Worker: return "worker";
  }
  return "?";
}

std::string Violation::where() const {
  if (subject == Subject::Trace) return "trace";
  return std::string(to_string(subject)) + " " + std::to_string(id);
}

std::vector<std::string> ValidationReport::messages() const {
  std::vector<std::string> out;
  out.reserve(violations.size());
  for (const Violation& v : violations) out.push_back(v.message);
  return out;
}

ValidationReport validate_trace_structured(const Trace& trace) {
  ValidationReport rep;
  Reporter report(rep);
  using S = Violation::Subject;
  if (!trace.finalized()) {
    report(S::Trace, 0, "trace not finalized");
    return rep;
  }

  // Root task.
  size_t roots = 0;
  for (const TaskRec& t : trace.tasks) {
    if (t.uid == kRootTask) {
      ++roots;
      if (t.parent != kNoTask)
        report(S::Task, t.uid, "root task has a parent: ", t.parent);
    } else if (t.parent == kNoTask) {
      report(S::Task, t.uid, "non-root task ", t.uid, " has no parent");
    }
  }
  if (roots != 1)
    report(S::Trace, 0, "expected exactly 1 root task, found ", roots);

  // Parent existence + child_index density. Sorted (parent, child_index)
  // pairs group each parent's children contiguously, in the same ascending
  // parent order the per-parent map produced.
  std::vector<std::pair<TaskId, u32>> child_indices;
  child_indices.reserve(trace.tasks.size());
  for (const TaskRec& t : trace.tasks) {
    if (t.uid == kRootTask) continue;
    if (!trace.task_index(t.parent)) {
      report(S::Task, t.uid, "task ", t.uid, " references missing parent ",
             t.parent);
      continue;
    }
    child_indices.emplace_back(t.parent, t.child_index);
  }
  std::sort(child_indices.begin(), child_indices.end());
  for (size_t i = 0; i < child_indices.size();) {
    const TaskId parent = child_indices[i].first;
    size_t j = i;
    bool dense = true;
    for (; j < child_indices.size() && child_indices[j].first == parent; ++j) {
      if (child_indices[j].second != j - i) dense = false;
    }
    if (!dense)
      report(S::Task, parent, "task ", parent, " has non-dense child indices");
    i = j;
  }

  // Fragments per task.
  for (size_t ti = 0; ti < trace.tasks.size(); ++ti) {
    const TaskRec& t = trace.tasks[ti];
    const auto frags = trace.fragments_at(ti);
    if (frags.empty()) {
      report(S::Task, t.uid, "task ", t.uid, " has no fragments");
      continue;
    }
    const auto joins = trace.joins_at(ti);
    for (size_t i = 0; i < frags.size(); ++i) {
      const FragmentRec& f = frags[i];
      if (f.seq != i) {
        report(S::Fragment, t.uid, "task ", t.uid, " fragment seq gap at ", i);
        break;
      }
      if (f.end < f.start)
        report(S::Fragment, t.uid, "task ", t.uid, " fragment ", i,
               " ends before start");
      if (i + 1 < frags.size() && frags[i + 1].start < f.end)
        report(S::Fragment, t.uid, "task ", t.uid, " fragments ", i, " and ",
               i + 1, " overlap");
      const bool last = (i + 1 == frags.size());
      if (last && f.end_reason != FragmentEnd::TaskEnd)
        report(S::Fragment, t.uid, "task ", t.uid,
               " last fragment does not end the task");
      if (!last && f.end_reason == FragmentEnd::TaskEnd)
        report(S::Fragment, t.uid, "task ", t.uid, " fragment ", i,
               " ends task before last fragment");
      if (f.end_reason == FragmentEnd::Fork) {
        auto child = trace.task_index(f.end_ref);
        if (!child) {
          report(S::Fragment, t.uid, "task ", t.uid,
                 " fork fragment references missing child ", f.end_ref);
        } else if (trace.tasks[*child].parent != t.uid) {
          report(S::Fragment, t.uid, "task ", t.uid,
                 " fork fragment references task ", f.end_ref,
                 " that is not its child");
        }
      }
      if (f.end_reason == FragmentEnd::Loop) {
        if (!trace.loop_index(f.end_ref))
          report(S::Fragment, t.uid, "task ", t.uid, " fragment ", i,
                 " references missing loop ", f.end_ref);
      }
      if (f.end_reason == FragmentEnd::Join) {
        if (find_join(joins, f.end_ref) == nullptr)
          report(S::Fragment, t.uid, "task ", t.uid, " fragment ", i,
                 " references missing join ", f.end_ref);
      }
    }
  }

  // Loops, chunks, bookkeeping.
  for (size_t li = 0; li < trace.loops.size(); ++li) {
    const LoopRec& loop = trace.loops[li];
    if (loop.iter_end < loop.iter_begin)
      report(S::Loop, loop.uid, "loop ", loop.uid, " has inverted range");
    if (!trace.task_index(loop.enclosing_task))
      report(S::Loop, loop.uid, "loop ", loop.uid, " references missing task ",
             loop.enclosing_task);
    const auto chunks = trace.chunks_at(li);
    std::vector<std::pair<u64, u64>> ranges;
    ranges.reserve(chunks.size());
    for (const ChunkRec& c : chunks) {
      if (c.iter_begin < loop.iter_begin || c.iter_end > loop.iter_end)
        report(S::Chunk, loop.uid, "loop ", loop.uid,
               " chunk outside iteration range");
      if (c.iter_end <= c.iter_begin)
        report(S::Chunk, loop.uid, "loop ", loop.uid, " has an empty chunk");
      if (c.thread >= loop.num_threads)
        report(S::Chunk, loop.uid, "loop ", loop.uid, " chunk on thread ",
               c.thread, " >= team size ", loop.num_threads);
      ranges.emplace_back(c.iter_begin, c.iter_end);
    }
    std::sort(ranges.begin(), ranges.end());
    u64 cursor = loop.iter_begin;
    bool covered = true;
    for (auto [lo, hi] : ranges) {
      if (lo != cursor) {
        covered = false;
        break;
      }
      cursor = hi;
    }
    if (cursor != loop.iter_end) covered = false;
    if (!covered && loop.iter_end > loop.iter_begin)
      report(S::Loop, loop.uid, "loop ", loop.uid,
             " chunks do not partition the iteration range");
    for (const BookkeepRec& b : trace.bookkeeps_at(li)) {
      if (b.thread >= loop.num_threads)
        report(S::Bookkeep, loop.uid, "loop ", loop.uid, " bookkeep on thread ",
               b.thread, " >= team size ", loop.num_threads);
    }
  }

  // Chunk/bookkeep loop references.
  for (const ChunkRec& c : trace.chunks) {
    if (!trace.loop_index(c.loop))
      report(S::Chunk, c.loop, "chunk references missing loop ", c.loop);
  }
  for (const BookkeepRec& b : trace.bookkeeps) {
    if (!trace.loop_index(b.loop))
      report(S::Bookkeep, b.loop, "bookkeep references missing loop ", b.loop);
  }

  // Dependences: both endpoints exist, no self-dependence, and the
  // predecessor was spawned first (dependences order siblings in program
  // order, so runtime-assigned uids are monotone across a dependence).
  for (const DependRec& d : trace.depends) {
    if (d.pred == d.succ)
      report(S::Depend, d.succ, "self-dependence on task ", d.pred);
    if (!trace.task_index(d.pred))
      report(S::Depend, d.succ, "dependence references missing pred ", d.pred);
    if (!trace.task_index(d.succ))
      report(S::Depend, d.succ, "dependence references missing succ ", d.succ);
    if (d.pred >= d.succ)
      report(S::Depend, d.succ, "dependence pred ", d.pred,
             " not spawned before succ ", d.succ);
  }

  // Worker stats: one record per worker at most, ids within the team, and
  // internal consistency (a steal always dispatches a task on the thief).
  {
    std::vector<u16> seen;
    for (const WorkerStatsRec& s : trace.worker_stats) {
      if (static_cast<int>(s.worker) >= trace.meta.num_workers)
        report(S::Worker, s.worker, "worker stats for worker ", s.worker,
               " >= team size ", trace.meta.num_workers);
      if (std::find(seen.begin(), seen.end(), s.worker) != seen.end())
        report(S::Worker, s.worker, "duplicate worker stats for worker ",
               s.worker);
      seen.push_back(s.worker);
      if (s.steals > s.tasks_executed)
        report(S::Worker, s.worker, "worker ", s.worker, " stole ", s.steals,
               " tasks but executed only ", s.tasks_executed);
      if (s.tasks_inlined > s.tasks_spawned)
        report(S::Worker, s.worker, "worker ", s.worker, " inlined ",
               s.tasks_inlined, " of only ", s.tasks_spawned, " spawns");
    }
  }

  // Time bounds.
  const TimeNs lo = trace.meta.region_start;
  const TimeNs hi = trace.meta.region_end;
  auto in_bounds = [&](TimeNs s, TimeNs e) {
    return s >= lo && e <= hi && s <= e;
  };
  for (const FragmentRec& f : trace.fragments) {
    if (!in_bounds(f.start, f.end)) {
      report(S::Fragment, f.task, "fragment of task ", f.task,
             " outside region bounds");
      break;
    }
  }
  for (const ChunkRec& c : trace.chunks) {
    if (!in_bounds(c.start, c.end)) {
      report(S::Chunk, c.loop, "chunk of loop ", c.loop,
             " outside region bounds");
      break;
    }
  }
  return rep;
}

std::vector<std::string> validate_trace(const Trace& trace) {
  return validate_trace_structured(trace).messages();
}

}  // namespace gg
