#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "trace/recorder.hpp"
#include "trace/salvage.hpp"
#include "trace/serialize.hpp"
#include "trace/synth.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"

namespace gg {
namespace {

// Builds a small, fully consistent trace: root spawns two tasks, waits, and
// runs one 2-thread static loop with two chunks.
Trace make_sample_trace() {
  TraceRecorder rec(2);
  auto w0 = rec.writer(0);
  auto w1 = rec.writer(1);

  const StrId src_root = rec.intern("<root>");
  const StrId src_task = rec.intern_source("demo.c", 10, "work");
  const StrId src_loop = rec.intern_source("demo.c", 50, "loop");

  TaskRec root;
  root.uid = kRootTask;
  root.parent = kNoTask;
  root.src = src_root;
  w0.task(root);

  // Root fragments: [0,10) fork t1, [12,20) fork t2, [22,30) join, [40,41) loop,
  // [100,101) end.
  auto frag = [&](TaskId task, u32 seq, TimeNs s, TimeNs e, FragmentEnd r,
                  u64 ref) {
    FragmentRec f;
    f.task = task;
    f.seq = seq;
    f.start = s;
    f.end = e;
    f.end_reason = r;
    f.end_ref = ref;
    f.counters.compute = e - s;
    return f;
  };
  w0.fragment(frag(kRootTask, 0, 0, 10, FragmentEnd::Fork, 1));
  w0.fragment(frag(kRootTask, 1, 12, 20, FragmentEnd::Fork, 2));
  w0.fragment(frag(kRootTask, 2, 22, 30, FragmentEnd::Join, 0));
  w0.fragment(frag(kRootTask, 3, 40, 41, FragmentEnd::Loop, 1));
  w0.fragment(frag(kRootTask, 4, 100, 101, FragmentEnd::TaskEnd, 0));

  TaskRec t1;
  t1.uid = 1;
  t1.parent = kRootTask;
  t1.child_index = 0;
  t1.src = src_task;
  t1.create_time = 10;
  t1.creation_cost = 2;
  w0.task(t1);
  TaskRec t2 = t1;
  t2.uid = 2;
  t2.child_index = 1;
  t2.create_time = 20;
  w0.task(t2);

  w1.fragment(frag(1, 0, 11, 25, FragmentEnd::TaskEnd, 0));
  w0.fragment(frag(2, 0, 21, 28, FragmentEnd::TaskEnd, 0));

  JoinRec j;
  j.task = kRootTask;
  j.seq = 0;
  j.start = 30;
  j.end = 39;
  w0.join(j);

  LoopRec loop;
  loop.uid = 1;
  loop.enclosing_task = kRootTask;
  loop.src = src_loop;
  loop.sched = ScheduleKind::Static;
  loop.iter_begin = 0;
  loop.iter_end = 8;
  loop.num_threads = 2;
  loop.starting_thread = 0;
  loop.start = 41;
  loop.end = 99;
  w0.loop(loop);

  auto chunk = [&](u16 thread, u32 seq, u64 lo, u64 hi, TimeNs s, TimeNs e) {
    ChunkRec c;
    c.loop = 1;
    c.thread = thread;
    c.core = thread;
    c.seq_on_thread = seq;
    c.iter_begin = lo;
    c.iter_end = hi;
    c.start = s;
    c.end = e;
    c.counters.compute = e - s;
    return c;
  };
  auto book = [&](u16 thread, u32 seq, TimeNs s, TimeNs e, bool got) {
    BookkeepRec b;
    b.loop = 1;
    b.thread = thread;
    b.core = thread;
    b.seq_on_thread = seq;
    b.start = s;
    b.end = e;
    b.got_chunk = got;
    return b;
  };
  w0.bookkeep(book(0, 0, 42, 43, true));
  w0.chunk(chunk(0, 0, 0, 4, 43, 60));
  w0.bookkeep(book(0, 1, 60, 61, false));
  w1.bookkeep(book(1, 0, 42, 44, true));
  w1.chunk(chunk(1, 0, 4, 8, 44, 70));
  w1.bookkeep(book(1, 1, 70, 71, false));

  auto stats = [&](u16 worker) {
    WorkerStatsRec s;
    s.worker = worker;
    s.tasks_spawned = 2 + worker;
    s.tasks_executed = 1 + worker;
    s.tasks_inlined = 1;
    s.steals = worker;  // <= tasks_executed
    s.steal_failures = 3;
    s.cas_failures = 1;
    s.deque_pushes = 2;
    s.deque_pops = 1;
    s.deque_resizes = worker;
    s.taskwait_helps = 1;
    s.idle_ns = 7 + worker;
    s.trace_bytes = 1000 + worker;
    return s;
  };
  w0.stats(stats(0));
  w1.stats(stats(1));

  TraceMeta meta;
  meta.program = "sample";
  meta.runtime = "handmade";
  meta.topology = "generic4";
  meta.num_workers = 2;
  meta.num_cores = 2;
  meta.ghz = 1.0;
  meta.region_start = 0;
  meta.region_end = 101;
  meta.notes = {"note one", "note two"};
  meta.profiled = true;
  meta.clock_source = "steady_clock";
  return rec.finish(meta);
}

TEST(TraceTest, SampleTraceIsValid) {
  const Trace t = make_sample_trace();
  const auto errs = validate_trace(t);
  EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs.front());
}

TEST(TraceTest, FinalizeSortsAndIndexes) {
  const Trace t = make_sample_trace();
  ASSERT_TRUE(t.finalized());
  ASSERT_TRUE(t.task_index(kRootTask).has_value());
  ASSERT_TRUE(t.task_index(2).has_value());
  EXPECT_FALSE(t.task_index(99).has_value());
  const auto frags = t.fragments_of(kRootTask);
  ASSERT_EQ(frags.size(), 5u);
  for (u32 i = 0; i < frags.size(); ++i) EXPECT_EQ(frags[i]->seq, i);
  EXPECT_EQ(t.fragments_of(1).size(), 1u);
  EXPECT_EQ(t.children_of(kRootTask).size(), 2u);
  EXPECT_EQ(t.children_of(1).size(), 0u);
  EXPECT_EQ(t.joins_of(kRootTask).size(), 1u);
  EXPECT_EQ(t.chunks_of(1).size(), 2u);
  EXPECT_EQ(t.bookkeeps_of(1).size(), 4u);
}

TEST(TraceTest, GrainCountExcludesRootIncludesChunks) {
  const Trace t = make_sample_trace();
  // 2 tasks + 2 chunks.
  EXPECT_EQ(t.grain_count(), 4u);
}

TEST(TraceTest, MakespanFromMeta) {
  const Trace t = make_sample_trace();
  EXPECT_EQ(t.makespan(), 101u);
}

TEST(TraceTest, InternSrcFormat) {
  StringTable st;
  const StrId id = intern_src(st, "sparselu.c", 246, "bmod");
  EXPECT_EQ(st.get(id), "sparselu.c:246(bmod)");
}

TEST(TraceSerializeTest, RoundTripPreservesEverything) {
  const Trace t = make_sample_trace();
  std::ostringstream os;
  save_trace(t, os);
  std::istringstream is(os.str());
  std::string error;
  auto loaded = load_trace(is, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  EXPECT_EQ(loaded->meta.program, t.meta.program);
  EXPECT_EQ(loaded->meta.runtime, t.meta.runtime);
  EXPECT_EQ(loaded->meta.num_workers, t.meta.num_workers);
  EXPECT_EQ(loaded->meta.region_end, t.meta.region_end);
  EXPECT_EQ(loaded->meta.notes, t.meta.notes);
  ASSERT_EQ(loaded->tasks.size(), t.tasks.size());
  ASSERT_EQ(loaded->fragments.size(), t.fragments.size());
  ASSERT_EQ(loaded->joins.size(), t.joins.size());
  ASSERT_EQ(loaded->loops.size(), t.loops.size());
  ASSERT_EQ(loaded->chunks.size(), t.chunks.size());
  ASSERT_EQ(loaded->bookkeeps.size(), t.bookkeeps.size());
  for (size_t i = 0; i < t.tasks.size(); ++i) {
    EXPECT_EQ(loaded->tasks[i].uid, t.tasks[i].uid);
    EXPECT_EQ(loaded->tasks[i].parent, t.tasks[i].parent);
    EXPECT_EQ(loaded->tasks[i].src, t.tasks[i].src);
  }
  for (size_t i = 0; i < t.fragments.size(); ++i) {
    EXPECT_EQ(loaded->fragments[i].start, t.fragments[i].start);
    EXPECT_EQ(loaded->fragments[i].end_reason, t.fragments[i].end_reason);
    EXPECT_EQ(loaded->fragments[i].counters.compute,
              t.fragments[i].counters.compute);
  }
  // String table identical.
  ASSERT_EQ(loaded->strings.size(), t.strings.size());
  for (StrId i = 0; i < t.strings.size(); ++i)
    EXPECT_EQ(loaded->strings.get(i), t.strings.get(i));
  // Worker stats and the v3 meta fields.
  EXPECT_EQ(loaded->meta.profiled, t.meta.profiled);
  EXPECT_EQ(loaded->meta.clock_source, t.meta.clock_source);
  EXPECT_EQ(loaded->meta.trace_buffer_bytes, t.meta.trace_buffer_bytes);
  ASSERT_EQ(loaded->worker_stats.size(), t.worker_stats.size());
  for (size_t i = 0; i < t.worker_stats.size(); ++i) {
    const WorkerStatsRec& a = loaded->worker_stats[i];
    const WorkerStatsRec& b = t.worker_stats[i];
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_EQ(a.tasks_spawned, b.tasks_spawned);
    EXPECT_EQ(a.tasks_executed, b.tasks_executed);
    EXPECT_EQ(a.tasks_inlined, b.tasks_inlined);
    EXPECT_EQ(a.steals, b.steals);
    EXPECT_EQ(a.steal_failures, b.steal_failures);
    EXPECT_EQ(a.cas_failures, b.cas_failures);
    EXPECT_EQ(a.deque_pushes, b.deque_pushes);
    EXPECT_EQ(a.deque_pops, b.deque_pops);
    EXPECT_EQ(a.deque_resizes, b.deque_resizes);
    EXPECT_EQ(a.taskwait_helps, b.taskwait_helps);
    EXPECT_EQ(a.idle_ns, b.idle_ns);
    EXPECT_EQ(a.trace_bytes, b.trace_bytes);
  }
  // And the loaded trace still validates.
  EXPECT_TRUE(validate_trace(*loaded).empty());
}

TEST(TraceSerializeTest, BinaryRoundTripPreservesWorkerStats) {
  const Trace t = make_sample_trace();
  ASSERT_EQ(t.worker_stats.size(), 2u);
  std::ostringstream os(std::ios::binary);
  save_trace_binary(t, os);
  std::istringstream is(os.str(), std::ios::binary);
  std::string error;
  auto loaded = load_trace_binary(is, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->meta.profiled, t.meta.profiled);
  EXPECT_EQ(loaded->meta.clock_source, t.meta.clock_source);
  EXPECT_EQ(loaded->meta.trace_buffer_bytes, t.meta.trace_buffer_bytes);
  ASSERT_EQ(loaded->worker_stats.size(), t.worker_stats.size());
  for (size_t i = 0; i < t.worker_stats.size(); ++i) {
    const WorkerStatsRec& a = loaded->worker_stats[i];
    const WorkerStatsRec& b = t.worker_stats[i];
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_EQ(a.tasks_spawned, b.tasks_spawned);
    EXPECT_EQ(a.steals, b.steals);
    EXPECT_EQ(a.cas_failures, b.cas_failures);
    EXPECT_EQ(a.deque_resizes, b.deque_resizes);
    EXPECT_EQ(a.idle_ns, b.idle_ns);
    EXPECT_EQ(a.trace_bytes, b.trace_bytes);
  }
  EXPECT_TRUE(validate_trace(*loaded).empty());
}

TEST(TraceSerializeTest, PreV3TextTraceStillLoads) {
  // A v2 writer never emitted metax/wstat lines; strip them and lower the
  // version header to simulate an old on-disk trace.
  const Trace t = make_sample_trace();
  std::ostringstream os;
  save_trace(t, os);
  std::istringstream lines(os.str());
  std::string line, old;
  while (std::getline(lines, line)) {
    if (line.rfind("ggtrace ", 0) == 0) {
      old += "ggtrace 2\n";
    } else if (line.rfind("metax", 0) == 0 || line.rfind("wstat", 0) == 0) {
      continue;
    } else {
      old += line + "\n";
    }
  }
  std::istringstream is(old);
  std::string error;
  auto loaded = load_trace(is, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  // Pre-v3 defaults: profiling on, no stats, no buffer accounting.
  EXPECT_TRUE(loaded->meta.profiled);
  EXPECT_TRUE(loaded->meta.clock_source.empty());
  EXPECT_EQ(loaded->meta.trace_buffer_bytes, 0u);
  EXPECT_TRUE(loaded->worker_stats.empty());
  EXPECT_EQ(loaded->tasks.size(), t.tasks.size());
  EXPECT_TRUE(validate_trace(*loaded).empty());
}

TEST(TraceTest, WorkerStatsLookup) {
  const Trace t = make_sample_trace();
  ASSERT_NE(t.worker_stats_of(1), nullptr);
  EXPECT_EQ(t.worker_stats_of(1)->worker, 1);
  EXPECT_EQ(t.worker_stats_of(7), nullptr);
}

TEST(TraceValidateTest, DetectsBogusWorkerStats) {
  Trace t = make_sample_trace();
  WorkerStatsRec s;
  s.worker = 9;  // >= num_workers
  s.steals = 5;
  s.tasks_executed = 1;  // steals > executed
  t.worker_stats.push_back(s);
  t.finalize();
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(TraceSerializeTest, RejectsGarbage) {
  std::istringstream is("not a trace\n");
  std::string error;
  EXPECT_FALSE(load_trace(is, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(TraceSerializeTest, RejectsBadRecord) {
  std::istringstream is("ggtrace 1\ntask nonsense\n");
  std::string error;
  EXPECT_FALSE(load_trace(is, &error).has_value());
}

TEST(TraceSerializeTest, EscapedStringsSurvive) {
  TraceRecorder rec(1);
  rec.intern("has space and %percent%");
  TraceMeta meta;
  meta.program = "white space program";
  meta.region_end = 1;
  TaskRec root;
  root.uid = kRootTask;
  root.parent = kNoTask;
  rec.writer(0).task(root);
  FragmentRec f;
  f.task = kRootTask;
  f.end = 1;
  rec.writer(0).fragment(f);
  const Trace t = rec.finish(meta);

  std::ostringstream os;
  save_trace(t, os);
  std::istringstream is(os.str());
  auto loaded = load_trace(is);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.program, "white space program");
  EXPECT_NE(loaded->strings.find("has space and %percent%"), 0u);
}

TEST(TraceValidateTest, DetectsMissingParent) {
  Trace t = make_sample_trace();
  TaskRec orphan;
  orphan.uid = 77;
  orphan.parent = 55;  // does not exist
  t.tasks.push_back(orphan);
  FragmentRec f;
  f.task = 77;
  f.end = 1;
  t.fragments.push_back(f);
  t.finalize();
  const auto errs = validate_trace(t);
  EXPECT_FALSE(errs.empty());
}

TEST(TraceValidateTest, DetectsFragmentGap) {
  Trace t = make_sample_trace();
  // Remove fragment seq 1 of root.
  std::erase_if(t.fragments, [](const FragmentRec& f) {
    return f.task == kRootTask && f.seq == 1;
  });
  t.finalize();
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(TraceValidateTest, DetectsChunkCoverageHole) {
  Trace t = make_sample_trace();
  std::erase_if(t.chunks, [](const ChunkRec& c) { return c.thread == 1; });
  t.finalize();
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(TraceValidateTest, DetectsTaskWithoutFragments) {
  Trace t = make_sample_trace();
  std::erase_if(t.fragments, [](const FragmentRec& f) { return f.task == 2; });
  t.finalize();
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(TraceValidateTest, DetectsOutOfBoundsTimes) {
  Trace t = make_sample_trace();
  t.meta.region_end = 50;  // several records end later
  t.finalize();
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(TraceRecorderTest, ParallelWritersMerge) {
  TraceRecorder rec(4);
  for (int w = 0; w < 4; ++w) {
    auto writer = rec.writer(w);
    TaskRec t;
    t.uid = w == 0 ? kRootTask : static_cast<TaskId>(w);
    t.parent = w == 0 ? kNoTask : kRootTask;
    t.child_index = w == 0 ? 0 : static_cast<u32>(w - 1);
    writer.task(t);
  }
  TraceMeta meta;
  meta.num_workers = 4;
  const Trace t = rec.finish(meta);
  EXPECT_EQ(t.tasks.size(), 4u);
  // Sorted by uid after finalize.
  for (size_t i = 1; i < t.tasks.size(); ++i)
    EXPECT_LT(t.tasks[i - 1].uid, t.tasks[i].uid);
}

// --- owner lookups ----------------------------------------------------------
//
// task_index/loop_index must equal std::lower_bound over the uid-sorted
// owners (first of duplicates), and every *_at / *_span must equal the
// lower/upper-bound run of the owner's uid in the sorted record vector —
// the definitions the galloping search and the per-owner ranges replace.

template <class Owner>
std::optional<size_t> reference_index(const std::vector<Owner>& owners,
                                      u64 uid) {
  const auto it = std::lower_bound(
      owners.begin(), owners.end(), uid,
      [](const Owner& o, u64 v) { return o.uid < v; });
  if (it == owners.end() || it->uid != uid) return std::nullopt;
  return static_cast<size_t>(it - owners.begin());
}

template <class Rec>
std::span<const Rec> reference_span(const std::vector<Rec>& recs,
                                    u64 Rec::*owner, u64 uid) {
  const auto lo = std::lower_bound(
      recs.begin(), recs.end(), uid,
      [&](const Rec& r, u64 v) { return r.*owner < v; });
  const auto hi = std::upper_bound(
      lo, recs.end(), uid, [&](u64 v, const Rec& r) { return v < r.*owner; });
  return {recs.data() + (lo - recs.begin()), static_cast<size_t>(hi - lo)};
}

template <class Rec>
void expect_same_span(std::span<const Rec> got, std::span<const Rec> want,
                      const std::string& what) {
  EXPECT_EQ(got.size(), want.size()) << what;
  if (!want.empty()) {
    EXPECT_EQ(got.data(), want.data()) << what;
  }
}

/// Checks every lookup of a finalized trace against the references: each
/// owner index, and each uid that names an owner or a record (orphans
/// included), its neighbours, and uids past both ends.
void expect_lookups_match_reference(const Trace& t) {
  ASSERT_TRUE(t.finalized());
  std::vector<u64> task_uids = {0, 1, kNoTask, kNoTask - 1};
  std::vector<u64> loop_uids = {0, 1, ~u64{0}};
  auto around = [](std::vector<u64>& out, u64 uid) {
    out.push_back(uid);
    out.push_back(uid + 1);
    if (uid > 0) out.push_back(uid - 1);
  };
  for (const TaskRec& r : t.tasks) around(task_uids, r.uid);
  for (const FragmentRec& r : t.fragments) around(task_uids, r.task);
  for (const JoinRec& r : t.joins) around(task_uids, r.task);
  for (const LoopRec& r : t.loops) around(loop_uids, r.uid);
  for (const ChunkRec& r : t.chunks) around(loop_uids, r.loop);
  for (const BookkeepRec& r : t.bookkeeps) around(loop_uids, r.loop);

  for (u64 uid : task_uids) {
    const std::string what = "task uid " + std::to_string(uid);
    EXPECT_EQ(t.task_index(uid), reference_index(t.tasks, uid)) << what;
    expect_same_span(t.fragments_span(uid),
                     reference_span(t.fragments, &FragmentRec::task, uid),
                     what);
    expect_same_span(t.joins_span(uid),
                     reference_span(t.joins, &JoinRec::task, uid), what);
    EXPECT_EQ(t.fragments_of(uid).size(), t.fragments_span(uid).size())
        << what;
  }
  for (u64 uid : loop_uids) {
    const std::string what = "loop uid " + std::to_string(uid);
    EXPECT_EQ(t.loop_index(uid), reference_index(t.loops, uid)) << what;
    expect_same_span(t.chunks_span(uid),
                     reference_span(t.chunks, &ChunkRec::loop, uid), what);
    expect_same_span(t.bookkeeps_span(uid),
                     reference_span(t.bookkeeps, &BookkeepRec::loop, uid),
                     what);
  }
  for (size_t i = 0; i < t.tasks.size(); ++i) {
    const u64 uid = t.tasks[i].uid;
    const std::string what = "task index " + std::to_string(i);
    expect_same_span(t.fragments_at(i),
                     reference_span(t.fragments, &FragmentRec::task, uid),
                     what);
    expect_same_span(t.joins_at(i),
                     reference_span(t.joins, &JoinRec::task, uid), what);
  }
  for (size_t l = 0; l < t.loops.size(); ++l) {
    const u64 uid = t.loops[l].uid;
    const std::string what = "loop index " + std::to_string(l);
    expect_same_span(t.chunks_at(l),
                     reference_span(t.chunks, &ChunkRec::loop, uid), what);
    expect_same_span(t.bookkeeps_at(l),
                     reference_span(t.bookkeeps, &BookkeepRec::loop, uid),
                     what);
  }
}

/// A finalized trace of bare owner and record keys (no structure): one task
/// and one loop record per listed uid, listed duplicates included, 0-3
/// fragments/joins per distinct task uid and 0-3 chunks/bookkeeps per
/// distinct loop uid, plus records of `orphans` uids that have no owner.
/// Records are pushed in shuffled order so finalize() really sorts.
Trace lookup_trace(const std::vector<u64>& task_uids,
                   const std::vector<u64>& loop_uids,
                   const std::vector<u64>& orphans, u64 seed) {
  Xoshiro256 rng(seed);
  Trace t;
  auto distinct = [](std::vector<u64> v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  for (u64 uid : task_uids) {
    TaskRec r;
    r.uid = uid;
    t.tasks.push_back(r);
  }
  for (u64 uid : loop_uids) {
    LoopRec r;
    r.uid = uid;
    t.loops.push_back(r);
  }
  std::vector<u64> task_keys = distinct(task_uids);
  std::vector<u64> loop_keys = distinct(loop_uids);
  task_keys.insert(task_keys.end(), orphans.begin(), orphans.end());
  loop_keys.insert(loop_keys.end(), orphans.begin(), orphans.end());
  for (u64 uid : task_keys) {
    for (u32 s = 0, n = static_cast<u32>(rng.bounded(4)); s < n; ++s) {
      FragmentRec f;
      f.task = uid;
      f.seq = s;
      t.fragments.push_back(f);
    }
    for (u32 s = 0, n = static_cast<u32>(rng.bounded(4)); s < n; ++s) {
      JoinRec j;
      j.task = uid;
      j.seq = s;
      t.joins.push_back(j);
    }
  }
  for (u64 uid : loop_keys) {
    for (u32 s = 0, n = static_cast<u32>(rng.bounded(4)); s < n; ++s) {
      ChunkRec c;
      c.loop = uid;
      c.thread = static_cast<u16>(s % 2);
      c.seq_on_thread = s;
      t.chunks.push_back(c);
      BookkeepRec b;
      b.loop = uid;
      b.thread = c.thread;
      b.seq_on_thread = s;
      t.bookkeeps.push_back(b);
    }
  }
  auto shuffle = [&](auto& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.bounded(i)]);
  };
  shuffle(t.tasks);
  shuffle(t.loops);
  shuffle(t.fragments);
  shuffle(t.joins);
  shuffle(t.chunks);
  shuffle(t.bookkeeps);
  t.finalize();
  return t;
}

struct UidSet {
  const char* name;
  std::vector<u64> uids;
};

std::vector<UidSet> uid_sets() {
  std::vector<UidSet> sets;
  std::vector<u64> dense, sparse, gapped, dups, gapped_dups;
  for (u64 u = 0; u < 600; ++u) {
    dense.push_back(u);
    sparse.push_back(u * 1000 + 7);
    if (u % 3 != 0 && (u < 200 || u > 450)) gapped.push_back(u);
    dups.push_back(u);
    if (u % 5 == 0) dups.push_back(u);
    if (u % 50 == 0) dups.push_back(u);
    // Gaps put a uid's run before position `uid`, so the first probe can
    // land inside a run of duplicates rather than on its first record.
    if (u % 3 != 0) {
      for (u64 k = 0; k < 1 + u % 4; ++k) gapped_dups.push_back(u);
    }
  }
  sets.push_back({"dense", dense});
  sets.push_back({"sparse", sparse});
  sets.push_back({"gapped", gapped});
  sets.push_back({"duplicates", dups});
  sets.push_back({"gapped-duplicates", gapped_dups});
  sets.push_back({"empty", {}});
  sets.push_back({"single", {5}});
  return sets;
}

TEST(TraceLookupTest, IndexEqualsLowerBoundOnEveryUidSet) {
  for (const UidSet& set : uid_sets()) {
    SCOPED_TRACE(set.name);
    const Trace t = lookup_trace(set.uids, set.uids, {}, 11);
    std::vector<u64> probes = {kNoTask, kNoTask - 1};
    for (u64 uid = 0; uid < 2000; ++uid) probes.push_back(uid);
    for (u64 uid : set.uids) {
      probes.push_back(uid);
      probes.push_back(uid + 1);
      probes.push_back(uid - 1);
    }
    for (u64 uid : probes) {
      ASSERT_EQ(t.task_index(uid), reference_index(t.tasks, uid)) << uid;
      ASSERT_EQ(t.loop_index(uid), reference_index(t.loops, uid)) << uid;
    }
  }
}

TEST(TraceLookupTest, RangesEqualBinarySearchWithDuplicatesAndOrphans) {
  // Orphans sit below, between and above the owner uids.
  const std::vector<u64> orphans = {3, 601, 1'500, 450'007, 900'000};
  for (const UidSet& set : uid_sets()) {
    SCOPED_TRACE(set.name);
    std::vector<u64> free_orphans;
    for (u64 o : orphans) {
      if (std::find(set.uids.begin(), set.uids.end(), o) == set.uids.end())
        free_orphans.push_back(o);
    }
    expect_lookups_match_reference(
        lookup_trace(set.uids, set.uids, free_orphans, 12));
  }
  expect_lookups_match_reference(make_sample_trace());
}

TEST(TraceLookupTest, DuplicateOwnersShareTheirUidsRun) {
  const Trace t = lookup_trace({4, 4, 4, 9}, {2, 2}, {}, 13);
  ASSERT_EQ(t.tasks.size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(t.fragments_at(i).data(), t.fragments_at(0).data());
    EXPECT_EQ(t.fragments_at(i).size(), t.fragments_at(0).size());
  }
  EXPECT_EQ(t.task_index(4), std::optional<size_t>(0));
  EXPECT_EQ(t.loop_index(2), std::optional<size_t>(0));
  EXPECT_EQ(t.chunks_at(1).size(), t.chunks_at(0).size());
}

TEST(TraceLookupTest, RefinalizeAfterEditsRebuildsEveryRange) {
  std::vector<u64> uids;
  for (u64 u = 0; u < 300; ++u) uids.push_back(u);
  Trace t = lookup_trace(uids, uids, {1000}, 14);
  expect_lookups_match_reference(t);
  // Erase owners (leaving their records orphaned), records, and a loop;
  // append records and an owner out of order.
  std::erase_if(t.tasks, [](const TaskRec& r) { return r.uid % 7 == 3; });
  std::erase_if(t.fragments,
                [](const FragmentRec& f) { return f.task % 5 == 1; });
  std::erase_if(t.joins, [](const JoinRec& j) { return j.task % 4 == 2; });
  std::erase_if(t.loops, [](const LoopRec& l) { return l.uid % 3 == 0; });
  std::erase_if(t.chunks, [](const ChunkRec& c) { return c.loop % 6 == 5; });
  std::erase_if(t.bookkeeps,
                [](const BookkeepRec& b) { return b.thread == 1; });
  TaskRec late;
  late.uid = 150'000;
  t.tasks.insert(t.tasks.begin(), late);
  FragmentRec f;
  f.task = 150'000;
  t.fragments.insert(t.fragments.begin(), f);
  t.finalize();
  expect_lookups_match_reference(t);
  EXPECT_EQ(t.fragments_at(t.tasks.size() - 1).size(), 1u);
}

TEST(TraceLookupDeathTest, StaleRangeAbortsInsteadOfReadingOutOfBounds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Trace t = make_sample_trace();
  const size_t root = *t.task_index(kRootTask);
  t.fragments.clear();  // edited without finalize()
  EXPECT_DEATH((void)t.fragments_at(root), "stale owner range");
  t.loops.push_back(LoopRec{});
  EXPECT_DEATH((void)t.chunks_at(t.loops.size() - 1), "stale owner range");
}

TEST(TraceLookupTest, SalvagedTraceLookupsMatchReference) {
  // Damage a structurally valid trace the way a bad spool does: duplicate
  // deliveries, a task whose parent is missing, orphan records, and a
  // chunk of a loop that was never recorded.
  SynthOptions so;
  so.seed = 3;
  so.grains = 400;
  Trace t = synth_trace(so);
  const std::vector<TaskRec> tasks = t.tasks;
  t.tasks.push_back(tasks[5]);
  t.fragments.push_back(t.fragments[10]);
  t.joins.push_back(t.joins.front());
  t.chunks.push_back(t.chunks.front());
  TaskRec lost = tasks[7];
  lost.uid = 90'000;
  lost.parent = 80'000;  // never recorded
  t.tasks.push_back(lost);
  FragmentRec orphan;
  orphan.task = 70'000;
  orphan.end_reason = FragmentEnd::TaskEnd;
  t.fragments.push_back(orphan);
  ChunkRec stray = t.chunks.front();
  stray.loop = 60'000;
  t.chunks.push_back(stray);
  const SalvageReport rep = salvage_trace(t);
  EXPECT_TRUE(rep.any());
  EXPECT_TRUE(validate_trace(t).empty());
  expect_lookups_match_reference(t);
}

}  // namespace
}  // namespace gg
