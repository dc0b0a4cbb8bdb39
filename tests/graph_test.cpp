#include <gtest/gtest.h>

#include "graph/grain_graph.hpp"
#include "graph/grain_table.hpp"
#include "graph/reductions.hpp"
#include "graph/summarize.hpp"
#include "metrics/metrics.hpp"
#include "rts/threaded_engine.hpp"
#include "sim/capture.hpp"
#include "sim/des.hpp"
#include "trace/synth.hpp"
#include "trace/validate.hpp"

namespace gg {
namespace {

using front::Ctx;
using front::ForOpts;

// Fig. 3a program: task foo creates bar and baz, computes in between, and
// synchronizes with its children.
Trace foo_bar_baz_trace() {
  sim::Capture cap;
  sim::Program p = cap.run("foo", [](Ctx& ctx) {
    ctx.compute(1000);
    ctx.spawn(GG_SRC_NAMED("fig3.c", 2, "bar"),
              [](Ctx& c) { c.compute(5000); });
    ctx.compute(2000);
    ctx.spawn(GG_SRC_NAMED("fig3.c", 4, "baz"),
              [](Ctx& c) { c.compute(3000); });
    ctx.compute(500);
    ctx.taskwait();
    ctx.compute(100);
  });
  sim::SimOptions o;
  o.num_cores = 2;
  o.memory_model = false;
  return sim::simulate(p, o);
}

size_t count_kind(const GrainGraph& g, NodeKind k) {
  return g.nodes_of_kind(k).size();
}

size_t count_edges(const GrainGraph& g, EdgeKind k) {
  size_t n = 0;
  for (const GraphEdge& e : g.edges())
    if (e.kind == k) ++n;
  return n;
}

TEST(GrainGraphTest, Fig3StructureTasks) {
  const Trace t = foo_bar_baz_trace();
  ASSERT_TRUE(validate_trace(t).empty());
  const GrainGraph g = GrainGraph::build(t);
  EXPECT_TRUE(validate_graph(g).empty());
  // Root: 4 fragments (fork, fork, join, end). bar/baz: 1 fragment each.
  EXPECT_EQ(count_kind(g, NodeKind::Fragment), 6u);
  EXPECT_EQ(count_kind(g, NodeKind::Fork), 2u);
  EXPECT_EQ(count_kind(g, NodeKind::Join), 1u);
  EXPECT_EQ(count_kind(g, NodeKind::Bookkeep), 0u);
  // Two creation edges (one per child), two join edges into the join node.
  EXPECT_EQ(count_edges(g, EdgeKind::Creation), 2u);
  EXPECT_EQ(count_edges(g, EdgeKind::Join), 2u);
}

TEST(GrainGraphTest, CreationEdgeTargetsChildFirstFragment) {
  const Trace t = foo_bar_baz_trace();
  const GrainGraph g = GrainGraph::build(t);
  for (const GraphEdge& e : g.edges()) {
    if (e.kind != EdgeKind::Creation) continue;
    const GraphNode& from = g.nodes()[e.from];
    const GraphNode& to = g.nodes()[e.to];
    EXPECT_EQ(from.kind, NodeKind::Fork);
    EXPECT_EQ(to.kind, NodeKind::Fragment);
    EXPECT_EQ(to.seq, 0u);  // first fragment
    EXPECT_NE(to.task, from.task);
  }
}

TEST(GrainGraphTest, JoinEdgesComeFromChildLastFragments) {
  const Trace t = foo_bar_baz_trace();
  const GrainGraph g = GrainGraph::build(t);
  const auto joins = g.nodes_of_kind(NodeKind::Join);
  ASSERT_EQ(joins.size(), 1u);
  size_t join_edges = 0;
  for (u32 e : g.in_edges(joins[0])) {
    if (g.edges()[e].kind != EdgeKind::Join) continue;
    ++join_edges;
    const GraphNode& from = g.nodes()[g.edges()[e].from];
    EXPECT_EQ(from.kind, NodeKind::Fragment);
    // Children bar/baz have a single fragment, which is also their last.
    EXPECT_NE(from.task, kRootTask);
  }
  EXPECT_EQ(join_edges, 2u);
}

TEST(GrainGraphTest, Fig3LoopStructure) {
  // Fig. 3b/g: a 20-iteration loop in chunks of 4 on two threads.
  sim::Capture cap;
  sim::Program p = cap.run("loop", [](Ctx& ctx) {
    ForOpts fo;
    fo.sched = ScheduleKind::Static;
    fo.chunk = 4;
    ctx.parallel_for(GG_SRC, 0, 20, fo, [](u64, Ctx& c) { c.compute(10000); });
  });
  sim::SimOptions o;
  o.num_cores = 2;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  ASSERT_TRUE(validate_trace(t).empty());
  const GrainGraph g = GrainGraph::build(t);
  EXPECT_TRUE(validate_graph(g).empty());
  // 5 chunks; each participating thread has chunks+1 bookkeeps.
  EXPECT_EQ(count_kind(g, NodeKind::Chunk), 5u);
  const size_t books = count_kind(g, NodeKind::Bookkeep);
  EXPECT_EQ(books, 7u);  // thread0: 3+1, thread1: 2+1
  // One loop join; chains end there with join edges.
  const auto joins = g.nodes_of_kind(NodeKind::Join);
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(g.in_edges(joins[0]).size(), 2u);  // one per thread chain
  // Every chunk continues to a bookkeep.
  for (u32 c : g.nodes_of_kind(NodeKind::Chunk)) {
    ASSERT_EQ(g.out_edges(c).size(), 1u);
    const GraphEdge& e = g.edges()[g.out_edges(c)[0]];
    EXPECT_EQ(g.nodes()[e.to].kind, NodeKind::Bookkeep);
  }
}

TEST(GrainGraphTest, ValidGraphAcrossPoliciesAndCores) {
  std::function<void(Ctx&, int)> rec = [&rec](Ctx& ctx, int d) {
    ctx.compute(500);
    if (d == 0) return;
    const int kids = 1 + d % 3;
    for (int i = 0; i < kids; ++i)
      ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    if (d % 2 == 0) ctx.taskwait();
  };
  const sim::Program p =
      sim::capture_program("random_tree", [&](Ctx& ctx) { rec(ctx, 6); });
  for (int cores : {1, 5, 48}) {
    for (auto pol : {sim::SimPolicy::mir(), sim::SimPolicy::icc(),
                     sim::SimPolicy::mir_central()}) {
      sim::SimOptions o;
      o.num_cores = cores;
      o.policy = pol;
      o.memory_model = false;
      const Trace t = sim::simulate(p, o);
      ASSERT_TRUE(validate_trace(t).empty()) << pol.name << cores;
      const GrainGraph g = GrainGraph::build(t);
      const auto errs = validate_graph(g);
      EXPECT_TRUE(errs.empty())
          << pol.name << "/" << cores << ": " << (errs.empty() ? "" : errs[0]);
    }
  }
}

TEST(GrainGraphTest, GraphFromThreadedRuntime) {
  rts::Options o;
  o.num_workers = 3;
  rts::ThreadedEngine eng(o);
  std::function<void(Ctx&, int)> fib = [&fib](Ctx& ctx, int n) {
    if (n < 2) return;
    ctx.spawn(GG_SRC, [&fib, n](Ctx& c) { fib(c, n - 1); });
    ctx.spawn(GG_SRC, [&fib, n](Ctx& c) { fib(c, n - 2); });
    ctx.taskwait();
  };
  const Trace t = eng.run("fib", [&](Ctx& ctx) { fib(ctx, 10); });
  ASSERT_TRUE(validate_trace(t).empty());
  const GrainGraph g = GrainGraph::build(t);
  EXPECT_TRUE(validate_graph(g).empty());
  EXPECT_GT(g.node_count(), t.tasks.size());
}

// A damaged spool can deliver a task record twice. Both records see the
// task's one run of fragments, so fragment nodes are not duplicated; each
// record is wired, so the root's fork and join nodes appear twice.
TEST(GrainGraphTest, DuplicateTaskRecordsShareFragmentNodes) {
  const Trace clean = foo_bar_baz_trace();
  Trace dup = clean;
  const TaskRec root = dup.tasks[*dup.task_index(kRootTask)];
  const TaskRec leaf = dup.tasks.back();
  ASSERT_NE(leaf.uid, kRootTask);
  dup.tasks.push_back(root);
  dup.tasks.push_back(leaf);
  dup.finalize();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const GrainGraph g0 = GrainGraph::build(clean, threads);
    const GrainGraph g1 = GrainGraph::build(dup, threads);
    EXPECT_EQ(count_kind(g1, NodeKind::Fragment),
              count_kind(g0, NodeKind::Fragment));
    EXPECT_EQ(count_kind(g1, NodeKind::Fork),
              2 * count_kind(g0, NodeKind::Fork));
    EXPECT_EQ(count_kind(g1, NodeKind::Join),
              2 * count_kind(g0, NodeKind::Join));
    EXPECT_EQ(count_edges(g1, EdgeKind::Creation),
              2 * count_edges(g0, EdgeKind::Creation));
  }
}

TEST(GrainGraphTest, TopoOrderRespectsEdges) {
  const Trace t = foo_bar_baz_trace();
  const GrainGraph g = GrainGraph::build(t);
  std::vector<u32> pos(g.node_count());
  for (u32 i = 0; i < g.topo_order().size(); ++i) pos[g.topo_order()[i]] = i;
  for (const GraphEdge& e : g.edges()) EXPECT_LT(pos[e.from], pos[e.to]);
}

// ---------------------------------------------------------------------------
// Reductions

TEST(ReductionTest, FragmentReductionOnePerTask) {
  const Trace t = foo_bar_baz_trace();
  const GrainGraph g = GrainGraph::build(t);
  ReductionOptions ro;
  ro.fragments = true;
  ro.forks = false;
  ro.bookkeeps = false;
  const GrainGraph r = reduce_graph(g, ro);
  EXPECT_EQ(r.nodes_of_kind(NodeKind::Fragment).size(), 3u);  // root,bar,baz
  // Aggregated weights: the root group holds 4 members whose busy times sum.
  TimeNs root_busy_full = 0;
  for (u32 i : g.nodes_of_kind(NodeKind::Fragment)) {
    if (g.nodes()[i].task == kRootTask) root_busy_full += g.nodes()[i].busy;
  }
  bool found = false;
  for (u32 i : r.nodes_of_kind(NodeKind::Fragment)) {
    if (r.nodes()[i].task == kRootTask) {
      found = true;
      EXPECT_EQ(r.nodes()[i].group_size, 4u);
      EXPECT_EQ(r.nodes()[i].busy, root_busy_full);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ReductionTest, ForkReductionMergesForksBeforeJoin) {
  const Trace t = foo_bar_baz_trace();
  const GrainGraph g = GrainGraph::build(t);
  ReductionOptions ro;
  ro.fragments = false;
  ro.forks = true;
  ro.bookkeeps = false;
  const GrainGraph r = reduce_graph(g, ro);
  const auto forks = r.nodes_of_kind(NodeKind::Fork);
  ASSERT_EQ(forks.size(), 1u);  // both forks precede the same join
  EXPECT_EQ(r.nodes()[forks[0]].group_size, 2u);
  // The merged fork still has creation edges to both children.
  size_t creations = 0;
  for (u32 e : r.out_edges(forks[0])) {
    if (r.edges()[e].kind == EdgeKind::Creation) ++creations;
  }
  EXPECT_EQ(creations, 2u);
}

TEST(ReductionTest, BookkeepGroupedPerThread) {
  sim::Capture cap;
  sim::Program p = cap.run("loop", [](Ctx& ctx) {
    ForOpts fo;
    fo.sched = ScheduleKind::Dynamic;
    fo.chunk = 2;
    ctx.parallel_for(GG_SRC, 0, 40, fo, [](u64, Ctx& c) { c.compute(20000); });
  });
  sim::SimOptions o;
  o.num_cores = 4;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const GrainGraph g = GrainGraph::build(t);
  ReductionOptions ro;
  ro.fragments = false;
  ro.forks = false;
  ro.bookkeeps = true;
  const GrainGraph r = reduce_graph(g, ro);
  // After grouping, at most one bookkeep node per participating thread.
  std::set<u16> threads;
  for (const ChunkRec& c : t.chunks) threads.insert(c.thread);
  EXPECT_EQ(r.nodes_of_kind(NodeKind::Bookkeep).size(), threads.size());
  EXPECT_LT(r.node_count(), g.node_count());
}

TEST(ReductionTest, FullReductionShrinksBigGraph) {
  std::function<void(Ctx&, int)> rec = [&rec](Ctx& ctx, int d) {
    ctx.compute(100);
    if (d == 0) return;
    for (int i = 0; i < 2; ++i)
      ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.taskwait();
  };
  const sim::Program p =
      sim::capture_program("tree", [&](Ctx& ctx) { rec(ctx, 8); });
  sim::SimOptions o;
  o.num_cores = 8;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const GrainGraph g = GrainGraph::build(t);
  const GrainGraph r = reduce_graph(g, ReductionOptions{});
  EXPECT_LT(r.node_count(), g.node_count() * 6 / 10);
  // Total busy time is conserved by reductions.
  TimeNs busy_g = 0, busy_r = 0;
  for (const GraphNode& n : g.nodes()) busy_g += n.busy;
  for (const GraphNode& n : r.nodes()) busy_r += n.busy;
  EXPECT_EQ(busy_g, busy_r);
}

// ---------------------------------------------------------------------------
// Grain table

TEST(GrainTableTest, PathsAreUniqueAndWellFormed) {
  const Trace t = foo_bar_baz_trace();
  const GrainTable gt = GrainTable::build(t);
  ASSERT_EQ(gt.size(), 2u);
  EXPECT_NE(gt.by_path("0.0"), nullptr);
  EXPECT_NE(gt.by_path("0.1"), nullptr);
  EXPECT_EQ(gt.by_path("0.2"), nullptr);
  EXPECT_EQ(gt.by_path("0.0")->parent, kRootTask);
}

TEST(GrainTableTest, PathsStableAcrossMachineSizes) {
  std::function<void(Ctx&, int)> rec = [&rec](Ctx& ctx, int d) {
    ctx.compute(1000);
    if (d == 0) return;
    ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.taskwait();
  };
  const sim::Program p =
      sim::capture_program("tree", [&](Ctx& ctx) { rec(ctx, 5); });
  sim::SimOptions o1, o48;
  o1.num_cores = 1;
  o48.num_cores = 48;
  o1.memory_model = o48.memory_model = false;
  const GrainTable a = GrainTable::build(sim::simulate(p, o1));
  const GrainTable b = GrainTable::build(sim::simulate(p, o48));
  ASSERT_EQ(a.size(), b.size());
  for (const Grain& g : a.grains()) {
    EXPECT_NE(b.by_path(g.path), nullptr) << g.path;
  }
}

TEST(GrainTableTest, ChunkIdentifiersFollowPaperScheme) {
  sim::Capture cap;
  sim::Program p = cap.run("loop", [](Ctx& ctx) {
    ForOpts fo;
    fo.sched = ScheduleKind::Static;
    fo.chunk = 8;
    ctx.parallel_for(GG_SRC, 0, 32, fo, [](u64, Ctx& c) { c.compute(5000); });
  });
  sim::SimOptions o;
  o.num_cores = 4;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const GrainTable gt = GrainTable::build(t);
  ASSERT_EQ(gt.size(), 4u);
  // Loop started by thread 0 with seq 0: chunk covering [0,8) is "L0.0:0-8".
  EXPECT_NE(gt.by_path("L0.0:0-8"), nullptr);
  EXPECT_NE(gt.by_path("L0.0:24-32"), nullptr);
}

TEST(GrainTableTest, ExecTimeSumsFragmentsAndCostsPopulated) {
  const Trace t = foo_bar_baz_trace();
  const GrainTable gt = GrainTable::build(t);
  for (const Grain& g : gt.grains()) {
    EXPECT_GT(g.exec_time, 0u);
    EXPECT_GT(g.creation_cost, 0u);  // sim charges task_create_cycles
    EXPECT_EQ(g.n_fragments, 1u);
    EXPECT_EQ(g.n_children, 0u);
  }
  // Root (excluded) spawned both grains; their sync shares split the join.
  const Grain* bar = gt.by_path("0.0");
  const Grain* baz = gt.by_path("0.1");
  ASSERT_NE(bar, nullptr);
  ASSERT_NE(baz, nullptr);
  EXPECT_EQ(bar->sync_cost, baz->sync_cost);
}

TEST(GrainTableTest, InlinedTasksAreStillGrains) {
  const sim::Program p = sim::capture_program("inline", [](Ctx& ctx) {
    for (int i = 0; i < 50; ++i)
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(100); });
    ctx.taskwait();
  });
  sim::SimOptions o;
  o.num_cores = 1;
  o.policy = sim::SimPolicy::icc();
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const GrainTable gt = GrainTable::build(t);
  EXPECT_EQ(gt.size(), 50u);
  size_t inlined = 0;
  for (const Grain& g : gt.grains())
    if (g.inlined) ++inlined;
  EXPECT_GT(inlined, 0u);
}

// ---------------------------------------------------------------------------
// Subtree summarization (§6)

TEST(SummarizeTest, CollapsesDeepTreeIntoBudget) {
  std::function<void(Ctx&, int)> rec = [&rec](Ctx& ctx, int d) {
    ctx.compute(1000);
    if (d == 0) return;
    for (int i = 0; i < 2; ++i)
      ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.taskwait();
  };
  const sim::Program p =
      sim::capture_program("tree", [&](Ctx& ctx) { rec(ctx, 8); });
  sim::SimOptions o;
  o.num_cores = 8;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const GrainGraph g = GrainGraph::build(t);
  ASSERT_GT(g.node_count(), 500u);

  const SummarizeResult s = summarize_graph(g, 200);
  EXPECT_LE(s.graph.node_count(), 200u + 50u);  // best-effort budget
  EXPECT_LT(s.graph.node_count(), g.node_count() / 4);
  EXPECT_GT(s.collapsed_subtrees, 0u);
  // Aggregate busy time is conserved.
  TimeNs busy_g = 0, busy_s = 0;
  for (const GraphNode& n : g.nodes()) busy_g += n.busy;
  for (const GraphNode& n : s.graph.nodes()) busy_s += n.busy;
  EXPECT_EQ(busy_g, busy_s);
  // Summary nodes carry member counts.
  u32 biggest_group = 0;
  for (const GraphNode& n : s.graph.nodes())
    biggest_group = std::max(biggest_group, n.group_size);
  EXPECT_GT(biggest_group, 10u);
}

TEST(SummarizeTest, SmallGraphPassesThrough) {
  const Trace t = foo_bar_baz_trace();
  const GrainGraph g = GrainGraph::build(t);
  const SummarizeResult s = summarize_graph(g, 1000);
  EXPECT_EQ(s.graph.node_count(), g.node_count());
  EXPECT_EQ(s.graph.edge_count(), g.edge_count());
  EXPECT_EQ(s.collapsed_subtrees, 0u);
}

TEST(SummarizeTest, DeeperBudgetKeepsMoreStructure) {
  std::function<void(Ctx&, int)> rec = [&rec](Ctx& ctx, int d) {
    ctx.compute(500);
    if (d == 0) return;
    for (int i = 0; i < 2; ++i)
      ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.taskwait();
  };
  const sim::Program p =
      sim::capture_program("tree", [&](Ctx& ctx) { rec(ctx, 7); });
  sim::SimOptions o;
  o.num_cores = 4;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const GrainGraph g = GrainGraph::build(t);
  const SummarizeResult tight = summarize_graph(g, 60);
  const SummarizeResult loose = summarize_graph(g, 400);
  EXPECT_LT(tight.cut_depth, loose.cut_depth);
  EXPECT_LT(tight.graph.node_count(), loose.graph.node_count());
}

// Relabels every task uid but the root's, and every loop uid, through a
// strictly increasing sparse map (uid * 1000 + 7): canonical record order
// is unchanged, so everything the analysis derives must be too — but no
// uid sits at its position any more, so every task_index/loop_index takes
// the galloping search's non-dense path.
Trace relabel_sparse(Trace t) {
  const auto task = [](TaskId u) {
    return u == kRootTask || u == kNoTask ? u : u * 1000 + 7;
  };
  const auto loop = [](LoopId u) { return u * 1000 + 7; };
  for (TaskRec& r : t.tasks) {
    r.uid = task(r.uid);
    r.parent = task(r.parent);
  }
  for (FragmentRec& f : t.fragments) {
    f.task = task(f.task);
    if (f.end_reason == FragmentEnd::Fork) f.end_ref = task(f.end_ref);
    if (f.end_reason == FragmentEnd::Loop) f.end_ref = loop(f.end_ref);
  }
  for (JoinRec& j : t.joins) j.task = task(j.task);
  for (LoopRec& l : t.loops) {
    l.uid = loop(l.uid);
    l.enclosing_task = task(l.enclosing_task);
  }
  for (ChunkRec& c : t.chunks) c.loop = loop(c.loop);
  for (BookkeepRec& b : t.bookkeeps) b.loop = loop(b.loop);
  for (DependRec& d : t.depends) {
    d.pred = task(d.pred);
    d.succ = task(d.succ);
  }
  t.finalize();  // uids were edited: ranges must be rebuilt
  return t;
}

TEST(GrainGraphTest, SparseUidsAnalyzeLikeDenseUids) {
  SynthOptions so;
  so.seed = 29;
  so.grains = 20000;
  const Trace dense = synth_trace(so);
  const Trace sparse = relabel_sparse(dense);
  ASSERT_TRUE(validate_trace(sparse).empty());
  ASSERT_FALSE(sparse.depends.empty());
  ASSERT_EQ(sparse.task_index(7 * 1000 + 7), std::optional<size_t>(7));
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const GrainGraph gd = GrainGraph::build(dense, threads);
    const GrainGraph gs = GrainGraph::build(sparse, threads);
    ASSERT_EQ(gs.nodes().size(), gd.nodes().size());
    ASSERT_EQ(gs.edges().size(), gd.edges().size());
    EXPECT_EQ(gs.topo_order(), gd.topo_order());
    for (size_t e = 0; e < gd.edges().size(); ++e) {
      ASSERT_EQ(gs.edges()[e].from, gd.edges()[e].from) << e;
      ASSERT_EQ(gs.edges()[e].to, gd.edges()[e].to) << e;
      ASSERT_EQ(gs.edges()[e].kind, gd.edges()[e].kind) << e;
    }
    for (NodeKind k : {NodeKind::Fragment, NodeKind::Fork, NodeKind::Join,
                       NodeKind::Bookkeep, NodeKind::Chunk}) {
      EXPECT_EQ(count_kind(gs, k), count_kind(gd, k)) << to_string(k);
    }

    const GrainTable td = GrainTable::build(dense, threads);
    const GrainTable ts = GrainTable::build(sparse, threads);
    ASSERT_EQ(ts.size(), td.size());
    for (size_t i = 0; i < td.size(); ++i) {
      const Grain& a = td.grains()[i];
      const Grain& b = ts.grains()[i];
      ASSERT_EQ(b.path, a.path) << i;
      EXPECT_EQ(b.kind, a.kind) << i;
      EXPECT_EQ(b.exec_time, a.exec_time) << i;
      EXPECT_EQ(b.sync_cost, a.sync_cost) << i;
      EXPECT_EQ(b.creation_cost, a.creation_cost) << i;
      EXPECT_EQ(b.first_start, a.first_start) << i;
      EXPECT_EQ(b.last_end, a.last_end) << i;
      EXPECT_EQ(b.n_fragments, a.n_fragments) << i;
      EXPECT_EQ(b.n_children, a.n_children) << i;
    }

    MetricOptions mo;
    mo.threads = threads;
    const MetricsResult md =
        compute_metrics(dense, gd, td, Topology::opteron48(), mo);
    const MetricsResult ms =
        compute_metrics(sparse, gs, ts, Topology::opteron48(), mo);
    EXPECT_EQ(ms.critical_path_time, md.critical_path_time);
    EXPECT_EQ(ms.total_work, md.total_work);
    EXPECT_EQ(ms.interval_used, md.interval_used);
    EXPECT_EQ(ms.parallelism_optimistic, md.parallelism_optimistic);
    EXPECT_EQ(ms.parallelism_conservative, md.parallelism_conservative);
    EXPECT_EQ(ms.region_load_balance, md.region_load_balance);
    ASSERT_EQ(ms.loop_load_balance.size(), md.loop_load_balance.size());
    ASSERT_EQ(ms.per_grain.size(), md.per_grain.size());
    for (size_t i = 0; i < md.per_grain.size(); ++i) {
      const GrainMetrics& a = md.per_grain[i];
      const GrainMetrics& b = ms.per_grain[i];
      EXPECT_EQ(b.parallel_benefit, a.parallel_benefit) << i;
      EXPECT_EQ(b.inst_parallelism, a.inst_parallelism) << i;
      EXPECT_EQ(b.inst_parallelism_optimistic, a.inst_parallelism_optimistic)
          << i;
      EXPECT_EQ(b.scatter, a.scatter) << i;
      EXPECT_EQ(b.on_critical_path, a.on_critical_path) << i;
    }
  }
}

}  // namespace
}  // namespace gg
