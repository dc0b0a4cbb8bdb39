#include "graph/grain_graph.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/flat_hash.hpp"
#include "common/par_for.hpp"
#include "graph/thread_groups.hpp"

namespace gg {

const char* to_string(NodeKind k) {
  switch (k) {
    case NodeKind::Fragment: return "fragment";
    case NodeKind::Fork: return "fork";
    case NodeKind::Join: return "join";
    case NodeKind::Bookkeep: return "bookkeep";
    case NodeKind::Chunk: return "chunk";
  }
  return "?";
}

const char* to_string(EdgeKind k) {
  switch (k) {
    case EdgeKind::Creation: return "creation";
    case EdgeKind::Join: return "join";
    case EdgeKind::Continuation: return "continuation";
    case EdgeKind::Dependence: return "dependence";
  }
  return "?";
}

u32 GrainGraph::add_node(GraphNode node) {
  if (node.busy == 0) node.busy = node.duration();
  nodes_.push_back(node);
  finalized_ = false;
  return static_cast<u32>(nodes_.size() - 1);
}

void GrainGraph::add_edge(u32 from, u32 to, EdgeKind kind) {
  GG_DCHECK(from < nodes_.size() && to < nodes_.size());
  edges_.push_back(GraphEdge{from, to, kind});
  finalized_ = false;
}

std::span<const u32> GrainGraph::out_edges(u32 node) const {
  GG_CHECK(finalized_ && node < nodes_.size());
  return {out_edge_ids_.data() + out_offsets_[node],
          out_offsets_[node + 1] - out_offsets_[node]};
}

std::span<const u32> GrainGraph::in_edges(u32 node) const {
  GG_CHECK(finalized_ && node < nodes_.size());
  return {in_edge_ids_.data() + in_offsets_[node],
          in_offsets_[node + 1] - in_offsets_[node]};
}

std::optional<u32> GrainGraph::first_fragment(TaskId task) const {
  GG_CHECK(finalized_);
  auto it = std::lower_bound(
      frag_range_.begin(), frag_range_.end(), task,
      [](const auto& p, TaskId v) { return p.first < v; });
  if (it == frag_range_.end() || it->first != task) return std::nullopt;
  return it->second.first;
}

std::optional<u32> GrainGraph::last_fragment(TaskId task) const {
  GG_CHECK(finalized_);
  auto it = std::lower_bound(
      frag_range_.begin(), frag_range_.end(), task,
      [](const auto& p, TaskId v) { return p.first < v; });
  if (it == frag_range_.end() || it->first != task) return std::nullopt;
  return it->second.first + it->second.second - 1;
}

std::vector<u32> GrainGraph::nodes_of_kind(NodeKind kind) const {
  std::vector<u32> out;
  for (u32 i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == kind) out.push_back(i);
  }
  return out;
}

void GrainGraph::finalize_lenient() {
  finalize_impl(false);
}

void GrainGraph::finalize() {
  finalize_impl(true);
}

void GrainGraph::finalize_impl(bool require_dag) {
  const size_t n = nodes_.size();
  // CSR adjacency via counting sort over the edge list. Filling in edge-id
  // order keeps each node's list ascending, exactly as repeated push_back
  // into per-node vectors produced before.
  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  for (const GraphEdge& e : edges_) {
    out_offsets_[e.from + 1]++;
    in_offsets_[e.to + 1]++;
  }
  for (size_t v = 0; v < n; ++v) {
    out_offsets_[v + 1] += out_offsets_[v];
    in_offsets_[v + 1] += in_offsets_[v];
  }
  out_edge_ids_.resize(edges_.size());
  in_edge_ids_.resize(edges_.size());
  std::vector<u32> out_cur(out_offsets_.begin(), out_offsets_.end() - 1);
  std::vector<u32> in_cur(in_offsets_.begin(), in_offsets_.end() - 1);
  for (u32 e = 0; e < edges_.size(); ++e) {
    out_edge_ids_[out_cur[edges_[e].from]++] = e;
    in_edge_ids_[in_cur[edges_[e].to]++] = e;
  }
  // Fragment index: contiguous runs per task (builder adds them that way).
  frag_range_.clear();
  for (u32 i = 0; i < n; ++i) {
    if (nodes_[i].kind != NodeKind::Fragment) continue;
    if (!frag_range_.empty() && frag_range_.back().first == nodes_[i].task) {
      frag_range_.back().second.second++;
    } else {
      frag_range_.emplace_back(nodes_[i].task, std::make_pair(i, 1u));
    }
  }
  std::sort(frag_range_.begin(), frag_range_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  topo_.clear();
  if (!require_dag) {
    finalized_ = true;
    return;
  }
  // Kahn topological sort; aborts on cycles (the graph must be a DAG).
  std::vector<u32> indeg(n, 0);
  for (const GraphEdge& e : edges_) indeg[e.to]++;
  topo_.reserve(n);
  std::vector<u32> stack;
  for (u32 i = 0; i < n; ++i) {
    if (indeg[i] == 0) stack.push_back(i);
  }
  while (!stack.empty()) {
    const u32 v = stack.back();
    stack.pop_back();
    topo_.push_back(v);
    for (u32 k = out_offsets_[v]; k < out_offsets_[v + 1]; ++k) {
      const u32 w = edges_[out_edge_ids_[k]].to;
      if (--indeg[w] == 0) stack.push_back(w);
    }
  }
  GG_CHECK_MSG(topo_.size() == n, "grain graph contains a cycle");
  finalized_ = true;
}

namespace {

// --- sharded construction --------------------------------------------------
//
// The serial builder produced nodes in a rigid order: every fragment node in
// flat trace.fragments order, then per task (in uid order) the Fork / Join /
// Bookkeep / Chunk nodes its fragments demand, then at most one synthesized
// barrier join; edges in the same task-major order followed by the unjoined-
// children and dependence edges. That order is what every export, golden
// signature and topo result is pinned to — so the sharded build reproduces
// it exactly:
//
//   phase A  fragment nodes, parallel over contiguous task blocks, each
//            task contributing its (seq-sorted) fragment range (count,
//            prefix-sum, fill — each fragment node lands at the id the
//            serial walk gave it);
//   phase B  each shard wires a contiguous block of tasks into *local* node
//            and edge vectors, encoding references to its own new nodes as
//            F + local_id (F = fragment node count) while fragment
//            references stay absolute — cross-task edges only ever point at
//            fragment nodes, so no shard needs another shard's ids;
//   merge    per-shard node counts prefix-sum into shard bases; nodes and
//            edges concatenate in shard (== task) order while every encoded
//            reference >= F is rebased — yielding exactly the serial ids.
//
// Every phase partitions by a pure function of (size, threads), so the
// result is bit-identical for every thread count; threads == 1 runs the
// same code as a single shard.

constexpr u32 kNoNode = 0xFFFFFFFFu;

/// Fragment-node index from phase A, indexed by task position in
/// trace.tasks: first node id and node count per task (kNoNode/0 for tasks
/// without fragment nodes). Duplicate task records (damaged traces) share
/// their uid's entry.
struct FragIndex {
  std::vector<u32> first;
  std::vector<u32> count;
  u32 total = 0;  ///< F: number of fragment nodes

  bool has(size_t task_idx) const { return first[task_idx] != kNoNode; }

  u32 first_of(size_t task_idx) const {
    GG_CHECK(has(task_idx));
    return first[task_idx];
  }

  u32 last_of(size_t task_idx) const {
    GG_CHECK(has(task_idx));
    return first[task_idx] + count[task_idx] - 1;
  }
};

/// True when tasks[i] repeats the previous task's uid (damaged traces): its
/// records are the first occurrence's, so it adds no fragment nodes.
bool repeats_previous(const Trace& trace, size_t i) {
  return i > 0 && trace.tasks[i - 1].uid == trace.tasks[i].uid;
}

/// Phase A: appends one node per non-orphan fragment to `nodes` (which must
/// be empty) in flat fragment order. Tasks are uid-sorted and fragments
/// (task, seq)-sorted, so walking tasks in order and emitting each task's
/// fragment range visits exactly the fragments that have a task record, in
/// flat order; orphan fragments (damaged traces) get no nodes.
FragIndex add_fragment_nodes(const Trace& trace, int threads,
                             std::vector<GraphNode>& nodes) {
  const size_t ntasks = trace.tasks.size();
  FragIndex fi;
  fi.first.assign(ntasks, kNoNode);
  fi.count.assign(ntasks, 0);

  // Contiguous task blocks, one per shard; a pure function of
  // (ntasks, threads), so node ids never depend on timing.
  size_t t = static_cast<size_t>(std::max(threads, 1));
  if (t > ntasks) t = ntasks == 0 ? 1 : ntasks;
  const auto block = [&](size_t b) { return ntasks * b / t; };
  const auto fragments_with_nodes = [&](size_t i) {
    return repeats_previous(trace, i) ? std::span<const FragmentRec>{}
                                      : trace.fragments_at(i);
  };

  // Pass 1: per-block node counts.
  std::vector<size_t> kept(t, 0);
  par_for_shard(t, [&](size_t b) {
    size_t cnt = 0;
    for (size_t i = block(b); i < block(b + 1); ++i)
      cnt += fragments_with_nodes(i).size();
    kept[b] = cnt;
  });
  std::vector<size_t> base(t + 1, 0);
  for (size_t b = 0; b < t; ++b) base[b + 1] = base[b] + kept[b];
  fi.total = static_cast<u32>(base[t]);
  nodes.resize(base[t]);

  // Pass 2: fill node slots and the per-task index.
  par_for_shard(t, [&](size_t b) {
    u32 id = static_cast<u32>(base[b]);
    for (size_t i = block(b); i < block(b + 1); ++i) {
      const auto frags = fragments_with_nodes(i);
      if (frags.empty()) continue;
      const TaskRec& task = trace.tasks[i];
      fi.first[i] = id;
      fi.count[i] = static_cast<u32>(frags.size());
      for (const FragmentRec& f : frags) {
        GraphNode& gn = nodes[id];
        gn.kind = NodeKind::Fragment;
        gn.task = task.uid;
        gn.seq = f.seq;
        gn.core = f.core;
        gn.thread = f.core;
        gn.start = f.start;
        gn.end = f.end;
        gn.counters = f.counters;
        gn.src = task.src;
        gn.busy = gn.duration();
        ++id;
      }
    }
  });
  // Duplicate task records share the first occurrence's nodes.
  for (size_t i = 1; i < ntasks; ++i) {
    if (repeats_previous(trace, i)) {
      fi.first[i] = fi.first[i - 1];
      fi.count[i] = fi.count[i - 1];
    }
  }
  return fi;
}

/// Phase B: wires tasks [task_lo, task_hi) of trace.tasks into local node /
/// edge vectors. Node references < F (fi.total) are absolute fragment ids;
/// references >= F are F + index into this shard's `nodes`.
class ShardBuilder {
 public:
  ShardBuilder(const Trace& trace, const FragIndex& fi)
      : trace_(trace), fi_(fi) {}

  void wire_range(size_t task_lo, size_t task_hi) {
    for (size_t i = task_lo; i < task_hi; ++i) wire_task(i);
  }

  std::vector<GraphNode> nodes;
  std::vector<GraphEdge> edges;
  std::vector<size_t> unjoined;   ///< task indexes, in task order
  std::vector<u32> root_joins;    ///< encoded refs (root lives in one shard)
  /// The root forked a child after its last join: that join cannot be the
  /// region's implicit barrier (a trace cut mid-region ends this way).
  bool root_forks_after_join = false;

 private:
  u32 add_local(GraphNode n) {
    if (n.busy == 0) n.busy = n.duration();
    nodes.push_back(n);
    return fi_.total + static_cast<u32>(nodes.size() - 1);
  }

  void add_edge(u32 from, u32 to, EdgeKind kind) {
    edges.push_back(GraphEdge{from, to, kind});
  }

  void wire_task(size_t ti) {
    const TaskRec& t = trace_.tasks[ti];
    const auto frags = trace_.fragments_at(ti);
    if (frags.empty()) return;
    const auto joins = trace_.joins_at(ti);
    // Fragment node of seq s is base + s (phase A laid them out in order).
    const u32 base = fi_.first_of(ti);
    std::vector<size_t> pending;  // children forked since the last join
    for (size_t i = 0; i < frags.size(); ++i) {
      const FragmentRec& f = frags[i];
      const u32 fi = base + f.seq;
      switch (f.end_reason) {
        case FragmentEnd::Fork: {
          const auto child_idx = trace_.task_index(f.end_ref);
          GG_CHECK(child_idx.has_value());
          const TaskRec& child = trace_.tasks[*child_idx];
          GraphNode fork;
          fork.kind = NodeKind::Fork;
          fork.task = t.uid;
          fork.seq = child.child_index;
          fork.core = child.create_core;
          fork.thread = child.create_core;
          fork.start = child.create_time;
          fork.end = child.create_time + child.creation_cost;
          fork.src = child.src;
          const u32 nf = add_local(fork);
          add_edge(fi, nf, EdgeKind::Continuation);
          add_edge(nf, fi_.first_of(*child_idx), EdgeKind::Creation);
          if (i + 1 < frags.size()) {
            add_edge(nf, base + frags[i + 1].seq, EdgeKind::Continuation);
          }
          pending.push_back(*child_idx);
          if (t.uid == kRootTask) root_forks_after_join = true;
          break;
        }
        case FragmentEnd::Join: {
          const JoinRec* jr = find_join(joins, f.end_ref);
          GG_CHECK_MSG(jr != nullptr, "fragment references missing join");
          GraphNode join;
          join.kind = NodeKind::Join;
          join.task = t.uid;
          join.seq = jr->seq;
          join.core = jr->core;
          join.thread = jr->core;
          join.start = jr->start;
          join.end = jr->end;
          join.src = t.src;
          const u32 nj = add_local(join);
          add_edge(fi, nj, EdgeKind::Continuation);
          for (size_t c : pending) {
            add_edge(fi_.last_of(c), nj, EdgeKind::Join);
          }
          pending.clear();
          if (t.uid == kRootTask) {
            root_joins.push_back(nj);
            root_forks_after_join = false;
          }
          if (i + 1 < frags.size()) {
            add_edge(nj, base + frags[i + 1].seq, EdgeKind::Continuation);
          }
          break;
        }
        case FragmentEnd::Loop: {
          const u32 nlj = wire_loop(f.end_ref, fi);
          if (i + 1 < frags.size()) {
            add_edge(nlj, base + frags[i + 1].seq, EdgeKind::Continuation);
          }
          break;
        }
        case FragmentEnd::TaskEnd: {
          for (size_t c : pending) unjoined.push_back(c);
          pending.clear();
          break;
        }
      }
    }
  }

  /// Wires one parallel for-loop: per-thread book-keeping/chunk chains
  /// hanging off the encountering fragment, all joining at the loop's join
  /// node. Returns the (encoded) join node index.
  u32 wire_loop(LoopId uid, u32 encountering_fragment) {
    const auto loop_idx = trace_.loop_index(uid);
    GG_CHECK(loop_idx.has_value());
    const LoopRec& loop = trace_.loops[*loop_idx];

    GraphNode join;
    join.kind = NodeKind::Join;
    join.task = loop.enclosing_task;
    join.loop = uid;
    join.seq = 0;
    join.start = loop.end;
    join.end = loop.end;
    join.src = loop.src;
    const u32 nlj = add_local(join);

    // Per-thread chains: bookkeeps/chunks are (thread, seq)-sorted after
    // finalize(), so the per-thread groups are contiguous runs.
    bool any_thread = false;
    for_each_thread_pair(
        trace_.bookkeeps_at(*loop_idx), trace_.chunks_at(*loop_idx),
        [&](u16, std::span<const BookkeepRec> bs,
            std::span<const ChunkRec> cs) {
          any_thread = true;
          u32 prev = encountering_fragment;
          EdgeKind next_kind = EdgeKind::Creation;
          size_t chunk_i = 0;
          for (const BookkeepRec& b : bs) {
            GraphNode bk;
            bk.kind = NodeKind::Bookkeep;
            bk.loop = uid;
            bk.thread = b.thread;
            bk.core = b.core;
            bk.seq = b.seq_on_thread;
            bk.start = b.start;
            bk.end = b.end;
            bk.src = loop.src;
            const u32 nb = add_local(bk);
            add_edge(prev, nb, next_kind);
            next_kind = EdgeKind::Continuation;
            prev = nb;
            if (b.got_chunk && chunk_i < cs.size()) {
              const ChunkRec& c = cs[chunk_i++];
              GraphNode ch;
              ch.kind = NodeKind::Chunk;
              ch.loop = uid;
              ch.thread = c.thread;
              ch.core = c.core;
              ch.seq = c.seq_on_thread;
              ch.start = c.start;
              ch.end = c.end;
              ch.counters = c.counters;
              ch.src = loop.src;
              ch.iter_begin = c.iter_begin;
              ch.iter_end = c.iter_end;
              const u32 nc = add_local(ch);
              add_edge(prev, nc, EdgeKind::Continuation);
              prev = nc;
            }
          }
          // The chain's final node synchronizes at the loop join.
          add_edge(prev, nlj, EdgeKind::Join);
        });
    if (!any_thread) {
      // Empty loop: the fragment continues straight to the join.
      add_edge(encountering_fragment, nlj, EdgeKind::Continuation);
    }
    return nlj;
  }

  const Trace& trace_;
  const FragIndex& fi_;
};

}  // namespace

GrainGraph GrainGraph::build(const Trace& trace, int threads) {
  GG_CHECK_MSG(trace.finalized(), "build requires a finalized trace");
  GrainGraph g;

  // Phase A: fragment nodes.
  FragIndex fi = add_fragment_nodes(trace, threads, g.nodes_);

  // Phase B: shard the task-wiring over contiguous task blocks.
  const size_t ntasks = trace.tasks.size();
  size_t nshards = static_cast<size_t>(std::max(threads, 1));
  if (nshards > ntasks) nshards = ntasks == 0 ? 1 : ntasks;
  std::vector<ShardBuilder> shards;
  shards.reserve(nshards);
  for (size_t s = 0; s < nshards; ++s) shards.emplace_back(trace, fi);
  par_for_shard(nshards, [&](size_t s) {
    shards[s].wire_range(ntasks * s / nshards, ntasks * (s + 1) / nshards);
  });

  // Merge: rebase each shard's encoded references onto its node base and
  // concatenate in shard order — the ids the serial walk would assign.
  const u32 F = fi.total;
  std::vector<u32> node_base(nshards + 1, F);
  std::vector<size_t> edge_base(nshards + 1, 0);
  for (size_t s = 0; s < nshards; ++s) {
    node_base[s + 1] =
        node_base[s] + static_cast<u32>(shards[s].nodes.size());
    edge_base[s + 1] = edge_base[s] + shards[s].edges.size();
  }
  g.nodes_.resize(node_base[nshards]);
  g.edges_.resize(edge_base[nshards]);
  par_for_shard(nshards, [&](size_t s) {
    ShardBuilder& sb = shards[s];
    const u32 nbase = node_base[s];
    std::copy(sb.nodes.begin(), sb.nodes.end(), g.nodes_.begin() + nbase);
    auto rebase = [&](u32 ref) {
      return ref < F ? ref : nbase + (ref - F);
    };
    GraphEdge* out = g.edges_.data() + edge_base[s];
    for (const GraphEdge& e : sb.edges) {
      *out++ = GraphEdge{rebase(e.from), rebase(e.to), e.kind};
    }
  });

  // Serial epilogue, identical to the original builder: unjoined children
  // synchronize at the region's implicit barrier (the root's last join,
  // synthesized at region_end when absent or when the root forked after
  // it), then dependence edges.
  std::vector<size_t> unjoined;
  u32 barrier = kNoNode;
  for (size_t s = 0; s < nshards; ++s) {
    ShardBuilder& sb = shards[s];
    unjoined.insert(unjoined.end(), sb.unjoined.begin(), sb.unjoined.end());
    if (!sb.root_joins.empty() && !sb.root_forks_after_join) {
      barrier = node_base[s] + (sb.root_joins.back() - F);
    }
  }
  // Task index of a uid with fragment nodes, or nullopt.
  const auto with_frags = [&](TaskId uid) -> std::optional<size_t> {
    const auto idx = trace.task_index(uid);
    if (!idx.has_value() || !fi.has(*idx)) return std::nullopt;
    return idx;
  };
  if (!unjoined.empty()) {
    if (barrier == kNoNode) {
      GraphNode join;
      join.kind = NodeKind::Join;
      join.task = kRootTask;
      join.seq = 0;
      join.start = trace.meta.region_end;
      join.end = trace.meta.region_end;
      barrier = g.add_node(join);
      if (const auto root = with_frags(kRootTask)) {
        g.add_edge(fi.last_of(*root), barrier, EdgeKind::Continuation);
      }
    }
    for (size_t c : unjoined) {
      g.add_edge(fi.last_of(c), barrier, EdgeKind::Join);
    }
  }
  // OpenMP 4.0 task dependences (§6 future work, implemented): the
  // predecessor's last fragment happens-before the successor's first.
  for (const DependRec& d : trace.depends) {
    const auto pred = with_frags(d.pred);
    const auto succ = with_frags(d.succ);
    if (!pred || !succ) continue;
    g.add_edge(fi.last_of(*pred), fi.first_of(*succ), EdgeKind::Dependence);
  }
  g.finalize();
  return g;
}

std::vector<std::string> validate_graph(const GrainGraph& g) {
  std::vector<std::string> errs;
  auto report = [&](const std::string& s) { errs.push_back(s); };

  const auto& nodes = g.nodes();
  const auto& edges = g.edges();
  for (u32 i = 0; i < nodes.size(); ++i) {
    const GraphNode& n = nodes[i];
    size_t creation_out = 0, continuation_out = 0, join_in = 0;
    for (u32 e : g.out_edges(i)) {
      if (edges[e].kind == EdgeKind::Creation) ++creation_out;
      if (edges[e].kind == EdgeKind::Continuation) ++continuation_out;
    }
    for (u32 e : g.in_edges(i)) {
      if (edges[e].kind == EdgeKind::Join) ++join_in;
    }
    switch (n.kind) {
      case NodeKind::Fork:
        if (creation_out != 1)
          report("fork node " + std::to_string(i) +
                 " has creation out-degree != 1");
        break;
      case NodeKind::Join: {
        // Root implicit barrier and loop joins of empty loops may be
        // childless; all other joins synchronize at least one child.
        const bool childless_ok = n.task == kRootTask || n.loop != 0;
        if (join_in == 0 && !childless_ok)
          report("join node " + std::to_string(i) + " has no join in-edges");
        break;
      }
      case NodeKind::Chunk: {
        // Chunk nodes always continue to a book-keeping node.
        bool ok = false;
        for (u32 e : g.out_edges(i)) {
          const GraphNode& to = nodes[edges[e].to];
          if (edges[e].kind == EdgeKind::Continuation &&
              to.kind == NodeKind::Bookkeep) {
            ok = true;
          }
          if (edges[e].kind == EdgeKind::Join && to.kind == NodeKind::Join) {
            ok = true;  // reduced graphs may join directly
          }
        }
        if (!ok && !g.out_edges(i).empty()) {
          report("chunk node " + std::to_string(i) +
                 " does not continue to book-keeping or join");
        }
        break;
      }
      default:
        break;
    }
    if (n.end < n.start)
      report("node " + std::to_string(i) + " has negative duration");
  }
  // Continuation edges stay within one task context (fragment -> fork/join
  // of the same task), or within one loop chain.
  for (const GraphEdge& e : edges) {
    if (e.kind != EdgeKind::Continuation) continue;
    const GraphNode& a = nodes[e.from];
    const GraphNode& b = nodes[e.to];
    const bool task_side =
        a.task != kNoTask && b.task != kNoTask && a.task == b.task;
    const bool loop_side = a.loop != 0 || b.loop != 0;
    if (!task_side && !loop_side) {
      report("continuation edge crosses task contexts (" +
             std::to_string(e.from) + " -> " + std::to_string(e.to) + ")");
    }
  }
  return errs;
}

}  // namespace gg
