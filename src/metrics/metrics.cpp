#include "metrics/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <tuple>

#include "common/check.hpp"
#include "common/par_for.hpp"
#include "common/stats.hpp"
#include "graph/thread_groups.hpp"
#include "obs/telemetry.hpp"

namespace gg {

namespace {

i64 pass_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Number of root task records: they lead trace.tasks (the root uid is 0)
/// and are not grains, so task grain row r is trace.tasks[r + roots].
size_t root_records(const Trace& trace) {
  size_t n = 0;
  while (n < trace.tasks.size() && trace.tasks[n].uid == kRootTask) ++n;
  return n;
}

/// Visits the execution intervals of grain row `row` of the trace's
/// GrainTable: fragment intervals for tasks (the task's record range), the
/// chunk interval for chunks.
template <class Fn>
void for_each_grain_interval(const Trace& trace, size_t roots,
                             const Grain& g, size_t row, Fn&& fn) {
  if (g.kind == GrainKind::Task) {
    const size_t ti = row + roots;
    GG_CHECK_MSG(ti < trace.tasks.size() && trace.tasks[ti].uid == g.task,
                 "grain table was not built from this trace");
    for (const FragmentRec& f : trace.fragments_at(ti)) fn(f.start, f.end);
  } else {
    fn(g.first_start, g.last_end);
  }
}

TimeNs choose_interval(const Trace& trace, const GrainTable& grains,
                       const MetricOptions& opts) {
  const TimeNs makespan = std::max<TimeNs>(1, trace.makespan());
  std::vector<u64> lengths;
  lengths.reserve(grains.size());
  for (const Grain& g : grains.grains())
    if (g.exec_time > 0) lengths.push_back(g.exec_time);
  TimeNs interval = 0;
  switch (opts.interval) {
    case IntervalPreset::MinGrain:
      interval = stats::min_value(lengths);
      break;
    case IntervalPreset::MedianGrain:
      interval = static_cast<TimeNs>(stats::median(lengths));
      break;
    case IntervalPreset::MinGap: {
      // Smallest positive difference between any grain start and any other
      // grain's end: merge the sorted boundary lists.
      std::vector<TimeNs> starts, ends;
      for (const Grain& g : grains.grains()) {
        starts.push_back(g.first_start);
        ends.push_back(g.last_end);
      }
      std::sort(starts.begin(), starts.end());
      std::sort(ends.begin(), ends.end());
      TimeNs best = makespan;
      for (TimeNs e : ends) {
        auto it = std::lower_bound(starts.begin(), starts.end(), e);
        if (it != starts.end() && *it > e) best = std::min(best, *it - e);
        if (it != starts.begin() && e > *(it - 1))
          best = std::min(best, e - *(it - 1));
      }
      interval = best;
      break;
    }
    case IntervalPreset::Fixed:
      interval = opts.fixed_interval_ns;
      break;
  }
  if (interval == 0) interval = makespan / 100 + 1;
  // Bound post-processing time.
  const TimeNs floor_interval =
      (makespan + opts.max_intervals - 1) / opts.max_intervals;
  return std::max<TimeNs>({interval, floor_interval, 1});
}

}  // namespace

double loop_load_balance(const Trace& trace, const LoopRec& loop) {
  const auto chunks = trace.chunks_span(loop.uid);
  if (chunks.empty()) return 1.0;
  TimeNs longest = 0;
  std::vector<u64> chains;  // per-thread summed chunk time, thread order
  for_each_thread_run(chunks, [&](u16, std::span<const ChunkRec> cs) {
    u64 len = 0;
    for (const ChunkRec& c : cs) {
      longest = std::max<TimeNs>(longest, c.end - c.start);
      len += c.end - c.start;
    }
    chains.push_back(len);
  });
  const double med = stats::median(chains);
  if (med <= 0) return 1.0;
  return static_cast<double>(longest) / med;
}

double region_load_balance(const GrainTable& grains, int num_cores) {
  if (grains.size() == 0) return 1.0;
  TimeNs longest = 0;
  std::vector<u64> busy(static_cast<size_t>(std::max(1, num_cores)), 0);
  for (const Grain& g : grains.grains()) {
    longest = std::max(longest, g.exec_time);
    if (g.core < busy.size()) busy[g.core] += g.exec_time;
  }
  std::vector<u64> nonzero;
  for (u64 b : busy)
    if (b > 0) nonzero.push_back(b);
  const double med = stats::median(nonzero);
  if (med <= 0) return 1.0;
  return static_cast<double>(longest) / med;
}

double work_deviation(const Grain& grain, const GrainTable& baseline) {
  const Grain* ref = baseline.by_path(grain.path);
  if (ref == nullptr || ref->exec_time == 0)
    return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(grain.exec_time) /
         static_cast<double>(ref->exec_time);
}

MetricsResult compute_metrics(const Trace& trace, const GrainGraph& graph,
                              const GrainTable& grains, const Topology& topo,
                              const MetricOptions& opts,
                              const GrainTable* baseline) {
  MetricsResult res;
  const auto& table = grains.grains();
  res.per_grain.assign(table.size(), GrainMetrics{});
  const int threads = resolve_threads(opts.threads);

  // ---- parallel benefit, mem util, work deviation -------------------------
  // Pure per-grain computation into per-index slots: any partition of the
  // index range produces the same bytes.
  i64 pass_t0 = pass_now_ns();
  {
    obs::PhaseSpan span("metrics.benefit");
    par_for_each_index(table.size(), threads, [&](size_t i) {
      const Grain& g = table[i];
      GrainMetrics& m = res.per_grain[i];
      const TimeNs cost = g.creation_cost + g.sync_cost;
      m.parallel_benefit = cost == 0
                               ? std::numeric_limits<double>::infinity()
                               : static_cast<double>(g.exec_time) /
                                     static_cast<double>(cost);
      m.mem_util = g.counters.stall == 0
                       ? std::numeric_limits<double>::infinity()
                       : static_cast<double>(g.counters.compute) /
                             static_cast<double>(g.counters.stall);
      if (baseline != nullptr) m.work_deviation = work_deviation(g, *baseline);
    });
  }
  i64 pass_t1 = pass_now_ns();
  res.pass_timings.benefit_ns = pass_t1 - pass_t0;

  // ---- load balance ---------------------------------------------------------
  {
    obs::PhaseSpan span("metrics.load_balance");
    res.region_load_balance =
        region_load_balance(grains, trace.meta.num_cores);
    std::vector<double> lb(trace.loops.size());
    par_for_each_index(trace.loops.size(), threads, [&](size_t i) {
      lb[i] = loop_load_balance(trace, trace.loops[i]);
    });
    for (size_t i = 0; i < trace.loops.size(); ++i)
      res.loop_load_balance[trace.loops[i].uid] = lb[i];
  }
  i64 pass_t2 = pass_now_ns();
  res.pass_timings.load_balance_ns = pass_t2 - pass_t1;

  // ---- instantaneous parallelism --------------------------------------------
  obs::PhaseSpan par_span("metrics.parallelism");
  const TimeNs interval = choose_interval(trace, grains, opts);
  res.interval_used = interval;
  const TimeNs makespan = std::max<TimeNs>(1, trace.makespan());
  const size_t slots = static_cast<size_t>((makespan + interval - 1) / interval);
  const size_t roots = root_records(trace);
  // Each grain contributes its execution intervals to +1/-1 histogram
  // deltas. Blocks accumulate into private diff arrays which are then summed
  // in block order; integer addition is associative and commutative, so the
  // merged histogram is identical for every thread count.
  const size_t nblocks = static_cast<size_t>(std::max(threads, 1));
  std::vector<std::vector<i64>> opt_local(nblocks), con_local(nblocks);
  par_for_blocks(table.size(), threads, [&](size_t b, size_t lo, size_t hi) {
    auto& opt_diff = opt_local[b];
    auto& con_diff = con_local[b];
    opt_diff.assign(slots + 1, 0);
    con_diff.assign(slots + 1, 0);
    for (size_t i = lo; i < hi; ++i) {
      for_each_grain_interval(trace, roots, table[i], i, [&](TimeNs s,
                                                             TimeNs e) {
        if (e <= s) return;
        // Optimistic: any overlap.
        const size_t o_lo = static_cast<size_t>(s / interval);
        const size_t o_hi = static_cast<size_t>((e - 1) / interval);
        opt_diff[o_lo] += 1;
        opt_diff[std::min(o_hi + 1, slots)] -= 1;
        // Conservative: full overlap only.
        const size_t c_lo = static_cast<size_t>((s + interval - 1) / interval);
        const size_t c_hi_excl = static_cast<size_t>(e / interval);
        if (c_hi_excl > c_lo) {
          con_diff[c_lo] += 1;
          con_diff[std::min(c_hi_excl, slots)] -= 1;
        }
      });
    }
  });
  res.parallelism_optimistic.assign(slots, 0);
  res.parallelism_conservative.assign(slots, 0);
  i64 acc_o = 0, acc_c = 0;
  for (size_t s = 0; s < slots; ++s) {
    for (size_t b = 0; b < nblocks; ++b) {
      if (!opt_local[b].empty()) acc_o += opt_local[b][s];
      if (!con_local[b].empty()) acc_c += con_local[b][s];
    }
    res.parallelism_optimistic[s] = static_cast<u32>(std::max<i64>(0, acc_o));
    res.parallelism_conservative[s] = static_cast<u32>(std::max<i64>(0, acc_c));
  }
  // Per grain: minimum over its overlapping intervals (§3.2). Reads the
  // finished timeline, writes per-grain slots.
  par_for_each_index(table.size(), threads, [&](size_t i) {
    u32 min_o = std::numeric_limits<u32>::max();
    u32 min_c = std::numeric_limits<u32>::max();
    for_each_grain_interval(trace, roots, table[i], i, [&](TimeNs s, TimeNs e) {
      if (e <= s) return;
      const size_t lo = static_cast<size_t>(s / interval);
      const size_t hi = std::min(static_cast<size_t>((e - 1) / interval),
                                 slots == 0 ? 0 : slots - 1);
      for (size_t k = lo; k <= hi && k < slots; ++k) {
        min_o = std::min(min_o, res.parallelism_optimistic[k]);
        min_c = std::min(min_c, res.parallelism_conservative[k]);
      }
    });
    if (min_o == std::numeric_limits<u32>::max()) min_o = 0;
    if (min_c == std::numeric_limits<u32>::max()) min_c = 0;
    res.per_grain[i].inst_parallelism_optimistic = static_cast<int>(min_o);
    res.per_grain[i].inst_parallelism = static_cast<int>(min_c);
  });
  par_span.end();
  i64 pass_t3 = pass_now_ns();
  res.pass_timings.parallelism_ns = pass_t3 - pass_t2;

  // ---- scatter ----------------------------------------------------------------
  obs::PhaseSpan scatter_span("metrics.scatter");
  // Sibling groups: task grains share a parent; chunks share a loop. Sorting
  // (kind, owner, row) triples makes each group a contiguous range with
  // members in ascending row order — exactly the order the previous
  // std::map-of-vectors produced — and groups are then independent work.
  std::vector<std::tuple<u64, u64, u64>> sib;
  sib.reserve(table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    const Grain& g = table[i];
    if (g.kind == GrainKind::Task) {
      sib.emplace_back(0, u64{g.parent}, i);
    } else {
      sib.emplace_back(1, u64{g.loop}, i);
    }
  }
  std::sort(sib.begin(), sib.end());
  std::vector<std::pair<size_t, size_t>> groups;  // [begin, end) into sib
  for (size_t i = 0; i < sib.size();) {
    size_t j = i + 1;
    while (j < sib.size() && std::get<0>(sib[j]) == std::get<0>(sib[i]) &&
           std::get<1>(sib[j]) == std::get<1>(sib[i]))
      ++j;
    if (j - i >= 2) groups.emplace_back(i, j);
    i = j;
  }
  const int cores_in_machine = topo.num_cores();
  par_for_each_index(groups.size(), threads, [&](size_t gi) {
    const auto [gbegin, gend] = groups[gi];
    const size_t count = gend - gbegin;
    auto member = [&](size_t k) {
      return static_cast<size_t>(std::get<2>(sib[gbegin + k]));
    };
    // Deterministically sample large groups to bound the pairwise cost.
    std::vector<size_t> sample;
    if (count > opts.scatter_sample) {
      const size_t stride = count / opts.scatter_sample;
      for (size_t k = 0; k < count; k += stride) sample.push_back(member(k));
    } else {
      sample.reserve(count);
      for (size_t k = 0; k < count; ++k) sample.push_back(member(k));
    }
    std::vector<double> dists;
    dists.reserve(sample.size() * (sample.size() - 1) / 2);
    for (size_t a = 0; a < sample.size(); ++a) {
      for (size_t b = a + 1; b < sample.size(); ++b) {
        int ca = table[sample[a]].core;
        int cb = table[sample[b]].core;
        if (ca >= cores_in_machine) ca = ca % cores_in_machine;
        if (cb >= cores_in_machine) cb = cb % cores_in_machine;
        dists.push_back(static_cast<double>(topo.core_distance(ca, cb)));
      }
    }
    const double med = stats::median(dists);
    for (size_t k = 0; k < count; ++k)
      res.per_grain[member(k)].scatter = med;
  });
  scatter_span.end();
  i64 pass_t4 = pass_now_ns();
  res.pass_timings.scatter_ns = pass_t4 - pass_t3;

  // ---- critical path + work/span --------------------------------------------
  obs::PhaseSpan cp_span("metrics.critical_path");
  const CriticalPath cp = critical_path(graph);
  res.critical_path_time = cp.length;
  for (const Grain& g : table) res.total_work += g.exec_time;
  res.avg_parallelism = cp.length == 0
                            ? 0.0
                            : static_cast<double>(res.total_work) /
                                  static_cast<double>(cp.length);
  // Map graph nodes on the path back to grains.
  const GrainLookup lookup(grains);
  for (u32 v : cp.nodes) {
    if (const auto row = lookup.row_of(graph.nodes()[v]))
      res.per_grain[*row].on_critical_path = true;
  }
  cp_span.end();
  res.pass_timings.critical_path_ns = pass_now_ns() - pass_t4;
  return res;
}

}  // namespace gg
