// The three workloads. Each runs its set-up, measures for cfg.seconds,
// checks its outputs and fills in `r`: end-to-end metrics when cfg.trace
// is off, per-layer metrics (from spans around calls into the modules)
// when it is on.
#pragma once

#include "common.hpp"

namespace bench {

void run_analyze_batch(const RunConfig& cfg, Result& r);
void run_serve_live(const RunConfig& cfg, Result& r);
void run_record_apps(const RunConfig& cfg, Result& r);

/// Median wall time of `reps` calls of `setup`, in seconds; a workload
/// sets up several times so a one-off stall does not read as set-up cost.
template <typename Fn>
double timed_setup(int reps, Fn&& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const i64 t0 = now_ns();
    setup(i);
    s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(s);
}

}  // namespace bench
