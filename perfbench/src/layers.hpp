// The per-layer metrics of a traced run. Every workload reports the same
// set, measured on its own trace and spool: analyze-batch on the
// synthesized 1M-grain trace, serve-live on the sealed session's trace and
// a pushed spool, record-apps on the trace and spool the profiled runtime
// recorded. So a layer figure always says what that layer costs on the
// shape of input the workload feeds it.
#pragma once

#include <string>

#include "analysis/report.hpp"
#include "common.hpp"
#include "trace/load_result.hpp"

namespace bench {

/// Analysis threads of every in-process analysis: explicit, never 0 = auto.
constexpr int kAnalysisThreads = 1;

/// The gganalyze load: Strict, validating, on kAnalysisThreads.
gg::LoadResult load_strict(const std::string& path);
gg::AnalysisOptions analysis_options();
/// report text + JSON summary: the bytes a gganalyze run hands the user.
std::string report_bytes(const gg::Trace& t, const gg::Analysis& a);

struct LayerInput {
  std::string trace_path;  ///< GGTB3 file of the workload's trace
  u64 grains = 0;          ///< its grain count
  /// Spool bytes recovered (trace.recover) and applied frame by frame
  /// (trace.incremental_apply); empty: the trace spooled in 64 KiB epochs.
  std::string spool;
  /// When set, serve::analysis_report_text of the trace must have this
  /// digest (the REPORT the daemon answered for the same trace).
  std::string report_text_digest;
  int min_passes = 3;  ///< stage-by-stage passes, at least
  i64 deadline = 0;    ///< and more until this time (now_ns clock)
};

/// Runs the stage-by-stage analysis passes inside spans, checks their bytes
/// against analyze() + render_report + write_json_summary, then the spool
/// and serve probes, and sets every per-layer metric of `r`. Returns the
/// digest of the report + summary bytes ("" when a pass failed).
std::string measure_layers(const LayerInput& in, Result& r);

}  // namespace bench
