#include "layers.hpp"

#include <malloc.h>

#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>

#include "export/json_summary.hpp"
#include "serve/session.hpp"
#include "trace/incremental.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"

namespace bench {

using namespace gg;

LoadResult load_strict(const std::string& path) {
  LoadOptions lo;
  lo.mode = LoadMode::Strict;
  lo.validate = true;
  lo.threads = kAnalysisThreads;
  return load_trace_file_ex(path, lo);
}

AnalysisOptions analysis_options() {
  AnalysisOptions o;
  o.threads = kAnalysisThreads;
  o.metrics.threads = kAnalysisThreads;
  return o;
}

std::string report_bytes(const Trace& t, const Analysis& a) {
  std::ostringstream os;
  write_json_summary(os, t, a);
  return render_report(t, a) + os.str();
}

namespace {

/// IncrementalTrace::apply_frame over every frame of a spool, as the
/// daemon's ingest path applies them; returns ns per epoch frame.
double apply_ns_per_epoch(const std::string& bytes) {
  u32 workers = 0;
  std::memcpy(&workers, bytes.data() + spool::kSpoolMagic.size(), 4);
  const auto frames = spool::scan_frames(bytes);
  spool::IncrementalTrace inc(workers);
  u64 epochs = 0;
  const i64 t0 = now_ns();
  {
    Scope s("trace.incremental_apply");
    for (const auto& f : frames) {
      const char* h = bytes.data() + f.offset;
      u64 checksum = 0;
      std::memcpy(&checksum, h + 21, 8);
      inc.apply_frame(f.type, f.worker, f.seq,
                      std::string_view(h + spool::kFrameHeaderBytes,
                                       f.size - spool::kFrameHeaderBytes),
                      checksum, f.offset);
      if (f.type == spool::FrameType::Epoch) ++epochs;
    }
  }
  const double ns = static_cast<double>(now_ns() - t0);
  return epochs ? ns / static_cast<double>(epochs) : 0.0;
}

}  // namespace

std::string measure_layers(const LayerInput& in, Result& r) {
  const Topology topo = Topology::generic4();
  const double grains = static_cast<double>(in.grains);
  // Freed heap goes back to the system first, so the resident growth of a
  // stage is its own, whatever the workload allocated before.
  ::malloc_trim(0);

  // Stage-by-stage passes, each stage inside its module's span. The first
  // pass also measures the resident memory each stage keeps.
  std::vector<double> rss(4, 0.0);
  std::vector<double> pass_ns;
  std::string first_digest;
  std::optional<Trace> trace;
  do {
    const i64 t0 = now_ns();
    Scope pass("bench.analyze_pass");
    const u64 rss0 = current_rss_bytes();
    LoadResult lr;
    {
      Scope s("trace.load");
      lr = load_strict(in.trace_path);
    }
    if (!lr.ok() || lr.trace->grain_count() != in.grains) {
      r.op(false, "load failed: " + lr.describe());
      r.fail("trace failed validation or grain count differs");
      return {};
    }
    const Trace& t = *lr.trace;
    const u64 rss1 = current_rss_bytes();
    Analysis a;
    {
      Scope s("graph.build");
      a.graph = GrainGraph::build(t, kAnalysisThreads);
    }
    const u64 rss2 = current_rss_bytes();
    {
      Scope s("graph.table");
      a.grains = GrainTable::build(t, kAnalysisThreads);
    }
    const u64 rss3 = current_rss_bytes();
    {
      Scope s("metrics.compute");
      a.metrics = compute_metrics(t, a.graph, a.grains, topo,
                                  analysis_options().metrics);
    }
    const u64 rss4 = current_rss_bytes();
    {
      Scope s("analysis.problems");
      a.thresholds = ProblemThresholds::defaults(t.meta.num_workers, topo);
      a.problems = evaluate_all(a.grains, a.metrics, a.thresholds);
      a.sources = source_profile(t, a.grains, a.metrics, a.thresholds,
                                 SourceSort::ByCount);
    }
    std::string bytes;
    {
      Scope s("analysis.render");
      bytes = render_report(t, a);
    }
    {
      Scope s("export.json");
      std::ostringstream os;
      write_json_summary(os, t, a);
      bytes += os.str();
    }
    pass.end();
    pass_ns.push_back(static_cast<double>(now_ns() - t0));
    if (pass_ns.size() == 1) {
      auto grew = [](u64 before, u64 after) {
        return after > before ? static_cast<double>(after - before) : 0.0;
      };
      rss = {grew(rss0, rss1), grew(rss1, rss2), grew(rss2, rss3),
             grew(rss3, rss4)};
    }
    const std::string d = digest(bytes);
    if (first_digest.empty()) first_digest = d;
    const bool same = d == first_digest;
    if (!same) r.fail("stage-by-stage bytes differ between passes");
    r.op(same);
    trace = std::move(lr.trace);
  } while (static_cast<int>(pass_ns.size()) < in.min_passes ||
           now_ns() < in.deadline);

  // Reference: the one-call pipeline, untraced. Its bytes must equal the
  // stage-by-stage passes'; the time difference is the traced-minus-
  // untraced cost, a fact (one pass each is too few to resolve it).
  {
    const i64 t0 = now_ns();
    const LoadResult lr = load_strict(in.trace_path);
    const bool same =
        lr.usable() &&
        digest(report_bytes(*lr.trace,
                            analyze(*lr.trace, topo, analysis_options()))) ==
            first_digest;
    const double ref_ns = static_cast<double>(now_ns() - t0);
    if (!same) r.fail("stage-by-stage bytes differ from analyze()");
    r.op(same, "reference analysis failed");
    r.fact("bench.traced_minus_untraced_ms", (median(pass_ns) - ref_ns) / 1e6);
  }

  // The daemon's REPORT analysis, called directly on the same trace.
  const i64 a0 = now_ns();
  std::string text;
  {
    Scope s("serve.analysis_report_text");
    text = serve::analysis_report_text(*trace);
  }
  const double report_ns = static_cast<double>(now_ns() - a0);
  const bool text_ok = !text.empty() && (in.report_text_digest.empty() ||
                                         digest(text) == in.report_text_digest);
  if (!text_ok) r.fail("direct REPORT analysis differs from the daemon's");
  r.op(text_ok, "direct REPORT analysis failed");

  // Spool layer: the workload's spool, recovered and applied frame by
  // frame as batch recovery and live ingest do.
  std::string spool_bytes = in.spool;
  if (spool_bytes.empty()) {
    Scope s("trace.spool_bytes");
    spool_bytes = spool::spool_trace_bytes(*trace, 64 * 1024);
  }
  trace.reset();
  const i64 rec0 = now_ns();
  spool::RecoverResult rr;
  {
    Scope s("trace.recover");
    rr = spool::recover_spool_bytes(spool_bytes);
  }
  const double recover_ns = static_cast<double>(now_ns() - rec0);
  const double spool_grains = static_cast<double>(rr.trace.grain_count());
  const bool recovered = rr.usable && rr.report.clean_footer &&
                         spool_grains > 0;
  if (!recovered) r.fail("the workload's spool does not recover cleanly");
  r.op(recovered, "spool recovery failed");
  rr = {};

  std::error_code ec;
  const double input_bytes =
      static_cast<double>(std::filesystem::file_size(in.trace_path, ec));
  auto per_grain = [&](const char* span) {
    return median(tracer().durations_ns(span)) / grains;
  };
  r.set("trace.load_ns_per_grain", per_grain("trace.load"), "ns/grain");
  r.set("graph.build_ns_per_grain", per_grain("graph.build"), "ns/grain");
  r.set("graph.table_ns_per_grain", per_grain("graph.table"), "ns/grain");
  r.set("metrics.compute_ns_per_grain", per_grain("metrics.compute"),
        "ns/grain");
  r.set("analysis.problems_ns_per_grain", per_grain("analysis.problems"),
        "ns/grain");
  r.set("analysis.render_ns_per_grain", per_grain("analysis.render"),
        "ns/grain");
  r.set("export.json_ns_per_grain", per_grain("export.json"), "ns/grain");
  r.set("trace.input_bytes_per_grain", input_bytes / grains, "B/grain");
  r.set("trace.load_rss_bytes_per_grain", rss[0] / grains, "B/grain");
  r.set("graph.build_rss_bytes_per_grain", rss[1] / grains, "B/grain");
  r.set("graph.table_rss_bytes_per_grain", rss[2] / grains, "B/grain");
  r.set("metrics.rss_bytes_per_grain", rss[3] / grains, "B/grain");
  r.set("serve.report_analysis_ns_per_grain", report_ns / grains, "ns/grain");
  r.set("trace.spool_bytes_per_grain",
        static_cast<double>(spool_bytes.size()) / spool_grains, "B/grain");
  r.set("trace.spool_frames",
        static_cast<double>(spool::scan_frames(spool_bytes).size()), "count");
  r.set("trace.recover_ns_per_grain", recover_ns / spool_grains, "ns/grain");
  r.set("trace.incremental_apply_ns_per_epoch",
        apply_ns_per_epoch(spool_bytes), "ns/epoch");
  r.fact("samples.layer_passes", static_cast<double>(pass_ns.size()));
  r.fact("layers.grains", grains);
  r.fact("layers.spool_grains", spool_grains);
  return first_digest;
}

}  // namespace bench
