// analyze-batch: the gganalyze path on a seeded ~1M-grain GGTB3 file.
//
// Set-up synthesizes the trace and saves it in a child process, so the
// synthesizer's memory never counts toward the analysis peak RSS. The
// measured operation (op_p50_ms) is file open -> load -> analyze -> report
// text and JSON summary bytes, on one analysis thread, repeated for the
// run time. The traced run repeats the stage-by-stage passes of
// measure_layers for the run time instead.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "layers.hpp"
#include "trace/serialize.hpp"
#include "trace/synth.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

using namespace gg;

/// Synthesizes and saves the input in a child; returns the grain count the
/// synthesizer produced, or 0 on failure.
u64 make_input(const RunConfig& cfg, const std::string& path) {
  const std::string count_path = path + ".grains";
  const pid_t pid = ::fork();
  if (pid < 0) return 0;
  if (pid == 0) {
    SynthOptions o;
    o.seed = cfg.seed;
    o.grains = cfg.tiny ? 5000 : 1'000'000;
    const Trace t = synth_trace(o);
    if (!save_trace_file(t, path)) ::_exit(1);
    std::ofstream(count_path) << t.grain_count() << "\n";
    ::_exit(0);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    return 0;
  u64 grains = 0;
  std::ifstream(count_path) >> grains;
  return grains;
}

}  // namespace

void run_analyze_batch(const RunConfig& cfg, Result& r) {
  const std::string path = cfg.workdir + "/batch.ggbin";
  const Topology topo = Topology::generic4();
  u64 expected = 0;
  const double setup_s = timed_setup(cfg.tiny || cfg.trace ? 1 : 3, [&](int) {
    expected = make_input(cfg, path);
  });
  if (expected == 0) {
    r.fail("input synthesis failed");
    r.op(false);
    return;
  }
  std::error_code ec;
  const double input_bytes =
      static_cast<double>(std::filesystem::file_size(path, ec));
  const double grains = static_cast<double>(expected);
  r.fact("input.grains", grains);
  r.fact("input.bytes", input_bytes);
  r.fact("analysis.threads", kAnalysisThreads);

  const i64 deadline = now_ns() + static_cast<i64>(cfg.seconds * 1e9);
  if (cfg.trace) {
    LayerInput in;
    in.trace_path = path;
    in.grains = expected;
    in.min_passes = 1;
    in.deadline = deadline;
    r.fact_str("output.digest", measure_layers(in, r));
    return;
  }

  std::vector<double> pass_ms;
  std::string first_digest;
  do {
    const i64 t0 = now_ns();
    const LoadResult lr = load_strict(path);
    if (!lr.usable()) {
      r.op(false, "load failed: " + lr.describe());
      r.fail("load failed");
      break;
    }
    const std::string bytes =
        report_bytes(*lr.trace, analyze(*lr.trace, topo, analysis_options()));
    pass_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    bool ok = lr.ok() && lr.trace->grain_count() == expected;
    if (!ok) r.fail("trace failed validation or grain count differs");
    const std::string d = digest(bytes);
    if (first_digest.empty()) first_digest = d;
    if (d != first_digest) {
      r.fail("report bytes differ between repetitions");
      ok = false;
    }
    r.op(ok);
  } while (now_ns() < deadline);
  r.set("setup_s", setup_s, "s");
  r.set("op_p50_ms", median(pass_ms), "ms");
  r.set("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, "MB");
  r.fact("samples.op", static_cast<double>(pass_ms.size()));
  r.fact("op_min_ms", percentile(pass_ms, 0));
  r.fact("op_max_ms", percentile(pass_ms, 100));
  r.fact_str("output.digest", first_digest);
}

}  // namespace bench
