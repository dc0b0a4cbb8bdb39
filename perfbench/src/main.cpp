// ggbench — the repository benchmark program. Runs one named workload for a
// fixed time, checks its outputs, and prints a facts line followed by one
// JSON result line (end-to-end metrics, or per-layer metrics with --trace 1).
//
//   ggbench --workload analyze-batch|serve-live|record-apps --seed N
//           --seconds S --trace 0|1 --workdir DIR [--ggserved PATH]
//           [--spans FILE] [--tiny]
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on a usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ggbench --workload analyze-batch|serve-live|"
               "record-apps --seed N --seconds S --trace 0|1 --workdir DIR\n"
               "               [--ggserved PATH] [--spans FILE] [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunConfig cfg;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      cfg.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--workload") cfg.workload = v;
    else if (arg == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (arg == "--seconds") cfg.seconds = std::atof(v.c_str());
    else if (arg == "--trace") cfg.trace = v == "1";
    else if (arg == "--workdir") cfg.workdir = v;
    else if (arg == "--ggserved") cfg.ggserved = v;
    else if (arg == "--spans") spans_path = v;
    else return usage();
  }
  if (cfg.workdir.empty() || cfg.seconds <= 0) return usage();

  using Fn = void (*)(const bench::RunConfig&, bench::Result&);
  Fn fn = nullptr;
  if (cfg.workload == "analyze-batch") fn = bench::run_analyze_batch;
  else if (cfg.workload == "serve-live") fn = bench::run_serve_live;
  else if (cfg.workload == "record-apps") fn = bench::run_record_apps;
  else return usage();
  if (cfg.workload == "serve-live" && cfg.ggserved.empty()) return usage();

  std::error_code ec;
  std::filesystem::remove_all(cfg.workdir, ec);
  std::filesystem::create_directories(cfg.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "ggbench: cannot create %s\n", cfg.workdir.c_str());
    return 1;
  }

  if (cfg.trace) {
    // One id per workload run, shared by every span the run records.
    bench::tracer().enable(static_cast<bench::u32>(
        (cfg.seed * 0x9e3779b97f4a7c15ull) ^ static_cast<bench::u64>(::getpid())));
  }

  // serve::analysis_report_text (in-process, and the REPORT of the daemon
  // serve-live forks) has no thread parameter; it reads GG_THREADS. Set
  // before any thread starts.
  ::setenv("GG_THREADS", std::to_string(bench::kAnalysisThreads).c_str(), 1);

  bench::Result result;
  fn(cfg, result);
  bench::add_host_facts(result);
  result.fact("bench.tiny", cfg.tiny ? 1 : 0);

  if (cfg.trace) {
    for (const auto& [layer, ns] : bench::tracer().layer_self_ns())
      result.fact("self_ms." + layer, static_cast<double>(ns) / 1e6);
    const double spans = static_cast<double>(bench::tracer().size());
    result.fact("trace.spans", spans);
    result.set("bench.trace_overhead_ms", bench::span_cost_ns() * spans / 1e6,
               "ms");
    if (!spans_path.empty() && !bench::tracer().write(spans_path))
      std::fprintf(stderr, "ggbench: cannot write %s\n", spans_path.c_str());
  }

  const bool pass = result.correct && result.failed == 0;
  // A failed run keeps its scratch files (daemon log, spools) for diagnosis.
  if (pass) std::filesystem::remove_all(cfg.workdir, ec);
  bench::print_result(cfg, result);
  return pass ? 0 : 1;
}
