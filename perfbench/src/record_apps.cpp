// record-apps: the real threaded runtime with profiling on and a
// write-through spool. One profiled program runs fib with a deep cutoff
// (hundreds of thousands of fine task grains), then blackscholes with a
// dynamic schedule and small chunks (many chunk and book-keeping events).
// Set-up runs the same program unprofiled to get the reference outputs.
// The measured operation (op_p50_ms) is one profiled run, engine start to
// trace returned, spool included. The traced run alternates it with
// unprofiled runs, then measures the layers on the recovered trace.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "apps/blackscholes.hpp"
#include "apps/fib.hpp"
#include "layers.hpp"
#include "rts/threaded_engine.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
#include "trace/validate.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

using namespace gg;

constexpr int kWorkers = 2;

struct Outputs {
  u64 fib = 0;
  double price_sum = 0;
  u64 grains = 0;
  bool ok = false;
};

struct Programs {
  apps::FibParams fib;
  apps::BlackscholesParams bs;
};

Programs programs(const RunConfig& cfg) {
  Programs p;
  p.fib.n = cfg.tiny ? 16 : 30;
  p.fib.cutoff = cfg.tiny ? 8 : 17;
  p.bs.num_options = cfg.tiny ? 4000 : 400000;
  p.bs.chunk = 16;
  p.bs.sched = ScheduleKind::Dynamic;
  p.bs.seed = cfg.seed;
  return p;
}

/// One run of fib then blackscholes on a fresh engine. With a spool path
/// the run records and streams every sealed epoch to that file.
Outputs run_program(const Programs& p, bool profile,
                    const std::string& spool_path) {
  rts::Options o;
  o.num_workers = kWorkers;
  o.profile = profile;
  if (profile) o.spool.path = spool_path;
  rts::ThreadedEngine eng(o);
  Outputs out;
  const front::TaskFn fib = apps::fib_program(eng, p.fib, &out.fib);
  const front::TaskFn bs = apps::blackscholes_program(eng, p.bs, &out.price_sum);
  const Trace t = eng.run("record-apps", [&](front::Ctx& ctx) {
    fib(ctx);
    bs(ctx);
  });
  out.grains = t.grain_count();
  out.ok = !profile || validate_trace(t).empty();
  return out;
}

u64 fib_exact(int n) {
  u64 a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const u64 c = a + b;
    a = b;
    b = c;
  }
  return a;
}

}  // namespace

void run_record_apps(const RunConfig& cfg, Result& r) {
  const Programs p = programs(cfg);
  const std::string spool = cfg.workdir + "/record.ggspool";
  const u64 fib_expected = fib_exact(p.fib.n);
  Outputs ref;
  // Five set-ups: one lasts only about 0.2 s.
  const double setup_s = timed_setup(cfg.tiny || cfg.trace ? 1 : 5, [&](int) {
    Scope s("rts.run_unprofiled");
    ref = run_program(p, false, {});
  });
  if (ref.fib != fib_expected) r.fail("unprofiled fib result is wrong");

  std::vector<double> record_s, unprofiled_s;
  u64 grains = 0;
  auto check = [&](const Outputs& o) {
    bool ok = o.ok;
    if (o.fib != fib_expected) {
      r.fail("fib result is wrong");
      ok = false;
    }
    if (std::fabs(o.price_sum - ref.price_sum) >
        1e-9 * std::fabs(ref.price_sum)) {
      r.fail("price sum differs from the unprofiled run");
      ok = false;
    }
    if (grains == 0) grains = o.grains;
    if (o.grains != grains || grains == 0) {
      r.fail("grain count does not repeat");
      ok = false;
    }
    r.op(ok, "profiled run failed its checks");
  };

  const i64 deadline = now_ns() + static_cast<i64>(cfg.seconds * 1e9);
  do {
    if (cfg.trace) {
      // Alternate so both sides see the same host conditions.
      const i64 u0 = now_ns();
      {
        Scope s("rts.run_unprofiled");
        run_program(p, false, {});
      }
      unprofiled_s.push_back(static_cast<double>(now_ns() - u0) / 1e9);
    }
    const i64 t0 = now_ns();
    Outputs o;
    {
      Scope s("rts.run_profiled");
      o = run_program(p, true, spool);
    }
    record_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    check(o);
  } while (now_ns() < deadline);
  const double peak = static_cast<double>(peak_rss_bytes());

  // The last run's spool, recovered the way gganalyze --recover does it.
  std::error_code ec;
  const double spool_bytes =
      static_cast<double>(std::filesystem::file_size(spool, ec));
  const i64 rec0 = now_ns();
  spool::RecoverResult rr;
  {
    Scope s("trace.recover");
    rr = spool::recover_spool_file(spool);
  }
  const double recover_ns = static_cast<double>(now_ns() - rec0);
  const bool recovered = rr.usable && rr.report.clean_footer &&
                         validate_trace(rr.trace).empty() &&
                         rr.trace.grain_count() == grains;
  if (!recovered) r.fail("recovered spool does not validate or count differs");
  r.op(recovered, "spool recovery failed");

  const double g = static_cast<double>(grains);
  r.fact("input.grains", g);
  r.fact("input.spool_bytes", spool_bytes);
  r.fact("rts.workers", kWorkers);
  r.fact("samples.op", static_cast<double>(record_s.size()));
  r.fact("op_min_ms", percentile(record_s, 0) * 1e3);
  r.fact("op_max_ms", percentile(record_s, 100) * 1e3);
  char out[64];
  std::snprintf(out, sizeof out, "fib=%llu grains=%llu",
                static_cast<unsigned long long>(ref.fib),
                static_cast<unsigned long long>(grains));
  r.fact_str("output.digest", out);

  if (!cfg.trace) {
    r.set("setup_s", setup_s, "s");
    r.set("op_p50_ms", median(record_s) * 1e3, "ms");
    r.set("peak_rss_mb", peak / 1e6, "MB");
    return;
  }
  const double unprof = median(unprofiled_s);
  r.fact("rts.unprofiled_s", unprof);
  r.fact("rts.grains", g);
  r.fact("trace.record_ns_per_grain", (median(record_s) - unprof) * 1e9 / g);
  r.fact("trace.recover_file_ns_per_grain", recover_ns / g);

  // The layers on what this workload recorded: the recovered trace saved
  // as GGTB3, and the spool the runtime wrote.
  LayerInput in;
  in.trace_path = cfg.workdir + "/record.ggbin";
  in.grains = grains;
  {
    std::ifstream is(spool, std::ios::binary);
    in.spool.assign(std::istreambuf_iterator<char>(is), {});
  }
  const bool saved = save_trace_file(rr.trace, in.trace_path);
  if (!saved) r.fail("cannot save the recovered trace");
  r.op(saved, "save failed");
  rr = {};
  if (saved) r.fact_str("layers.digest", measure_layers(in, r));
}

}  // namespace bench
