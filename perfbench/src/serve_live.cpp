// serve-live: a real ggserved process with one sealed, tailed spool
// (--attach) and live GGWIRE1 ingest, loaded from this process by four
// threads:
//   * two pushers, closed loop with window=1 (each EPOCH waits for its
//     durable ACK), each pushing its own seeded spool;
//   * an open-loop STATUS generator at a fixed rate;
//   * an open-loop REPORT generator at a fixed low rate to the sealed file
//     session.
// Open-loop latencies are timed from each request's due time. Once both
// pushes seal, a fixed number of repeat REPORTs go to the sealed session;
// their median after the first is the measured operation (op_p50_ms).
// Every final REPORT must be byte-identical to batch recovery of the same
// bytes (recover_spool_bytes -> analysis_report_text).
//
// No REPORT goes to a wire stream while it is still being pushed: on this
// code such a REPORT aborts the daemon at about a quarter of frame
// boundaries ("grain graph contains a cycle" in GrainGraph::build on the
// live snapshot), which would end the run. See README.md.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

#include "layers.hpp"
#include "serve/endpoint.hpp"
#include "serve/session.hpp"
#include "serve/wire_client.hpp"
#include "trace/salvage.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"
#include "trace/validate.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

using namespace gg;

struct Sizes {
  u64 sealed_grains;      ///< sized so a cold REPORT takes about a second
  u64 push_grains;        ///< per pusher; lasts about the run time
  u64 push_epoch_bytes;   ///< 1 = one record per EPOCH: most ACK round
                          ///< trips per grain, least daemon memory per ACK
  double status_hz;
  double report_period_s;
  int sealed_repeats;
};

Sizes sizes(const RunConfig& cfg) {
  if (cfg.tiny) return {3000, 1500, 1, 100, 0.05, 3};
  return {300000, static_cast<u64>(cfg.seconds * 10000), 1, 100, 5.0, 9};
}

std::string make_spool(u64 seed, u64 grains, u64 epoch_bytes) {
  SynthOptions o;
  o.seed = seed;
  o.workers = 4;
  o.grains = grains;
  return spool::spool_trace_bytes(synth_trace(o), epoch_bytes);
}

/// The batch `gganalyze --recover` pipeline over the same bytes.
std::string batch_report(const std::string& bytes, Trace* out = nullptr) {
  spool::RecoverResult rr = spool::recover_spool_bytes(bytes);
  if (!rr.usable) return {};
  if (serve::recovery_degraded(rr.report)) salvage_trace(rr.trace);
  if (!validate_trace(rr.trace).empty()) return {};
  std::string text = serve::analysis_report_text(rr.trace);
  if (out != nullptr) *out = std::move(rr.trace);
  return text;
}

u64 field(const std::string& line, const char* key) {
  const size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + std::strlen(key), nullptr, 10);
}

/// One ggserved child process. Stopped with SHUTDOWN (or a signal if it
/// does not answer) and always reaped, so its peak RSS is known.
class Daemon {
 public:
  Daemon(const RunConfig& cfg, const std::string& attach)
      : query_(cfg.workdir + "/q.sock"), ingest_(cfg.workdir + "/i.sock") {
    const std::string log = cfg.workdir + "/ggserved.log";
    // glibc's default mmap threshold (128 KiB), held fixed: every large
    // block is mapped on allocation and unmapped on free, so the daemon's
    // peak RSS follows the memory it holds. With the default sliding
    // threshold, runs peaked anywhere from 540 to 620 MB, depending on
    // which frees had raised the threshold before the REPORTs.
    std::vector<std::string> env_strings = {"MALLOC_MMAP_THRESHOLD_=131072"};
    for (char** e = environ; *e != nullptr; ++e)
      if (std::strncmp(*e, "MALLOC_MMAP_THRESHOLD_=", 23) != 0)
        env_strings.emplace_back(*e);
    std::vector<char*> env;
    for (std::string& e : env_strings) env.push_back(e.data());
    env.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      const char* argv[] = {cfg.ggserved.c_str(), "--attach", attach.c_str(),
                            "--socket", query_.c_str(), "--ingest-socket",
                            ingest_.c_str(), "--budget", "16384", nullptr};
      ::execve(cfg.ggserved.c_str(), const_cast<char* const*>(argv),
               env.data());
      ::_exit(127);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool started() const { return pid_ > 0; }
  const std::string& ingest_socket() const { return ingest_; }

  bool request(const std::string& req, std::string* resp) const {
    std::string err;
    return serve::endpoint_request(query_, req, resp, &err);
  }

  /// Waits until the attached session reports sealed.
  bool wait_sealed(double timeout_s) const {
    const i64 deadline = now_ns() + static_cast<i64>(timeout_s * 1e9);
    while (now_ns() < deadline) {
      std::string resp, err;
      if (serve::endpoint_request_retry(query_, "SESSIONS", 50, 1'000'000,
                                        20'000'000, &resp, &err) &&
          resp.find(" sealed ") != std::string::npos)
        return true;
      ::usleep(2000);
    }
    return false;
  }

  /// Stops the daemon; returns its peak RSS in bytes (0 if unknown).
  u64 stop() {
    if (pid_ <= 0) return peak_;
    std::string resp;
    request("SHUTDOWN", &resp);
    int status = 0;
    struct rusage ru {};
    for (int i = 0; i < 2000; ++i) {
      const pid_t got = ::wait4(pid_, &status, WNOHANG, &ru);
      if (got == pid_) {
        pid_ = 0;
        peak_ = static_cast<u64>(ru.ru_maxrss) * 1024;
        return peak_;
      }
      if (i == 1000) ::kill(pid_, SIGKILL);
      ::usleep(5000);
    }
    ::kill(pid_, SIGKILL);
    ::wait4(pid_, &status, 0, &ru);
    pid_ = 0;
    return peak_;
  }

 private:
  std::string query_, ingest_;
  pid_t pid_ = -1;
  u64 peak_ = 0;
};

struct Interval {
  i64 start = 0;
  i64 end = 0;
};

/// Share of requests issued while some REPORT was outstanding that
/// finished after that REPORT did.
double behind_share(const std::vector<Interval>& reqs,
                    const std::vector<Interval>& reports) {
  u64 during = 0, behind = 0;
  for (const Interval& q : reqs) {
    for (const Interval& rep : reports) {
      if (q.start > rep.start && q.start < rep.end) {
        ++during;
        if (q.end >= rep.end) ++behind;
        break;
      }
    }
  }
  return during == 0 ? 0.0
                     : static_cast<double>(behind) / static_cast<double>(during);
}

/// Splits samples into one-second windows of the load phase by when each
/// was sent, dropping the last window, which is partial.
std::vector<std::vector<double>> by_second(const std::vector<Interval>& at,
                                           const std::vector<double>& v,
                                           i64 start) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < at.size() && i < v.size(); ++i) {
    const size_t w = static_cast<size_t>((at[i].start - start) / 1'000'000'000);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(v[i]);
  }
  if (!windows.empty()) windows.pop_back();
  return windows;
}

struct Pusher {
  std::string name;
  std::string bytes;
  std::vector<Interval> acks;
  u64 reconnects = 0;
  bool ok = false;
  std::string error;
};

void push(Pusher& p, const std::string& socket, u64 seed) {
  // The closed-loop pushers would otherwise starve the open-loop
  // generators of their own process on a one-core host, and the generators'
  // lateness would then read as daemon latency.
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), 5);
  serve::WireClientOptions o;
  o.socket_path = socket;
  o.name = p.name;
  o.seed = seed;
  o.window = 1;
  o.backoff_initial_ns = 1'000'000;
  o.backoff_max_ns = 100'000'000;
  o.max_attempts = 100;
  serve::WireClient client(o);
  const auto frames = spool::scan_frames(p.bytes);
  u32 workers = 0;
  std::memcpy(&workers, p.bytes.data() + spool::kSpoolMagic.size(), 4);
  p.acks.reserve(frames.size());
  p.ok = client.begin(workers, &p.error);
  for (const auto& f : frames) {
    if (!p.ok) break;
    Scope s("serve.push_epoch");
    const i64 t0 = now_ns();
    p.ok = client.send_frame(
        std::string_view(p.bytes.data() + f.offset, f.size), f.offset,
        &p.error);
    p.acks.push_back({t0, now_ns()});
  }
  if (p.ok)
    p.ok = client.seal(serve::wire::EndKind::Clean, p.bytes.size(), 0,
                       &p.error);
  p.reconnects = client.reconnects();
  client.bye();
}

}  // namespace

void run_serve_live(const RunConfig& cfg, Result& r) {
  const Sizes sz = sizes(cfg);
  const std::string sealed_path = cfg.workdir + "/sealed.ggspool";
  std::string sealed_bytes;
  std::unique_ptr<Daemon> daemon;

  // Set-up: synthesize the sealed spool, start the daemon, wait until the
  // session is sealed and ready. Repeated; the last daemon is measured.
  const int reps = cfg.tiny || cfg.trace ? 1 : 3;
  bool ready = true;
  const double setup_s = timed_setup(reps, [&](int) {
    if (daemon) daemon->stop();
    daemon.reset();
    sealed_bytes = make_spool(cfg.seed, sz.sealed_grains, 64 * 1024);
    std::ofstream(sealed_path, std::ios::binary) << sealed_bytes;
    daemon = std::make_unique<Daemon>(cfg, sealed_path);
    if (!daemon->started() || !daemon->wait_sealed(60)) ready = false;
  });
  if (!ready) {
    r.fail("daemon did not start or the sealed session never sealed");
    r.op(false);
    return;
  }
  std::vector<Pusher> pushers(2);
  for (size_t i = 0; i < pushers.size(); ++i) {
    pushers[i].name = "push-" + std::to_string(i);
    pushers[i].bytes = make_spool(cfg.seed * 1000 + 17 + i, sz.push_grains,
                                  sz.push_epoch_bytes);
  }

  // Idle STATUS latency, before any load.
  std::vector<double> idle_us;
  for (int i = 0; i < 200; ++i) {
    std::string resp;
    const i64 t0 = now_ns();
    const bool ok = daemon->request("STATUS", &resp);
    idle_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    r.op(ok && resp.rfind("ggserved ", 0) == 0, "idle STATUS failed");
  }

  // Load phase.
  std::mutex mu;  // guards the shared sample vectors below
  std::vector<Interval> statuses, reports;
  std::vector<double> status_ms, lag_ms, during_ms;
  std::atomic<bool> pushing{true};
  const i64 start = now_ns();

  std::vector<std::thread> threads;
  for (size_t i = 0; i < pushers.size(); ++i)
    threads.emplace_back(push, std::ref(pushers[i]), daemon->ingest_socket(),
                         cfg.seed * 7 + i);
  threads.emplace_back([&] {
    const i64 period = static_cast<i64>(1e9 / sz.status_hz);
    for (i64 k = 0; pushing.load(std::memory_order_acquire); ++k) {
      const i64 due = start + k * period;
      const i64 wait = due - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      const i64 sent = now_ns();
      std::string resp;
      bool ok;
      {
        Scope s("serve.status");
        ok = daemon->request("STATUS", &resp) &&
             resp.rfind("ggserved ", 0) == 0;
      }
      const i64 done = now_ns();
      std::lock_guard<std::mutex> lock(mu);
      r.op(ok, "STATUS failed: " + resp);
      statuses.push_back({sent, done});
      status_ms.push_back(static_cast<double>(done - due) / 1e6);
      lag_ms.push_back(static_cast<double>(sent - due) / 1e6);
    }
  });
  threads.emplace_back([&] {
    const i64 period = static_cast<i64>(sz.report_period_s * 1e9);
    for (i64 k = 0; pushing.load(std::memory_order_acquire); ++k) {
      const i64 due = start + period / 2 + k * period;
      const i64 wait = due - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      if (!pushing.load(std::memory_order_acquire)) break;
      const i64 sent = now_ns();
      std::string resp;
      bool ok;
      {
        Scope s("serve.report_during_push");
        ok = daemon->request("REPORT " + sealed_path, &resp) &&
             resp.rfind("===", 0) == 0;
      }
      const i64 done = now_ns();
      std::lock_guard<std::mutex> lock(mu);
      r.op(ok, "REPORT failed: " + resp.substr(0, 200));
      reports.push_back({sent, done});
      during_ms.push_back(static_cast<double>(done - due) / 1e6);
      lag_ms.push_back(static_cast<double>(sent - due) / 1e6);
    }
  });
  threads[0].join();
  threads[1].join();
  const double push_s = static_cast<double>(now_ns() - start) / 1e9;
  pushing.store(false, std::memory_order_release);
  for (size_t i = 2; i < threads.size(); ++i) threads[i].join();

  u64 epochs = 0, reconnects = 0;
  std::vector<Interval> acks;
  for (Pusher& p : pushers) {
    r.op(p.ok, "push " + p.name + " failed: " + p.error);
    if (!p.ok) r.fail("a push did not seal");
    epochs += p.acks.size();
    reconnects += p.reconnects;
    acks.insert(acks.end(), p.acks.begin(), p.acks.end());
  }
  std::vector<double> ack_us;
  for (const Interval& a : acks)
    ack_us.push_back(static_cast<double>(a.end - a.start) / 1e3);
  // ACK figures per one-second window of the push phase, then the median
  // window: a second in which another tenant held the core moves one
  // window, not the run's figure.
  std::vector<double> win_rate, win_p50, win_p99;
  for (const std::vector<double>& w : by_second(acks, ack_us, start)) {
    if (w.size() < 1000) continue;
    win_rate.push_back(static_cast<double>(w.size()));
    win_p50.push_back(median(w));
    win_p99.push_back(percentile(w, 99));
  }
  if (win_rate.empty()) {  // pushes shorter than two windows (tiny runs)
    win_rate.push_back(static_cast<double>(epochs) / push_s);
    win_p50.push_back(median(ack_us));
    win_p99.push_back(tail_percentile(ack_us, nullptr));
  }
  std::vector<double> status_win_p50;
  for (const std::vector<double>& w : by_second(statuses, status_ms, start))
    if (w.size() >= 50) status_win_p50.push_back(median(w));
  if (status_win_p50.empty()) status_win_p50.push_back(median(status_ms));

  // Repeat REPORTs of the sealed session, then parity with batch recovery.
  Trace sealed_trace;
  const std::string sealed_ref = batch_report(sealed_bytes, &sealed_trace);
  if (sealed_ref.empty()) r.fail("batch recovery of the sealed spool failed");
  std::vector<double> sealed_ms;
  for (int i = 0; i < sz.sealed_repeats; ++i) {
    std::string resp;
    const i64 t0 = now_ns();
    bool ok;
    {
      Scope s("serve.report_sealed_repeat");
      ok = daemon->request("REPORT " + sealed_path, &resp);
    }
    sealed_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    ok = ok && resp == sealed_ref;
    if (!ok) r.fail("sealed REPORT differs from batch recovery");
    r.op(ok, "sealed REPORT failed");
  }
  for (const Pusher& p : pushers) {
    std::string resp;
    const bool ok = daemon->request("REPORT " + p.name, &resp) &&
                    resp == batch_report(p.bytes);
    if (!ok) r.fail("final REPORT of " + p.name + " differs from batch");
    r.op(ok, "final REPORT failed");
  }
  std::string sessions, status;
  daemon->request("SESSIONS", &sessions);
  daemon->request("STATUS", &status);
  u64 resident = 0;
  for (size_t at = 0; at < sessions.size();) {
    const size_t nl = sessions.find('\n', at);
    const std::string line = sessions.substr(at, nl - at);
    if (line.rfind("session ", 0) == 0) resident = field(line, "resident=");
    if (nl == std::string::npos) break;
    at = nl + 1;
  }
  const double peak = static_cast<double>(daemon->stop());
  if (peak <= 0) r.fail("daemon exit not observed");

  const double sealed_grains = static_cast<double>(sealed_trace.grain_count());
  double p_status = 0;
  const double status_tail = tail_percentile(status_ms, &p_status);
  r.fact("input.sealed_grains", sealed_grains);
  r.fact("daemon.sealed_resident_bytes", static_cast<double>(resident));
  r.fact("input.sealed_bytes", static_cast<double>(sealed_bytes.size()));
  r.fact("input.push_bytes", static_cast<double>(pushers[0].bytes.size() +
                                                 pushers[1].bytes.size()));
  r.fact("load.push_s", push_s);
  r.fact("samples.ack", static_cast<double>(ack_us.size()));
  r.fact("samples.status", static_cast<double>(status_ms.size()));
  r.fact("samples.report_during_push", static_cast<double>(during_ms.size()));
  // The op is a repeat REPORT: the first one after the pushes is its
  // warm-up, reported on its own (a cache would make only it slow).
  const std::vector<double> repeat_ms(sealed_ms.begin() + 1, sealed_ms.end());
  r.fact("samples.op", static_cast<double>(repeat_ms.size()));
  r.fact("op_min_ms", percentile(repeat_ms, 0));
  r.fact("op_max_ms", percentile(repeat_ms, 100));
  r.fact("percentile.status_tail", p_status);
  r.fact("samples.ack_windows", static_cast<double>(win_rate.size()));
  r.fact("samples.status_windows", static_cast<double>(status_win_p50.size()));
  r.fact("ack_p99_whole_run_us", percentile(ack_us, 99));
  r.fact("ingest_epochs_per_s_whole_run", static_cast<double>(epochs) / push_s);
  r.fact("report_sealed_first_ms", sealed_ms.empty() ? 0 : sealed_ms[0]);
  r.fact("report_during_push_p50_ms", median(during_ms));
  r.fact_str("output.digest", digest(sealed_ref));
  r.fact_str("daemon.analysis_threads", "GG_THREADS=1");
  if (during_ms.empty()) r.fail("no REPORT ran beside the pushes");

  const double report_sealed = median(repeat_ms);
  r.fact("serve.ingest_epochs_per_s", median(win_rate));
  r.fact("serve.ack_p50_us", median(win_p50));
  r.fact("serve.ack_p99_us", median(win_p99));
  r.fact("serve.status_p50_ms", median(status_win_p50));
  r.fact("serve.status_p99_ms", status_tail);
  r.fact("serve.status_idle_us", median(idle_us));
  r.fact("serve.status_behind_report_share", behind_share(statuses, reports));
  r.fact("serve.ack_behind_report_share", behind_share(acks, reports));
  r.fact("serve.resident_bytes_per_grain",
         static_cast<double>(resident) / sealed_grains);
  r.fact("serve.queries_shed", static_cast<double>(field(status, "shed=")));
  r.fact("serve.push_reconnects", static_cast<double>(reconnects));
  r.fact("serve.generator_lag_ms", tail_percentile(lag_ms, nullptr));
  if (!cfg.trace) {
    r.set("setup_s", setup_s, "s");
    r.set("peak_rss_mb", peak / 1e6, "MB");
    r.set("op_p50_ms", report_sealed, "ms");
    return;
  }

  // The layers on this workload's state: the sealed session's trace saved
  // as GGTB3, and the first pushed spool (one record per EPOCH, as the
  // ingest path applies it).
  LayerInput in;
  in.trace_path = cfg.workdir + "/sealed.ggbin";
  in.grains = sealed_trace.grain_count();
  in.spool = pushers[0].bytes;
  in.report_text_digest = digest(sealed_ref);
  const bool saved = save_trace_file(sealed_trace, in.trace_path);
  if (!saved) r.fail("cannot save the sealed trace");
  r.op(saved, "save failed");
  sealed_trace = Trace();
  if (!saved) return;
  r.fact_str("layers.digest", measure_layers(in, r));
  // The direct analysis the REPORT runs, and what the query path adds.
  const double analysis_ms =
      median(tracer().durations_ns("serve.analysis_report_text")) / 1e6;
  r.fact("serve.report_analysis_ms", analysis_ms);
  r.fact("serve.report_overhead_ms", report_sealed - analysis_ms);
}

}  // namespace bench
