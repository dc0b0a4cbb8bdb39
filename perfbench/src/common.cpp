#include "common.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace bench {

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- tracer ------------------------------------------------------------------

namespace {
thread_local int t_parent = -1;
}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::enable(u32 run_id) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = true;
  run_ = run_id;
  spans_.reserve(4096);
}

int Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = t_parent;
  s.run = run_;
  std::lock_guard<std::mutex> lock(mu_);
  s.start = now_ns();
  spans_.push_back(std::move(s));
  t_parent = static_cast<int>(spans_.size()) - 1;
  return t_parent;
}

void Tracer::close(int index) {
  const i64 end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = end;
  t_parent = spans_[static_cast<size_t>(index)].parent;
}

std::map<std::string, i64> Tracer::layer_self_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<i64> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, i64> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string n = s.name;
    const std::string layer = n.substr(0, n.find('.'));
    out[layer] += (s.end - s.start) - child_ns[i];
  }
  return out;
}

std::vector<double> Tracer::durations_ns(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(static_cast<double>(s.end - s.start));
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": " << s.run << ", \"tid\": 0"
       << ", \"ts\": " << static_cast<double>(s.start) / 1e3
       << ", \"dur\": " << static_cast<double>(s.end - s.start) / 1e3
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

Scope::Scope(const char* name) {
  if (tracer().enabled()) index_ = tracer().open(name);
}

Scope::~Scope() { end(); }

void Scope::end() {
  if (index_ >= 0) tracer().close(index_);
  index_ = -1;
}

double span_cost_ns() {
  Tracer t;
  t.enable(0);
  constexpr int kSpans = 20000;
  const i64 t0 = now_ns();
  for (int i = 0; i < kSpans; ++i) t.close(t.open("bench.probe"));
  return static_cast<double>(now_ns() - t0) / kSpans;
}

// --- statistics --------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail_percentile(const std::vector<double>& v, double* which) {
  for (double p : {99.0, 95.0, 90.0}) {
    if (static_cast<double>(v.size()) * (1.0 - p / 100.0) >= 10.0) {
      if (which) *which = p;
      return percentile(v, p);
    }
  }
  if (which) *which = 50;
  return percentile(v, 50);
}

// --- memory ------------------------------------------------------------------

namespace {
u64 status_kb(const char* key) {
  std::ifstream is("/proc/self/status");
  std::string line;
  const std::string k = key;
  while (std::getline(is, line)) {
    if (line.compare(0, k.size(), k) == 0)
      return std::strtoull(line.c_str() + k.size(), nullptr, 10);
  }
  return 0;
}
}  // namespace

u64 current_rss_bytes() { return status_kb("VmRSS:") * 1024; }
u64 peak_rss_bytes() { return status_kb("VmHWM:") * 1024; }

// --- result ------------------------------------------------------------------

namespace {
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}
}  // namespace

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics[name] = Metric{value, unit};
}

void Result::fact(const std::string& name, double value) {
  facts[name] = num(value);
}

void Result::fact_str(const std::string& name, const std::string& value) {
  facts[name] = quoted(value);
}

void Result::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (!what.empty() && errors.size() < 20) errors.push_back(what);
  }
}

void Result::fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

void add_host_facts(Result& r) {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned hc = std::thread::hardware_concurrency();
  r.fact("host.nproc", static_cast<double>(nproc));
  r.fact("host.hardware_concurrency", hc);

  // Effective parallelism: the same CPU-bound spin on one thread, then on
  // nproc threads at once, over every online CPU (the run itself may be
  // pinned to one). A host that time-slices one core reads ~1.
  cpu_set_t pinned, all;
  CPU_ZERO(&all);
  for (long c = 0; c < nproc; ++c) CPU_SET(static_cast<int>(c), &all);
  const bool widened = ::sched_getaffinity(0, sizeof pinned, &pinned) == 0 &&
                       ::sched_setaffinity(0, sizeof all, &all) == 0;
  auto spin = [] {
    volatile u64 x = 0;
    for (u64 i = 0; i < 20'000'000; ++i) x = x + i * 2654435761u;
  };
  const i64 t0 = now_ns();
  spin();
  const i64 one = now_ns() - t0;
  const int n = nproc > 0 ? static_cast<int>(nproc) : 1;
  std::vector<std::thread> pool;
  const i64 t1 = now_ns();
  for (int i = 0; i < n; ++i) pool.emplace_back(spin);
  for (auto& t : pool) t.join();
  const i64 many = now_ns() - t1;
  if (widened) ::sched_setaffinity(0, sizeof pinned, &pinned);
  r.fact("host.pinned_cpus", widened ? CPU_COUNT(&pinned) : 0);
  r.fact("host.effective_parallelism",
         many > 0 ? static_cast<double>(n) * static_cast<double>(one) /
                        static_cast<double>(many)
                  : 0.0);

  std::ifstream l3("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string size;
  if (l3 >> size) r.fact_str("host.l3", size);
  else r.fact_str("host.l3", "unknown");
}

std::string digest(const std::string& bytes) {
  u64 h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void print_result(const RunConfig& cfg, Result& r) {
  if (r.attempted == 0) r.fail("no operation was attempted");
  for (const std::string& e : r.errors)
    std::fprintf(stderr, "ggbench %s: %s\n", cfg.workload.c_str(), e.c_str());

  std::ostringstream facts;
  facts << "{\"workload\": " << quoted(cfg.workload) << ", \"seed\": "
        << cfg.seed << ", \"seconds\": " << num(cfg.seconds)
        << ", \"trace\": " << (cfg.trace ? 1 : 0);
  for (const auto& [k, v] : r.facts) facts << ", " << quoted(k) << ": " << v;
  facts << "}";
  std::printf("facts %s\n", facts.str().c_str());

  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    os << (first ? "" : ", ") << quoted(name) << ": {\"value\": "
       << num(m.value) << ", \"unit\": " << quoted(m.unit) << "}";
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

}  // namespace bench
