// Shared pieces of the benchmark program: clocks, the span tracer of the
// traced run, sample statistics, memory probes, host facts and the result
// record every workload fills in.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace bench {

using gg::i64;
using gg::u32;
using gg::u64;

i64 now_ns();

/// Command-line settings of one workload run.
struct RunConfig {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrinks every input to a size that runs in well under a second; the
  /// smoke test uses it to check the plumbing, not the numbers.
  bool tiny = false;
  std::string workdir;  ///< scratch directory inside the checkout
  std::string ggserved;  ///< daemon binary (serve-live)
};

// --- traced run --------------------------------------------------------------

/// In-memory span recorder around calls into the program's modules. A span
/// name is "<layer>.<call>"; the layer is the module name. Spans opened on
/// one thread nest through a thread-local parent; every span carries the
/// run id of the workload run that made it.
class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< a string literal
    i64 start = 0;
    i64 end = 0;
    int parent = -1;
    u32 run = 0;
  };

  void enable(u32 run_id);
  bool enabled() const { return enabled_; }
  int open(const char* name);
  void close(int index);

  /// Self time per layer (span time minus the time of its child spans),
  /// in ns.
  std::map<std::string, i64> layer_self_ns() const;
  /// Durations of every span with this exact name, in ns, in open order.
  std::vector<double> durations_ns(const std::string& name) const;
  /// Writes the spans as a Chrome trace-event JSON file.
  bool write(const std::string& path) const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  bool enabled_ = false;
  u32 run_ = 0;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// Cost of one empty span (open + close), in ns, measured on a private
/// tracer; times the span count, it is the traced run's added time.
double span_cost_ns();

/// RAII span; a no-op unless the tracer is enabled.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Ends the span early (idempotent).
  void end();

 private:
  int index_ = -1;
};

// --- statistics --------------------------------------------------------------

/// Nearest-rank percentile (p in [0,100]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Highest of {99, 95, 90, 50} percentiles that leaves at least ten
/// samples above it, so a tail figure is never read off a handful.
double tail_percentile(const std::vector<double>& v, double* which);

// --- memory ------------------------------------------------------------------

u64 current_rss_bytes();
u64 peak_rss_bytes();

// --- result ------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. Everything outside `metrics` and the
/// operation counts goes to the facts line printed before the result.
struct Result {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, Metric> metrics;
  /// Extra facts: sample counts, digests, sizes (printed as JSON values).
  std::map<std::string, std::string> facts;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit);
  void fact(const std::string& name, double value);
  void fact_str(const std::string& name, const std::string& value);
  /// Counts one operation; a false `ok` counts it failed and records why.
  void op(bool ok, const std::string& what = {});
  /// Marks the run incorrect (a check on the outputs failed).
  void fail(const std::string& why);
};

/// Host facts that shape every number: processor counts, a measured
/// effective parallelism, L3 size.
void add_host_facts(Result& r);

/// FNV-1a 64 of a byte string, as 16 hex digits (output digests).
std::string digest(const std::string& bytes);

void print_result(const RunConfig& cfg, Result& r);

}  // namespace bench
