// Bounded-memory backpressure for the serve layer.
//
// One global admission budget covers every session's resident bytes
// (buffered tail + accumulated records). As usage climbs the controller
// degrades gracefully instead of aborting, shedding the cheapest thing
// that relieves the most pressure first:
//
//   < shed_fraction   Normal          everything admitted
//   >= shed_fraction  SheddingQueries heavy whole-graph queries refused
//                                     (cheap status/summary queries stay)
//   >= pause_fraction PausingTailers  + low-priority tailers paused (their
//                                     writers keep appending; ingestion
//                                     lags but loses nothing)
//
// Every shed/pause/evict decision is published through the obs::Registry
// (serve.* counters/gauges), so degradation is observable, never silent.
#pragma once

#include <atomic>
#include <cstddef>

#include "common/types.hpp"

namespace gg::obs {
class Registry;
class Counter;
class Gauge;
}  // namespace gg::obs

namespace gg::serve {

struct AdmissionOptions {
  /// Global resident-bytes budget across all sessions.
  u64 budget_bytes = 256ull << 20;
  /// Usage fraction at which heavy queries are shed.
  double shed_fraction = 0.75;
  /// Usage fraction at which low-priority tailers are paused.
  double pause_fraction = 0.90;
};

enum class DegradeLevel : u8 {
  Normal = 0,
  SheddingQueries = 1,
  PausingTailers = 2,
};

const char* degrade_level_name(DegradeLevel level);

class AdmissionController {
 public:
  /// `registry` may be null (tests without telemetry); decisions still
  /// work, they are just not published.
  AdmissionController(const AdmissionOptions& opts, obs::Registry* registry);

  /// Recomputes the degrade level from current usage and publishes the
  /// serve.* gauges. Called once per server tick.
  void update(u64 resident_bytes, size_t sessions);

  /// Safe from any thread: ingest connections read it to shed OFFERs.
  DegradeLevel level() const {
    return level_.load(std::memory_order_relaxed);
  }
  u64 budget_bytes() const { return opts_.budget_bytes; }
  u64 resident_bytes() const { return resident_bytes_; }
  bool over_budget() const { return resident_bytes_ > opts_.budget_bytes; }

  /// Gate for a heavy (whole-graph analysis) query. False means shed: the
  /// caller must answer with a cheap refusal, not block or abort.
  bool admit_heavy_query();

  /// True while tailers should be paused (usage >= pause_fraction).
  bool should_pause_tailers() const {
    return level() == DegradeLevel::PausingTailers;
  }

  // Decision bookkeeping, published as serve.* counters.
  void note_paused();
  void note_resumed();
  void note_evicted();

  u64 queries_shed() const { return queries_shed_; }
  u64 tailers_paused() const { return tailers_paused_; }
  u64 sessions_evicted() const { return sessions_evicted_; }

 private:
  AdmissionOptions opts_;
  std::atomic<DegradeLevel> level_{DegradeLevel::Normal};
  u64 resident_bytes_ = 0;
  u64 queries_shed_ = 0;
  u64 tailers_paused_ = 0;
  u64 sessions_evicted_ = 0;

  obs::Counter* m_shed_ = nullptr;
  obs::Counter* m_paused_ = nullptr;
  obs::Counter* m_resumed_ = nullptr;
  obs::Counter* m_evicted_ = nullptr;
  obs::Gauge* g_resident_ = nullptr;
  obs::Gauge* g_budget_ = nullptr;
  obs::Gauge* g_level_ = nullptr;
  obs::Gauge* g_sessions_ = nullptr;
};

}  // namespace gg::serve
