#include "serve/server.hpp"

#include <dirent.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/endpoint.hpp"

namespace gg::serve {

namespace {

bool has_spool_suffix(const std::string& name) {
  static constexpr const char kSuffix[] = ".ggspool";
  static constexpr size_t kSuffixLen = sizeof kSuffix - 1;
  return name.size() > kSuffixLen &&
         name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) == 0;
}

std::string first_word(const std::string& line, std::string* rest) {
  size_t sp = line.find(' ');
  if (sp == std::string::npos) {
    rest->clear();
    return line;
  }
  std::string word = line.substr(0, sp);
  while (sp < line.size() && line[sp] == ' ') ++sp;
  *rest = line.substr(sp);
  while (!rest->empty() && rest->back() == ' ') rest->pop_back();
  return word;
}

/// The commands with their own serve.query_ns histogram; anything else is
/// observed as "other".
constexpr const char* kCommands[] = {"PING",      "STATUS", "SESSIONS",
                                     "SUMMARY",   "REPORT", "TELEMETRY",
                                     "ATTACH",    "EVICT",  "SHUTDOWN",
                                     "other"};

}  // namespace

/// mu_, tagged with its holder for the stall diagnosis. The tag is set
/// after the lock is taken and cleared before it is released.
class Server::Hold {
 public:
  Hold(const Server& s, std::string who) : s_(s), lock_(s.mu_) {
    std::lock_guard<std::mutex> tag(s_.holder_mu_);
    s_.holder_ = std::move(who);
    s_.holder_since_ns_ = obs::mono_ns();
    s_.holder_active_ = true;
  }
  ~Hold() {
    std::lock_guard<std::mutex> tag(s_.holder_mu_);
    s_.holder_since_ns_ = obs::mono_ns();
    s_.holder_active_ = false;
  }

  Hold(const Hold&) = delete;
  Hold& operator=(const Hold&) = delete;

 private:
  const Server& s_;
  std::lock_guard<std::mutex> lock_;
};

Server::Server(const ServerOptions& opts)
    : opts_(opts),
      admission_(opts.admission, opts.telemetry),
      ingest_(opts.ingest, opts.telemetry) {
  if (opts_.telemetry != nullptr) {
    m_ticks_ = opts_.telemetry->counter("serve.ticks");
    m_frames_ = opts_.telemetry->counter("serve.frames_applied");
    m_attached_ = opts_.telemetry->counter("serve.sessions_attached");
    m_stalls_ = opts_.telemetry->counter("serve.watchdog_stalls");
    m_cache_hits_ = opts_.telemetry->counter("serve.report_cache.hits");
    m_cache_misses_ = opts_.telemetry->counter("serve.report_cache.misses");
    g_cache_bytes_ = opts_.telemetry->gauge("serve.report_cache.bytes");
    for (const char* cmd : kCommands) {
      std::string name = std::string("serve.query_ns.") + cmd;
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      m_query_ns_[cmd] = opts_.telemetry->histogram(name);
    }
  }
}

Server::~Server() {
  stop();
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
  if (ingest_listener_) ingest_listener_->stop();
  if (endpoint_) endpoint_->stop();
}

u64 Server::now_ns() const {
  return opts_.clock ? opts_.clock() : obs::mono_ns();
}

bool Server::attach(const std::string& path) {
  Hold hold(*this, "attach");
  if (sessions_.count(path) != 0) return false;
  sessions_.emplace(path, std::make_shared<Session>(next_id_++, path,
                                                    opts_.session));
  ever_attached_ = true;
  if (m_attached_ != nullptr) m_attached_->add();
  return true;
}

void Server::scan_dir_locked(u64 now) {
  if (opts_.dir.empty() || now < next_scan_ns_) return;
  next_scan_ns_ = now + opts_.scan_interval_ns;
  DIR* dir = ::opendir(opts_.dir.c_str());
  if (dir == nullptr) return;
  while (dirent* ent = ::readdir(dir)) {
    const std::string name = ent->d_name;
    if (!has_spool_suffix(name)) continue;
    const std::string path = opts_.dir + "/" + name;
    if (sessions_.count(path) != 0) continue;
    sessions_.emplace(path, std::make_shared<Session>(next_id_++, path,
                                                      opts_.session));
    ever_attached_ = true;
    if (m_attached_ != nullptr) m_attached_->add();
  }
  ::closedir(dir);
}

void Server::tick() {
  // Ingest supervision runs before the session lock: the sweep takes the
  // registry's own locks and may finalize abandoned wire streams.
  const u64 tick_now = now_ns();
  ingest_.sweep(tick_now);
  const u64 ingest_resident = ingest_.resident_bytes();
  const size_t ingest_streams = ingest_.stream_count();

  Hold hold(*this, "tick");
  const u64 now = now_ns();
  scan_dir_locked(now);

  size_t frames = 0;
  u64 resident = ingest_resident;
  for (auto& [path, session] : sessions_) {
    frames += session->tick(now);
    resident += session->resident_bytes();
  }
  if (g_cache_bytes_ != nullptr) {
    u64 cached = 0;
    for (auto& [path, session] : sessions_) cached += session->cache().bytes();
    ingest_.for_each(
        [&cached](const IngestStream& s) { cached += s.cache().bytes(); });
    g_cache_bytes_->set(static_cast<double>(cached));
  }
  admission_.update(resident, sessions_.size() + ingest_streams);
  apply_backpressure_locked(now);
  evict_sweep_locked(now);

  heartbeat_.fetch_add(1, std::memory_order_release);
  if (m_ticks_ != nullptr) m_ticks_->add();
  if (m_frames_ != nullptr && frames > 0)
    m_frames_->add(static_cast<u64>(frames));
}

void Server::apply_backpressure_locked(u64 now) {
  if (!admission_.should_pause_tailers()) {
    // Pressure relieved: resume everything we paused.
    for (auto& [path, session] : sessions_) {
      if (session->paused() && !session->finalized()) {
        session->resume(now);
        admission_.note_resumed();
      }
    }
    return;
  }
  // Pause live sessions lowest-priority first (ties: biggest footprint
  // first), but always keep at least one tailer live so ingestion as a
  // whole cannot deadlock against the budget.
  std::vector<Session*> live;
  for (auto& [path, session] : sessions_) {
    if (!session->finalized() && !session->paused())
      live.push_back(session.get());
  }
  if (live.size() <= 1) return;
  std::sort(live.begin(), live.end(), [](const Session* a, const Session* b) {
    if (a->priority() != b->priority()) return a->priority() < b->priority();
    return a->resident_bytes() > b->resident_bytes();
  });
  for (size_t i = 0; i + 1 < live.size(); ++i) {
    live[i]->pause(now);
    admission_.note_paused();
  }
}

void Server::evict_sweep_locked(u64 now) {
  // Pass 1: finalized sessions nobody queried for evict_after_ns.
  std::vector<std::string> expired;
  for (auto& [path, session] : sessions_) {
    if (!session->finalized()) continue;
    const u64 idle_since =
        std::max(session->last_activity_ns(), session->last_query_ns());
    if (now - idle_since >= opts_.session.evict_after_ns)
      expired.push_back(path);
  }
  for (const auto& path : expired) evict_locked(path);

  // Pass 2: still over budget → evict finalized sessions LRU until under.
  while (admission_.over_budget()) {
    Session* victim = nullptr;
    for (auto& [path, session] : sessions_) {
      if (!session->finalized()) continue;
      if (victim == nullptr ||
          std::max(session->last_activity_ns(), session->last_query_ns()) <
              std::max(victim->last_activity_ns(), victim->last_query_ns()))
        victim = session.get();
    }
    if (victim == nullptr) break;  // nothing evictable; tailers pause instead
    evict_locked(victim->path());
  }
}

void Server::evict_locked(const std::string& path) {
  auto it = sessions_.find(path);
  if (it == sessions_.end()) return;
  u64 resident = admission_.resident_bytes();
  const u64 freed = it->second->resident_bytes();
  sessions_.erase(it);
  admission_.note_evicted();
  admission_.update(resident > freed ? resident - freed : 0,
                    sessions_.size());
}

std::shared_ptr<Session> Server::find_locked(const std::string& key) {
  auto it = sessions_.find(key);
  if (it != sessions_.end()) return it->second;
  // Fall back to the numeric session id, then to a unique basename match —
  // SESSIONS prints absolute paths, but a human queries "w1.ggspool".
  for (auto& [path, session] : sessions_) {
    if (std::to_string(session->id()) == key) return session;
  }
  std::shared_ptr<Session> by_name;
  for (auto& [path, session] : sessions_) {
    const size_t slash = path.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    if (base == key) {
      if (by_name) return nullptr;  // ambiguous: require the path
      by_name = session;
    }
  }
  return by_name;
}

std::string Server::status_locked() const {
  std::ostringstream os;
  os << "ggserved sessions=" << sessions_.size()
     << " resident=" << admission_.resident_bytes() << "/"
     << admission_.budget_bytes()
     << " level=" << degrade_level_name(admission_.level())
     << " ticks=" << heartbeat_.load(std::memory_order_relaxed)
     << " shed=" << admission_.queries_shed()
     << " paused=" << admission_.tailers_paused()
     << " evicted=" << admission_.sessions_evicted()
     << " stalls=" << watchdog_stalls_.load(std::memory_order_relaxed)
     << " ingest_streams=" << ingest_.stream_count()
     << " ingest_open=" << ingest_.open_count()
     << "\n";
  return os.str();
}

std::string Server::query(const std::string& request) {
  std::string rest;
  const std::string cmd = first_word(request, &rest);
  const u64 start = obs::mono_ns();
  std::string out = answer(cmd, rest, now_ns());
  if (!m_query_ns_.empty()) {
    auto it = m_query_ns_.find(cmd);
    if (it == m_query_ns_.end()) it = m_query_ns_.find("other");
    it->second->observe(obs::mono_ns() - start);
  }
  return out;
}

std::string Server::answer(const std::string& cmd, const std::string& rest,
                           u64 now) {
  if (cmd == "PING") return "PONG\n";
  if (cmd == "SHUTDOWN") {
    stop();
    return "OK shutting down\n";
  }
  if (cmd == "TELEMETRY") {
    if (opts_.telemetry == nullptr) return "no telemetry\n";
    const obs::MetricsSnapshot snap = opts_.telemetry->snapshot();
    if (rest == "PROM") return obs::render_prometheus(snap);
    if (rest == "JSON") return obs::render_json(snap);
    std::ostringstream os;
    obs::render_text(os, snap);
    return os.str();
  }

  // REPORT resolves its session and cache key here, then analyzes with
  // mu_ released.
  std::shared_ptr<Session> s;
  std::shared_ptr<IngestStream> ws;
  ReportKey key;
  {
    Hold hold(*this, "query " + cmd.substr(0, 16));
    if (cmd == "STATUS") return status_locked();
    if (cmd == "SESSIONS") {
      std::string out;
      for (const auto& [path, session] : sessions_)
        out += session->status_line() + "\n";
      ingest_.for_each([&out](const IngestStream& st) {
        out += st.status_line() + "\n";
      });
      if (out.empty()) out = "no sessions\n";
      return out;
    }
    if (cmd == "SUMMARY") {
      std::string summary;
      if (auto found = find_locked(rest)) {
        found->touch_query(now);
        if (const spool::RecoverReport* rep = found->report())
          summary = rep->summary();
      } else if (auto stream = ingest_.find_by_key(rest)) {
        // Wire-fed streams answer the same query surface as tailed files.
        stream->touch_query(now);
        summary = stream->summary();
      } else {
        return "ERR no such session: " + rest + "\n";
      }
      return summary.empty() ? "no data yet\n" : summary + "\n";
    }
    if (cmd == "REPORT") {
      s = find_locked(rest);
      if (!s) {
        ws = ingest_.find_by_key(rest);
        if (!ws) return "ERR no such session: " + rest + "\n";
        ws->touch_query(now);
      } else {
        s->touch_query(now);
      }
      if (!admission_.admit_heavy_query()) {
        return "SHED report refused under memory pressure (level=" +
               std::string(degrade_level_name(admission_.level())) +
               ", resident=" + std::to_string(admission_.resident_bytes()) +
               "/" + std::to_string(admission_.budget_bytes()) +
               "); retry later or use SUMMARY\n";
      }
      key = s ? s->report_key() : ws->report_key();
    } else if (cmd == "ATTACH") {
      if (rest.empty()) return "ERR ATTACH <path>\n";
      if (sessions_.count(rest) != 0) return "OK already attached\n";
      sessions_.emplace(rest, std::make_shared<Session>(next_id_++, rest,
                                                        opts_.session));
      ever_attached_ = true;
      if (m_attached_ != nullptr) m_attached_->add();
      return "OK attached " + rest + "\n";
    } else if (cmd == "EVICT") {
      const std::shared_ptr<Session> victim = find_locked(rest);
      if (!victim) return "ERR no such session: " + rest + "\n";
      const std::string path = victim->path();
      victim->finalize(now);
      evict_locked(path);
      return "OK evicted " + path + "\n";
    } else {
      return "ERR unknown command: " + cmd + "\n";
    }
  }
  return report(s, ws, key);
}

std::string Server::report(const std::shared_ptr<Session>& s,
                           const std::shared_ptr<IngestStream>& ws,
                           const ReportKey& key) {
  ReportCache& cache = s ? s->cache() : ws->cache();
  if (auto hit = cache.find(key)) {
    if (m_cache_hits_ != nullptr) m_cache_hits_->add();
    return *hit;
  }
  std::lock_guard<std::mutex> gate(analysis_gate_);
  ReportSnapshot snap;
  if (s) {
    Hold hold(*this, "query REPORT snapshot");
    snap = s->snapshot();
  } else {
    snap = ws->snapshot();
  }
  // A REPORT of the same key may have rendered it while this one waited.
  if (auto hit = cache.find(snap.key)) {
    if (m_cache_hits_ != nullptr) m_cache_hits_->add();
    return *hit;
  }
  if (m_cache_misses_ != nullptr) m_cache_misses_->add();
  const ReportKey rendered_key = snap.key;
  auto text = std::make_shared<const std::string>(
      snapshot_report_text(std::move(snap)));
  if (text->empty()) return "ERR session not usable\n";
  cache.store(rendered_key, text);
  return *text;
}

size_t Server::session_count() const {
  Hold hold(*this, "session_count");
  return sessions_.size();
}

u64 Server::resident_bytes() const {
  Hold hold(*this, "resident_bytes");
  u64 total = 0;
  for (const auto& [path, session] : sessions_)
    total += session->resident_bytes();
  return total;
}

bool Server::idle() const {
  Hold hold(*this, "idle");
  if (!ever_attached_) return false;
  for (const auto& [path, session] : sessions_) {
    if (!session->finalized()) return false;
  }
  return true;
}

void Server::for_each_session(
    const std::function<void(const Session&)>& fn) const {
  Hold hold(*this, "for_each_session");
  for (const auto& [path, session] : sessions_) fn(*session);
}

std::string Server::diagnosis() const {
  // try_lock: the watchdog calls this precisely when the ingest loop may
  // be wedged holding mu_ — a diagnosis that deadlocks is no diagnosis.
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  std::string who;
  u64 since_ns = 0;
  bool active = false;
  {
    std::lock_guard<std::mutex> tag(holder_mu_);
    who = holder_.empty() ? "nobody" : holder_;
    since_ns = holder_since_ns_;
    active = holder_active_;
  }
  const u64 now = obs::mono_ns();
  const u64 ms = now > since_ns ? (now - since_ns) / 1'000'000 : 0;
  std::ostringstream os;
  os << "=== ggserved stall diagnosis ===\n";
  os << "heartbeat=" << heartbeat_.load(std::memory_order_relaxed)
     << " stalls=" << watchdog_stalls_.load(std::memory_order_relaxed)
     << " stopping=" << (stopping() ? 1 : 0) << "\n";
  if (!lock.owns_lock()) {
    // A holder between taking mu_ and tagging it is not named yet.
    if (active)
      os << "session table locked by " << who << " for " << ms << " ms";
    else
      os << "session table locked (holder not yet tagged)";
    os << "; per-session state unavailable\n";
    return os.str();
  }
  os << "session table free; last held by " << who << ", released " << ms
     << " ms ago\n";
  os << "sessions=" << sessions_.size()
     << " resident=" << admission_.resident_bytes() << "/"
     << admission_.budget_bytes()
     << " level=" << degrade_level_name(admission_.level())
     << " ingest_streams=" << ingest_.stream_count()
     << " ingest_open=" << ingest_.open_count() << "\n";
  for (const auto& [path, session] : sessions_)
    os << "  " << session->status_line() << "\n";
  ingest_.for_each([&os](const IngestStream& s) {
    os << "  " << s.status_line() << "\n";
  });
  return os.str();
}

void Server::watchdog_main() {
  // The watchdog observes real time regardless of an injected test clock:
  // a wedged ingest loop cannot advance a fake clock, and the whole point
  // is catching the loop when it stops making progress.
  u64 last_beat = heartbeat_.load(std::memory_order_acquire);
  u64 last_change_ns = obs::mono_ns();
  bool stalled = false;
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(opts_.watchdog_poll_ns));
    const u64 beat = heartbeat_.load(std::memory_order_acquire);
    const u64 now = obs::mono_ns();
    if (beat != last_beat) {
      last_beat = beat;
      last_change_ns = now;
      stalled = false;
      continue;
    }
    if (stalled || now - last_change_ns < opts_.watchdog_stall_ns) continue;
    stalled = true;  // rearm only after the next heartbeat
    watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
    if (m_stalls_ != nullptr) m_stalls_->add();
    const std::string report = diagnosis();
    std::fwrite(report.data(), 1, report.size(), stderr);
    std::fflush(stderr);
    if (opts_.on_stall) opts_.on_stall(report);
  }
}

void Server::finalize_all() {
  ingest_.finalize_all(now_ns());
  Hold hold(*this, "finalize_all");
  const u64 now = now_ns();
  u64 resident = ingest_.resident_bytes();
  for (auto& [path, session] : sessions_) {
    session->finalize(now);
    resident += session->resident_bytes();
  }
  admission_.update(resident, sessions_.size() + ingest_.stream_count());
}

int Server::run() {
  watchdog_stop_.store(false, std::memory_order_release);
  watchdog_ = std::thread([this] { watchdog_main(); });

  if (!opts_.socket_path.empty()) {
    endpoint_ = std::make_unique<Endpoint>(
        opts_.socket_path,
        [this](const std::string& req) { return query(req); },
        opts_.query_read_deadline_ns);
    std::string err;
    if (!endpoint_->start(&err)) {
      std::fprintf(stderr, "ggserved: endpoint failed: %s\n", err.c_str());
      endpoint_.reset();
      watchdog_stop_.store(true, std::memory_order_release);
      watchdog_.join();
      return 1;
    }
  }

  if (!opts_.ingest_socket_path.empty()) {
    // New streams' OFFERs are shed as soon as admission starts degrading —
    // before any tailer pauses; streams already carrying data always get
    // through (admission never abandons an accepted session).
    ingest_listener_ = std::make_unique<IngestListener>(
        opts_.ingest_socket_path, &ingest_,
        [this] { return admission_.level() == DegradeLevel::Normal; },
        [this] { return now_ns(); });
    std::string err;
    if (!ingest_listener_->start(&err)) {
      std::fprintf(stderr, "ggserved: ingest listener failed: %s\n",
                   err.c_str());
      ingest_listener_.reset();
      if (endpoint_) {
        endpoint_->stop();
        endpoint_.reset();
      }
      watchdog_stop_.store(true, std::memory_order_release);
      watchdog_.join();
      return 1;
    }
  }

  while (!stopping()) {
    tick();
    if (opts_.exit_when_idle && idle()) break;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(opts_.tick_sleep_ns));
  }

  if (ingest_listener_) {
    ingest_listener_->stop();
    ingest_listener_.reset();
  }
  finalize_all();
  if (endpoint_) {
    endpoint_->stop();
    endpoint_.reset();
  }
  watchdog_stop_.store(true, std::memory_order_release);
  watchdog_.join();
  return 0;
}

}  // namespace gg::serve
