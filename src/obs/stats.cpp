#include "obs/stats.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <ostream>

#include "metrics/export.hpp"

namespace cloudcr::obs {

namespace {

/// Per-thread slot array. Slots are written only by the owning thread
/// (relaxed single-writer), read by stats_snapshot() under the registry
/// mutex; the registry owns the storage so counts survive thread exit.
struct Collector {
  std::vector<std::atomic<std::uint64_t>> slots;
  explicit Collector(std::size_t n) : slots(n) {}
};

struct Registry {
  std::mutex mutex;
  std::vector<std::pair<std::string, StatKind>> stats;  // indexed by id
  std::vector<std::unique_ptr<Collector>> collectors;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: stats outlive everything
  return *r;
}

/// This thread's collector, created (and registered) on first use. Sized
/// to the stats registered so far; Stat ids are assigned at static-init,
/// before any worker thread exists, so the size is final in practice —
/// add() still bounds-checks and grows under the lock as a safety net for
/// tests that register stats late.
Collector& local_collector() {
  thread_local Collector* tls = nullptr;
  if (tls == nullptr) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.collectors.push_back(std::make_unique<Collector>(r.stats.size()));
    tls = r.collectors.back().get();
  }
  return *tls;
}

void grow_locked(Collector& c, std::size_t need) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  if (c.slots.size() < need) {
    std::vector<std::atomic<std::uint64_t>> bigger(r.stats.size());
    for (std::size_t i = 0; i < c.slots.size(); ++i) {
      bigger[i].store(c.slots[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
    c.slots.swap(bigger);
  }
}

}  // namespace

const char* stat_kind_token(StatKind kind) noexcept {
  switch (kind) {
    case StatKind::kCounter:
      return "counter";
    case StatKind::kGauge:
      return "gauge";
    case StatKind::kTimerNs:
      return "timer_ns";
  }
  return "counter";
}

Stat::Stat(std::string name, StatKind kind) : kind_(kind) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  id_ = r.stats.size();
  r.stats.emplace_back(std::move(name), kind);
}

void Stat::add(std::uint64_t n) noexcept {
  Collector& c = local_collector();
  if (id_ >= c.slots.size()) grow_locked(c, id_ + 1);
  std::atomic<std::uint64_t>& slot = c.slots[id_];
  const std::uint64_t cur = slot.load(std::memory_order_relaxed);
  if (kind_ == StatKind::kGauge) {
    if (n > cur) slot.store(n, std::memory_order_relaxed);
  } else {
    slot.store(cur + n, std::memory_order_relaxed);
  }
}

void reset_stats() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& c : r.collectors) {
    for (auto& slot : c->slots) slot.store(0, std::memory_order_relaxed);
  }
}

std::vector<StatValue> stats_snapshot() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<StatValue> out;
  out.reserve(r.stats.size());
  for (std::size_t id = 0; id < r.stats.size(); ++id) {
    StatValue v;
    v.name = r.stats[id].first;
    v.kind = r.stats[id].second;
    for (const auto& c : r.collectors) {
      if (id >= c->slots.size()) continue;
      const std::uint64_t s = c->slots[id].load(std::memory_order_relaxed);
      if (v.kind == StatKind::kGauge) {
        v.value = std::max(v.value, s);
      } else {
        v.value += s;
      }
    }
    out.push_back(std::move(v));
  }
  std::sort(out.begin(), out.end(),
            [](const StatValue& a, const StatValue& b) {
              return a.name < b.name;
            });
  return out;
}

void write_stats_text(std::ostream& os, bool include_timers) {
  for (const StatValue& v : stats_snapshot()) {
    if (!include_timers && v.kind == StatKind::kTimerNs) continue;
    os << v.name << ' ' << stat_kind_token(v.kind) << ' ' << v.value << '\n';
  }
}

void write_stats_json(std::ostream& os) {
  os << '[';
  bool first = true;
  for (const StatValue& v : stats_snapshot()) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":" << metrics::json_quote(v.name) << ",\"kind\":\""
       << stat_kind_token(v.kind) << "\",\"value\":" << v.value << '}';
  }
  os << ']';
}

namespace st {
Stat sim_events_popped("sim.events_popped", StatKind::kCounter);
Stat sim_queue_rebuilds("sim.queue_rebuilds", StatKind::kCounter);
Stat sim_placement_scans("sim.placement_scans", StatKind::kCounter);
Stat sim_rows_recycled("sim.rows_recycled", StatKind::kCounter);
Stat sim_ckpt_runs_compressed("sim.ckpt_runs_compressed",
                              StatKind::kCounter);
Stat sim_ckpt_events_replayed("sim.ckpt_events_replayed",
                              StatKind::kCounter);
Stat sched_decide_calls("sched.decide_calls", StatKind::kCounter);
Stat sched_wakeups("sched.wakeups", StatKind::kCounter);
Stat ingest_stream_batches("ingest.stream_batches", StatKind::kCounter);
Stat storage_opslab_high_water("storage.opslab_high_water",
                               StatKind::kGauge);
Stat api_estimation_ns("api.estimation_ns", StatKind::kTimerNs);
Stat api_replay_ns("api.replay_ns", StatKind::kTimerNs);
Stat report_evaluate_ns("report.evaluate_ns", StatKind::kTimerNs);
Stat svc_cache_hits("svc.cache_hits", StatKind::kCounter);
Stat svc_cache_misses("svc.cache_misses", StatKind::kCounter);
Stat svc_snapshot_resumes("svc.snapshot_resumes", StatKind::kCounter);
Stat svc_snapshot_bytes("svc.snapshot_bytes", StatKind::kGauge);
}  // namespace st

}  // namespace cloudcr::obs
