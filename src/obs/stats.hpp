#pragma once

/// \file stats.hpp
/// \brief Counter/timer/gauge registry with per-thread collectors.
///
/// The collection substrate follows the Katana/Galois per-thread stat
/// collector: every thread owns a flat slot array indexed by stat id,
/// writes are single-writer relaxed atomics (no locks, no contention), and
/// a snapshot merges all collectors with order-independent reductions —
/// sum for counters and timers, max for gauges — then sorts by name. The
/// merged registry is therefore byte-identical no matter how a batch was
/// spread across BatchRunner workers, which is what lets the determinism
/// grid pin "serial == threaded" for observability output too.
///
/// Stats are registered as namespace-scope objects (the built-ins live in
/// obs::st below). The replay keeps plain per-run tallies and flushes them
/// here only when the run asks for stats (SimConfig::collect_stats).
///
/// Collector lifetime: a thread's collector is owned by the global
/// registry and survives the thread, so counts flushed by BatchRunner
/// workers remain visible after join. Timers record host nanoseconds and
/// are excluded from deterministic comparisons (write_stats_text with
/// include_timers = false).

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cloudcr::obs {

/// How a stat's per-thread slots merge: counters and timers sum, gauges
/// take the maximum (high-water marks).
enum class StatKind : std::uint8_t { kCounter, kGauge, kTimerNs };

/// "counter" | "gauge" | "timer_ns".
const char* stat_kind_token(StatKind kind) noexcept;

/// One named statistic. Construction registers the stat globally and
/// assigns a stable id; instances are expected to be namespace-scope
/// objects registered before any worker thread starts.
class Stat {
 public:
  Stat(std::string name, StatKind kind);

  /// Counter/timer: adds n to this thread's slot. Gauge: raises this
  /// thread's slot to at least n.
  void add(std::uint64_t n) noexcept;

  std::size_t id() const noexcept { return id_; }
  StatKind kind() const noexcept { return kind_; }

 private:
  std::size_t id_;
  StatKind kind_;
};

/// Zeroes every slot of every collector (all threads). Test / batch
/// boundary helper; not synchronized against concurrent add().
void reset_stats();

/// One merged entry of the registry.
struct StatValue {
  std::string name;
  StatKind kind = StatKind::kCounter;
  std::uint64_t value = 0;
};

/// Merges all per-thread collectors (sum / max by kind) and returns the
/// entries sorted by name. Entries whose merged value is zero are kept —
/// the registry shape is a function of the build, not of the workload.
std::vector<StatValue> stats_snapshot();

/// Writes `name kind value` lines, sorted by name. With include_timers =
/// false, kTimerNs entries are omitted — host-time sums are not
/// deterministic and must stay out of byte-compared output.
void write_stats_text(std::ostream& os, bool include_timers = true);

/// Writes the snapshot as a JSON array of {"name","kind","value"}.
void write_stats_json(std::ostream& os);

/// Adds the elapsed host time (steady clock, ns) to a kTimerNs stat when
/// destroyed.
class ScopedTimerNs {
 public:
  explicit ScopedTimerNs(Stat& stat)
      : stat_(&stat), t0_(std::chrono::steady_clock::now()) {}
  ~ScopedTimerNs() {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    stat_->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }
  ScopedTimerNs(const ScopedTimerNs&) = delete;
  ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;

 private:
  Stat* stat_;
  std::chrono::steady_clock::time_point t0_;
};

// -- built-in stats ----------------------------------------------------------
// Naming scheme: <layer>.<noun>[_<qualifier>] — see docs/observability.md.
// Populated by the hooks threaded through the engine; all zero unless the
// build compiled the hooks in and a run asked for stats collection.

namespace st {
extern Stat sim_events_popped;        ///< engine events dispatched
extern Stat sim_queue_rebuilds;       ///< calendar-queue resizes
extern Stat sim_placement_scans;      ///< dispatch sweeps over the queue
extern Stat sim_rows_recycled;        ///< task rows returned to the pool
extern Stat sim_ckpt_runs_compressed; ///< checkpoints replayed inline
extern Stat sim_ckpt_events_replayed; ///< checkpoints run through the engine
extern Stat sched_decide_calls;       ///< SchedulerPolicy::decide invocations
extern Stat sched_wakeups;            ///< scheduler wake events fired
extern Stat ingest_stream_batches;    ///< trace-stream chunks pulled
extern Stat storage_opslab_high_water;///< max live storage ops (gauge)
extern Stat api_estimation_ns;        ///< host ns in the estimation pass
extern Stat api_replay_ns;            ///< host ns in the replay pass
extern Stat report_evaluate_ns;       ///< host ns evaluating report entries
extern Stat svc_cache_hits;           ///< SimService artifact-cache hits
extern Stat svc_cache_misses;         ///< SimService artifact-cache misses
extern Stat svc_snapshot_resumes;     ///< what-if runs resumed from snapshots
extern Stat svc_snapshot_bytes;       ///< parked snapshot footprint (gauge)
}  // namespace st

}  // namespace cloudcr::obs
