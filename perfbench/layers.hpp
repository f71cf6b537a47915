#pragma once

// Per-layer attribution for traced runs, measured from outside the library.
//
// install() re-registers the built-in policy, predictor, scheduler and
// file-backed trace-source factories *under their built-in names* with
// wrappers that forward every virtual to the built-in object and tally
// calls and busy time. Specs, cache keys and outputs therefore stay exactly
// what an untraced run produces; only the tallies are new. set_enabled()
// switches between handing out wrapped and plain built-in objects, so one
// process can alternate untraced and traced operations.
//
// Tallies are per thread (single writer, relaxed atomics), so a client
// thread can read the delta of its own request without locking, and
// totals() sums every thread once the instrumented work has finished.
//
// Spans are coarse records (one per replay, matrix, request, artifact, or
// aggregated layer call set within one of those), kept in memory and
// written as JSON lines when the run ends.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::layers {

enum Slot : std::size_t {
  kObserveNs,        ///< estimate: PredictorBuilder::observe_* time
  kTasksObserved,    ///< estimate: tasks fed to builders
  kFinalizeCalls,    ///< estimate: PredictorBuilder::finalize calls
  kFinalizeNs,       ///< estimate: PredictorBuilder::finalize time
  kQueries,          ///< estimate: StatsPredictor calls during replay
  kIntervalCalls,    ///< core: CheckpointPolicy::next_interval calls
  kIntervalNs,       ///< core: next_interval time
  kDecideCalls,      ///< sched: SchedulerPolicy::decide calls
  kDecideNs,         ///< sched: decide time
  kIngestCalls,      ///< ingest: file-source load/open_stream/next_batch
  kIngestNs,         ///< ingest: time in those calls
  kIngestRows,       ///< ingest: data rows examined by file sources
  kIngestSkipped,    ///< ingest: rows rejected by file sources
  kSlots
};

struct Tally {
  std::array<std::uint64_t, kSlots> v{};

  std::uint64_t operator[](Slot s) const { return v[s]; }
  Tally operator-(const Tally& o) const {
    Tally out;
    for (std::size_t i = 0; i < kSlots; ++i) out.v[i] = v[i] - o.v[i];
    return out;
  }
  Tally& operator+=(const Tally& o) {
    for (std::size_t i = 0; i < kSlots; ++i) v[i] += o.v[i];
    return *this;
  }
};

/// Registers the wrapping factories (idempotent). Wrapped objects are only
/// handed out while enabled.
void install();
void set_enabled(bool enabled);

/// This thread's running totals.
Tally this_thread();

/// Sum over every thread that ever tallied. Call only while no instrumented
/// work is running (after joins), or the live threads' part is a snapshot.
Tally totals();

inline double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// -- spans --------------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::string op;            ///< operation id ("replay-3", "req-1-42", ...)
  double start_s = 0.0;      ///< seconds since the benchmark's epoch
  double end_s = 0.0;
  std::uint64_t calls = 0;   ///< > 0 for an aggregate of many calls
  double busy_s = 0.0;       ///< time covered (end - start unless aggregate)
};

/// Span recorder. Not thread-safe: give each thread its own log and merge.
class SpanLog {
 public:
  /// Records a plain span and returns its id.
  std::uint64_t add(std::uint64_t parent, std::string name, std::string op,
                    double start_s, double end_s);
  /// Records an aggregate of `calls` calls that together took `busy_s`
  /// between `start_s` and `end_s` (skipped when calls == 0).
  void add_aggregate(std::uint64_t parent, std::string name, std::string op,
                     double start_s, double end_s, std::uint64_t calls,
                     double busy_s);
  /// Adds the estimation-pass aggregates of a tally delta (estimate.observe,
  /// estimate.finalize) under `parent`.
  void add_estimation(std::uint64_t parent, const std::string& op,
                      double start_s, double end_s, const Tally& delta);
  /// Adds the replay-phase aggregates (core.next_interval, sched.decide,
  /// estimate.queries — counted, not timed) under `parent`.
  void add_replay(std::uint64_t parent, const std::string& op, double start_s,
                  double end_s, const Tally& delta);
  /// Adds the file-source aggregate (ingest.file) under `parent`.
  void add_ingest(std::uint64_t parent, const std::string& op, double start_s,
                  double end_s, const Tally& delta);

  void merge(SpanLog&& other);

  /// Writes one JSON object per line; each span also carries its self time
  /// (duration minus the part its direct children cover).
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Seconds since the process-wide benchmark epoch (for span timestamps).
double now_s();

}  // namespace perfbench::layers
