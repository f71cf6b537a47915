#pragma once

/// \file runner.hpp
/// \brief Executes one ScenarioSpec end-to-end and returns a RunArtifact.
///
/// The runner owns every lifetime the raw simulation layer leaves to the
/// caller: it builds the policy from the PolicyRegistry (and keeps it alive
/// across the replay — Simulation holds the policy by reference, which made
/// the old hand-wired call sites dangling-reference-prone), generates or
/// borrows the traces, builds the predictor, and times the run.
///
/// Everything a run needs is in the spec; RunHooks exists for the few
/// experiment shapes that are genuinely not serializable (a hand-crafted
/// story trace, a custom failure-history lambda) and for batch-level trace
/// sharing.

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "api/scenario.hpp"
#include "core/policy.hpp"
#include "sched/policy.hpp"
#include "sim/result.hpp"
#include "sim/simulation.hpp"
#include "trace/records.hpp"

namespace cloudcr::obs {
class TraceWriter;
}  // namespace cloudcr::obs

namespace cloudcr::api {
class SharedTraceCursor;
}  // namespace cloudcr::api

namespace cloudcr::api {

/// Everything one run produced: the spec echo (for provenance — artifacts
/// are self-describing and re-runnable), the aggregated simulation result,
/// replay-set shape, and wall time.
struct RunArtifact {
  ScenarioSpec spec;
  sim::SimResult result;
  std::size_t trace_jobs = 0;   ///< jobs in the replay set
  std::size_t trace_tasks = 0;  ///< tasks in the replay set
  double wall_time_s = 0.0;     ///< host wall time of the replay

  // -- host-side observability (never fed back into results) -----------------
  /// Host wall time of the estimation pass (predictor construction,
  /// including its trace generation or streaming estimator pass); 0 when a
  /// pre-built predictor was handed in via hooks.
  double estimation_wall_s = 0.0;
  /// Process-wide peak RSS (MB) sampled after the replay; 0 when the
  /// platform offers no getrusage. Monotone across a batch — per-artifact
  /// values reflect the process high-water at that point, not this run's
  /// isolated footprint.
  double peak_rss_mb = 0.0;
  /// Passes over trace sources this run performed (estimation + replay;
  /// history counts too). A streamed single-pass source serves both phases
  /// from 1; a lazy source pays 1 per phase that touches it; 0 when every
  /// trace came in via hooks.
  std::size_t trace_reads = 0;
  /// Task rows those passes produced (post-processed view). The one-cursor
  /// path halves this relative to two independent reads.
  std::size_t rows_read = 0;
};

/// Non-serializable extension points. All pointers are borrowed and must
/// outlive the run() call.
struct RunHooks {
  /// Replay this trace instead of reading spec.trace. The replay borrows
  /// its records in place (sim::TraceJobSource), so nothing is copied.
  const trace::Trace* replay_trace = nullptr;

  /// Estimate failure statistics from this trace instead of the one implied
  /// by spec.estimation.
  const trace::Trace* estimation_trace = nullptr;

  /// Bypass the PredictorRegistry entirely (custom failure histories).
  /// There is then no estimation pass, so a learning `length=` model
  /// (regression, history) is rejected.
  sim::StatsPredictor predictor_override;

  /// Pooled replay buffers (task tables, event queue slab) reused across
  /// runs: a batch worker replays spec after spec with no steady-state
  /// allocation. Contents are reset at the start of every run, so pooling
  /// can never change results (pinned by tests/api/determinism_test.cpp).
  /// Not thread-safe: one workspace per concurrent run.
  sim::ReplayWorkspace* workspace = nullptr;
};

/// Materializes the unrestricted trace of `spec` (estimation view): a
/// drain of open_trace_stream(spec, false), so it holds exactly the jobs a
/// streamed run sees. Recoverable ingest row skips print one stderr
/// warning.
trace::Trace make_trace(const TraceSpec& spec);

/// The replay set of `spec`: a drain of open_trace_stream(spec, true), i.e.
/// make_trace's jobs restricted to replay_max_task_length_s.
trace::Trace make_replay_trace(const TraceSpec& spec);

/// One scenario prepared for replay: the only code that turns a spec into
/// a RunArtifact. It owns every lifetime the Simulation borrows — policy,
/// scheduler, tracer, and the Simulation itself (with its workspace unless
/// hooks.workspace lends one) — so the engine can stay parked after a
/// snapshot run and serve resumes. ScenarioRunner::run is its plain case;
/// svc::SimService parks one per what-if fork. run() and run_snapshot()
/// share one estimation block, and all three entry points share one
/// replay-and-accounting block.
///
/// Observability: a spec's obs= applies to the run()/run_snapshot() pass
/// (stats flush, trace file written when it ends). A resume flushes stats
/// too but never traces — the per-task span state is not part of a
/// snapshot (sim::Simulation::resume drops the tracer), so a resume writes
/// no file and adds nothing to the base run's writer.
///
/// Not copyable or movable: the Simulation holds its members by address.
class PreparedRun {
 public:
  /// Copies `hooks`; the pointers it carries are borrowed and must outlive
  /// this object. Throws on a malformed obs trace category list.
  explicit PreparedRun(ScenarioSpec spec, RunHooks hooks = {});
  ~PreparedRun();

  PreparedRun(const PreparedRun&) = delete;
  PreparedRun& operator=(const PreparedRun&) = delete;

  /// The replay ScenarioRunner::run documents. Either this or
  /// run_snapshot() runs once per object.
  RunArtifact run(std::size_t batch_jobs = sim::Simulation::kDefaultBatchJobs);

  /// run() that also captures `snapshot` just before the first arrival at
  /// or beyond `fork_at`; the artifact is bit-identical to run()'s.
  RunArtifact run_snapshot(double fork_at, sim::SimSnapshot& snapshot);

  /// Replays the post-fork suffix of `snapshot` (taken by this object's
  /// run_snapshot) against a fresh pass over the trace, switching to
  /// `policy` (PolicyRegistry key; empty keeps the base policy) for tasks
  /// dispatched after the fork and to `detection_delay_s` when given. No
  /// estimation pass: the parked Simulation owns its predictor. With no
  /// overrides the artifact equals the base run's. Sequential resumes of
  /// one snapshot are fine.
  RunArtifact resume(const sim::SimSnapshot& snapshot,
                     const std::string& policy,
                     std::optional<double> detection_delay_s);

 private:
  using Replay =
      std::function<sim::SimResult(sim::Simulation&, sim::JobSource&)>;

  /// The first run's setup: the estimation pass (through `cursor` when
  /// the replay streams, counting side passes into `artifact`), then the
  /// policy, scheduler, and Simulation.
  void prepare(SharedTraceCursor* cursor, RunArtifact& artifact);

  /// The shared block: prepare() when `first`, then opens the replay
  /// source, times `replay`, and fills the artifact's accounting.
  RunArtifact execute(bool first, const Replay& replay);

  ScenarioSpec spec_;
  RunHooks hooks_;
  std::unique_ptr<obs::TraceWriter> tracer_;  ///< null unless obs= traces
  core::PolicyPtr policy_;
  sched::SchedulerPtr scheduler_;
  std::optional<sim::Simulation> simulation_;  ///< built by the first run
};

/// Runs one scenario. Deterministic: the artifact depends only on the spec
/// (and hooks), never on thread schedule or host state.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }

  /// Runs the scenario (PreparedRun(spec, hooks).run(batch_jobs)): one
  /// estimation pass, then one replay from a sim::JobSource admitted in
  /// chunks of `batch_jobs`. The source borrows hooks.replay_trace in
  /// place when the caller handed one in; otherwise the replay set streams
  /// from a SharedTraceCursor over spec.trace and is never materialized.
  /// *Every* predictor — builtin or registered — estimates through the
  /// PredictorBuilder observation contract (oracle skips the estimation
  /// pass entirely; single-pass sources serve estimation and replay from
  /// one parse), so with a lazily-streaming source memory is bounded by
  /// the active task set for any predictor, which is what lets a
  /// month-scale trace replay in a fixed footprint. Both sources give
  /// bit-identical results (pinned by
  /// tests/api/stream_determinism_test.cpp). Reusable and const: each call
  /// builds a fresh Simulation.
  [[nodiscard]] RunArtifact run(
      const RunHooks& hooks = {},
      std::size_t batch_jobs = sim::Simulation::kDefaultBatchJobs) const;

 private:
  ScenarioSpec spec_;
};

/// One-shot convenience wrapper around ScenarioRunner.
RunArtifact run_scenario(const ScenarioSpec& spec, const RunHooks& hooks = {});

}  // namespace cloudcr::api
