#pragma once

/// \file runner.hpp
/// \brief Executes a subset of the experiment registry and collects metrics.
///
/// The runner is the one place experiments meet the execution layer: it
/// runs the whole selected report as *one* api::BatchRunner pass. Every
/// entry's ScenarioSpecs go into the batch (so identical TraceSpecs are
/// generated once across the whole report, not just within one entry —
/// fig09/fig10/tab06 share the week trace), and every trace-only entry
/// (fig04/fig05/fig08/tab07, plus the model-only tables) is an evaluation
/// item on the same pool, reading its traces from the batch's cache next
/// to the replays that share them. Replay entries then evaluate their
/// artifact slices. Each entry renders into its own buffer, emitted in
/// registry order, so metrics and human text are bit-identical regardless
/// of --threads.

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "report/experiment.hpp"

namespace cloudcr::report {

struct ReportOptions {
  /// Experiment ids to run (empty = all registry entries).
  std::vector<std::string> only;

  /// Restrict to entries flagged Experiment::fast (the CI subset).
  bool fast_only = false;

  /// BatchRunner worker threads (0 = hardware concurrency).
  std::size_t threads = 0;

  /// Applied to every TraceSpec (scenario, history, and raw-trace requests)
  /// before running — the bench shims' --seed/--horizon/--jobs/--trace
  /// overrides. When set, expected-value comparison is meaningless and the
  /// callers skip it.
  std::function<void(api::TraceSpec&)> trace_override;

  /// Stream the entries' human-readable rendering here (nullptr = discard).
  std::ostream* human = nullptr;

  /// Observability override: an obs= value (api::ScenarioSpec grammar, e.g.
  /// "stats+probe:3600") applied to every scenario before running. Purely
  /// additive — results are bit-identical with or without it — so the
  /// expected-value comparison stays meaningful, unlike trace_override.
  std::string obs;

  /// Forwarded to api::BatchOptions::progress: one call per finished
  /// artifact across the whole report batch (completion order, serialized).
  std::function<void(const api::RunArtifact&, std::size_t done,
                     std::size_t total)>
      progress;
};

/// One executed entry.
struct EntryResult {
  const Experiment* experiment = nullptr;
  std::vector<MetricValue> metrics;

  /// This entry's RunArtifacts, in spec order (empty for model-only
  /// entries) — kept so the bench shims can honour --json/--csv exports.
  std::vector<api::RunArtifact> artifacts;

  /// Replay + trace materialization + evaluation. A trace-only entry's
  /// materialization is a shared cache read: the trace's generation may be
  /// paid (or still running) in another item or replay, so the figure
  /// counts whatever this entry waited for, not the generation itself.
  double wall_s = 0.0;
};

struct ReportResult {
  std::vector<EntryResult> entries;
  double total_wall_s = 0.0;
};

/// Selects entries per options (validating --only ids; throws
/// std::invalid_argument on unknown ids, listing the known ones).
std::vector<const Experiment*> select_experiments(const ReportOptions& options);

/// Runs the selected entries. Throws on run failure (bad ingested log,
/// unknown registry key) — callers turn that into exit 2.
ReportResult run_report(const ReportOptions& options);

}  // namespace cloudcr::report
