#include "report/runner.hpp"

#include <chrono>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "api/batch.hpp"
#include "api/runner.hpp"
#include "obs/spec.hpp"
#include "obs/stats.hpp"
#include "report/registry.hpp"

namespace cloudcr::report {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::vector<const Experiment*> select_experiments(
    const ReportOptions& options) {
  const auto& registry = ExperimentRegistry::instance();
  std::vector<const Experiment*> selected;
  if (!options.only.empty()) {
    for (const auto& id : options.only) {
      const Experiment* e = registry.find(id);
      if (e == nullptr) {
        std::string known;
        for (const auto& k : registry.ids()) {
          if (!known.empty()) known += ", ";
          known += k;
        }
        throw std::invalid_argument("unknown experiment id '" + id +
                                    "' (known: " + known + ")");
      }
      selected.push_back(e);
    }
    return selected;
  }
  for (const auto& e : registry.entries()) {
    if (options.fast_only && !e.fast) continue;
    selected.push_back(&e);
  }
  return selected;
}

ReportResult run_report(const ReportOptions& options) {
  const auto selected = select_experiments(options);
  const auto report_start = Clock::now();

  // The obs override parses once (invalid values fail before any replay
  // starts) and stamps every spec; obs is additive, so stamped entries still
  // compare against the checked-in expected values.
  std::optional<obs::ObsSpec> obs_override;
  if (!options.obs.empty()) obs_override = obs::parse_obs(options.obs);

  ReportResult result;
  result.entries.resize(selected.size());
  // One human buffer per entry, so entries evaluated concurrently never
  // share a stream (or its formatting state); emitted in registry order
  // below. Without a sink the buffers stay in a failed state, which makes
  // every insertion a no-op.
  std::vector<std::ostringstream> human(selected.size());
  if (options.human == nullptr) {
    for (auto& out : human) out.setstate(std::ios::badbit);
  }

  // Evaluates entry i into its result slot; entries are independent, so
  // this runs on batch workers for trace-only entries. `start` is when the
  // entry began materializing its traces.
  auto evaluate = [&](std::size_t i, std::vector<api::RunArtifact> artifacts,
                      const std::vector<std::reference_wrapper<
                          const trace::Trace>>& traces,
                      Clock::time_point start) {
    const Experiment* e = selected[i];
    human[i] << "\n==== [" << e->id << "] " << e->title << " ("
             << e->paper_ref << ") ====\n";
    EntryContext ctx{artifacts, traces, human[i]};
    EntryResult& entry = result.entries[i];
    entry.experiment = e;
    const auto eval_start = Clock::now();
    entry.metrics = e->evaluate(ctx);
    if (obs_override && obs_override->stats) {
      obs::st::report_evaluate_ns.add(
          static_cast<std::uint64_t>(seconds_since(eval_start) * 1e9));
    }
    // Entry wall: its own trace materialization + evaluation, plus the
    // replay time its artifacts actually consumed inside the shared batch.
    entry.wall_s = seconds_since(start);
    for (const auto& a : artifacts) entry.wall_s += a.wall_time_s;
    entry.artifacts = std::move(artifacts);
  };

  // One batch for the whole report: every entry's scenarios are its specs
  // (so trace memoization spans the report), and every entry without specs
  // is an evaluation item reading its traces from the same cache.
  std::vector<api::ScenarioSpec> all_specs;
  std::vector<std::pair<std::size_t, std::size_t>> slices;  // offset, count
  std::vector<api::BatchItem> items;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Experiment* e = selected[i];
    slices.emplace_back(all_specs.size(), e->specs.size());
    if (e->specs.empty()) {
      api::BatchItem item;
      for (TraceRequest request : e->traces) {
        if (options.trace_override) options.trace_override(request.spec);
        item.traces.push_back(std::move(request));
      }
      item.run = [&evaluate, i,
                  requests = item.traces](api::TraceCache& cache) {
        const auto start = Clock::now();
        std::vector<std::shared_ptr<const trace::Trace>> pinned;
        std::vector<std::reference_wrapper<const trace::Trace>> traces;
        for (const TraceRequest& request : requests) {
          pinned.push_back(request.replay_view ? cache.get_replay(request.spec)
                                               : cache.get_full(request.spec));
          traces.push_back(std::cref(*pinned.back()));
        }
        evaluate(i, {}, traces, start);
      };
      items.push_back(std::move(item));
      continue;
    }
    for (api::ScenarioSpec spec : e->specs) {
      if (options.trace_override) {
        options.trace_override(spec.trace);
        if (spec.estimation == api::EstimationSource::kHistory) {
          options.trace_override(spec.history);
        }
      }
      if (obs_override) spec.obs = *obs_override;
      all_specs.push_back(std::move(spec));
    }
  }

  api::BatchOptions batch_options;
  batch_options.threads = options.threads;
  batch_options.progress = options.progress;
  std::vector<api::RunArtifact> all_artifacts =
      api::BatchRunner(batch_options).run(all_specs, {}, items);

  // Replay entries evaluate once the batch is done. Slices are disjoint and
  // all_artifacts is never read again, so move the artifacts out (the
  // outcome vectors are large) instead of copying.
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const auto [offset, count] = slices[i];
    if (count == 0) continue;
    const auto slice_begin =
        all_artifacts.begin() + static_cast<std::ptrdiff_t>(offset);
    evaluate(i,
             std::vector<api::RunArtifact>(
                 std::make_move_iterator(slice_begin),
                 std::make_move_iterator(
                     slice_begin + static_cast<std::ptrdiff_t>(count))),
             {}, Clock::now());
  }
  if (options.human != nullptr) {
    for (const auto& out : human) *options.human << out.str();
  }
  result.total_wall_s = seconds_since(report_start);
  return result;
}

}  // namespace cloudcr::report
