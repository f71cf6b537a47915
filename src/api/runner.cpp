#include "api/runner.hpp"

#include <chrono>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "api/stream.hpp"
#include "ingest/source.hpp"
#include "ingest/stream.hpp"
#include "obs/probe.hpp"
#include "obs/stats.hpp"
#include "obs/trace_writer.hpp"
#include "sched/registry.hpp"
#include "sim/simulation.hpp"

namespace cloudcr::api {

namespace {

/// Expands every "{name}" in an obs trace path to the scenario's name, so a
/// batch of scenarios can share one obs= value without colliding on output.
std::string expand_trace_path(std::string path, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = path.find("{name}", pos)) != std::string::npos) {
    path.replace(pos, 6, name);
    pos += name.size();
  }
  return path;
}

/// The TraceWriter a spec's obs= asks for; null when it does not trace.
std::unique_ptr<obs::TraceWriter> make_tracer(const ScenarioSpec& spec) {
  if (spec.obs.trace_path.empty()) return nullptr;
  obs::TraceWriterOptions opt;
  opt.ring_capacity = static_cast<std::size_t>(spec.obs.trace_ring);
  opt.window_begin_s = spec.obs.trace_window_begin_s;
  opt.window_end_s = spec.obs.trace_window_end_s;
  if (!spec.obs.trace_categories.empty()) {
    opt.categories = obs::parse_trace_categories(spec.obs.trace_categories);
  }
  return std::make_unique<obs::TraceWriter>(opt);
}

/// Recoverable row skips stay visible — results were computed on a partial
/// workload. One stderr line keeps stdout (bench tables, determinism
/// diffs) untouched.
void warn_skipped_rows(const ingest::IngestReport& report) {
  if (report.rows_skipped > 0) {
    std::cerr << "warning: ingest skipped rows: " << report.summary() << "\n";
  }
}

/// Materializes one view of `spec` by draining its post-processed stream.
trace::Trace drain_view(const TraceSpec& spec, bool replay_view) {
  const ingest::StreamPtr stream = open_trace_stream(spec, replay_view);
  ingest::IngestResult result = ingest::drain(*stream);
  warn_skipped_rows(result.report);
  return std::move(result.trace);
}

/// Flushes the api-layer phase timers into the counter registry when the
/// spec collects stats.
void flush_api_timers(const ScenarioSpec& spec, double estimation_s,
                      double replay_s) {
  if (!spec.obs.stats) return;
  obs::st::api_estimation_ns.add(
      static_cast<std::uint64_t>(estimation_s * 1e9));
  obs::st::api_replay_ns.add(static_cast<std::uint64_t>(replay_s * 1e9));
}

}  // namespace

trace::Trace make_trace(const TraceSpec& spec) {
  return drain_view(spec, /*replay_view=*/false);
}

trace::Trace make_replay_trace(const TraceSpec& spec) {
  return drain_view(spec, /*replay_view=*/true);
}

PreparedRun::PreparedRun(ScenarioSpec spec, RunHooks hooks)
    : spec_(std::move(spec)),
      hooks_(std::move(hooks)),
      tracer_(make_tracer(spec_)) {}

PreparedRun::~PreparedRun() = default;

RunArtifact PreparedRun::run(std::size_t batch_jobs) {
  return execute(/*first=*/true,
                 [batch_jobs](sim::Simulation& sim, sim::JobSource& source) {
                   return sim.run(source, batch_jobs);
                 });
}

RunArtifact PreparedRun::run_snapshot(double fork_at,
                                      sim::SimSnapshot& snapshot) {
  return execute(/*first=*/true, [&](sim::Simulation& sim,
                                     sim::JobSource& source) {
    return sim.run_snapshot(source, fork_at, snapshot);
  });
}

RunArtifact PreparedRun::resume(const sim::SimSnapshot& snapshot,
                                const std::string& policy,
                                std::optional<double> detection_delay_s) {
  core::PolicyPtr override_policy;
  sim::ResumeOverrides overrides;
  if (!policy.empty()) {
    override_policy = with_key_context("policy", policy, [&] {
      return PolicyRegistry::instance().make(policy);
    });
    overrides.policy = override_policy.get();
  }
  overrides.detection_delay_s = detection_delay_s;
  return execute(/*first=*/false,
                 [&](sim::Simulation& sim, sim::JobSource& source) {
                   return sim.resume(snapshot, source, overrides);
                 });
}

void PreparedRun::prepare(SharedTraceCursor* cursor, RunArtifact& artifact) {
  sim::SimConfig config = to_sim_config(spec_);
  predict::LengthModel& length = config.length_model;
  // A learning length model trains in the estimation pass, on the same
  // rows (in the same order) as the failure-statistics builder.
  const auto no_estimation_pass = [&](const std::string& why) {
    return std::invalid_argument("scenario key 'length' = '" + spec_.length +
                                 "' trains on the estimation view, but " +
                                 why);
  };
  sim::StatsPredictor predictor = hooks_.predictor_override;
  if (predictor && length.learns()) {
    throw no_estimation_pass("a predictor override skips estimation");
  }
  if (!predictor) {
    const auto est_start = std::chrono::steady_clock::now();
    PredictorBuilderPtr builder =
        with_key_context("predictor", spec_.predictor, [&] {
          return PredictorRegistry::instance().make_builder(spec_.predictor);
        });
    if (length.learns() && !builder->wants_observations()) {
      throw no_estimation_pass("scenario key 'predictor' = '" +
                               spec_.predictor + "' has none");
    }
    if (builder->wants_observations()) {
      const auto observe = [&](const trace::JobRecord& job) {
        builder->observe_job(job);
        if (length.learns()) {
          for (const auto& task : job.tasks) length.observe(task);
        }
      };
      const auto observe_all = [&](const trace::Trace& trace) {
        for (const auto& job : trace.jobs) observe(job);
      };
      // A pass of its own over `spec`'s view (the history trace, or the
      // full view of a caller-materialized replay set).
      const auto observe_pass = [&](const TraceSpec& spec, bool replay_view) {
        SharedTraceCursor pass(spec);
        pass.feed_estimation(replay_view, observe);
        artifact.trace_reads += pass.reads();
        artifact.rows_read += pass.rows_read();
      };
      if (hooks_.estimation_trace != nullptr) {
        observe_all(*hooks_.estimation_trace);
      } else if (spec_.estimation == EstimationSource::kHistory) {
        observe_pass(spec_.history, /*replay_view=*/true);
      } else if (cursor != nullptr) {
        cursor->feed_estimation(
            spec_.estimation == EstimationSource::kReplay, observe);
      } else if (spec_.estimation == EstimationSource::kReplay) {
        observe_all(*hooks_.replay_trace);
      } else {
        observe_pass(spec_.trace, /*replay_view=*/false);
      }
    }
    predictor = with_key_context("predictor", spec_.predictor,
                                 [&] { return builder->finalize(); });
    with_key_context("length", spec_.length, [&] { length.finalize(); });
    const auto est_end = std::chrono::steady_clock::now();
    artifact.estimation_wall_s =
        std::chrono::duration<double>(est_end - est_start).count();
    if (tracer_) tracer_->host_span("estimation", est_start, est_end);
  }
  policy_ = with_key_context("policy", spec_.policy, [&] {
    return PolicyRegistry::instance().make(spec_.policy);
  });
  scheduler_ = with_key_context("sched", spec_.sched, [&] {
    return sched::SchedulerRegistry::instance().make(spec_.sched);
  });
  config.scheduler = scheduler_.get();
  config.tracer = tracer_.get();
  simulation_.emplace(std::move(config), *policy_, std::move(predictor),
                      hooks_.workspace);
}

RunArtifact PreparedRun::execute(bool first, const Replay& replay) {
  if (first == simulation_.has_value()) {
    throw std::logic_error(first ? "PreparedRun: already ran"
                                 : "PreparedRun: resume before run_snapshot");
  }
  // Without a caller-materialized replay trace, one cursor serves
  // estimation and replay: a single-pass source is parsed once and shared
  // by both phases; a lazy source opens one bounded-memory pass per phase
  // that touches it. Every predictor — builtin or registered — estimates
  // through the PredictorBuilder observation contract, so nothing on this
  // path materializes O(trace) memory for a lazy source.
  const trace::Trace* materialized = hooks_.replay_trace;
  std::optional<SharedTraceCursor> cursor;
  if (materialized == nullptr) cursor.emplace(spec_.trace);
  RunArtifact artifact;
  artifact.spec = spec_;

  if (first) prepare(cursor ? &*cursor : nullptr, artifact);

  ingest::StreamPtr stream;
  std::optional<StreamJobSource> streamed;
  std::optional<sim::TraceJobSource> borrowed;
  sim::JobSource* source = nullptr;
  if (materialized != nullptr) {
    source = &borrowed.emplace(*materialized);
  } else {
    stream = cursor->open_replay_stream();
    source = &streamed.emplace(*stream);
  }
  const auto start = std::chrono::steady_clock::now();
  artifact.result = replay(*simulation_, *source);
  artifact.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  artifact.peak_rss_mb = obs::peak_rss_mb();
  flush_api_timers(spec_, artifact.estimation_wall_s, artifact.wall_time_s);
  if (first && tracer_) {
    tracer_->write_json_file(
        expand_trace_path(spec_.obs.trace_path, spec_.name));
  }
  if (materialized != nullptr) {
    artifact.trace_jobs = materialized->job_count();
    artifact.trace_tasks = materialized->task_count();
    return artifact;
  }
  artifact.trace_jobs = streamed->jobs();
  artifact.trace_tasks = streamed->tasks();
  artifact.trace_reads += cursor->reads();
  // A lazy cursor hands the replay stream off before its rows are pulled;
  // a single-pass cursor already counted the parse.
  artifact.rows_read += cursor->rows_read() +
                        (cursor->streams_lazily() ? streamed->tasks() : 0);
  warn_skipped_rows(stream->report());
  return artifact;
}

ScenarioRunner::ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {}

RunArtifact ScenarioRunner::run(const RunHooks& hooks,
                                std::size_t batch_jobs) const {
  return PreparedRun(spec_, hooks).run(batch_jobs);
}

RunArtifact run_scenario(const ScenarioSpec& spec, const RunHooks& hooks) {
  return ScenarioRunner(spec).run(hooks);
}

}  // namespace cloudcr::api
