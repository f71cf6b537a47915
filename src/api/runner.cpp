#include "api/runner.hpp"

#include <chrono>
#include <cmath>
#include <iostream>
#include <optional>
#include <utility>

#include "api/registry.hpp"
#include "api/stream.hpp"
#include "ingest/registry.hpp"
#include "ingest/source.hpp"
#include "obs/probe.hpp"
#include "obs/stats.hpp"
#include "obs/trace_writer.hpp"
#include "sched/registry.hpp"
#include "sim/simulation.hpp"
#include "trace/generator.hpp"

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

/// Per-run tracer: owns the TraceWriter when the spec requests tracing,
/// wires it into the SimConfig, and writes the JSON on finish().
struct RunTracer {
  explicit RunTracer(const ScenarioSpec& spec) {
    if (spec.obs.trace_path.empty()) return;
    obs::TraceWriterOptions opt;
    opt.ring_capacity = static_cast<std::size_t>(spec.obs.trace_ring);
    opt.window_begin_s = spec.obs.trace_window_begin_s;
    opt.window_end_s = spec.obs.trace_window_end_s;
    if (!spec.obs.trace_categories.empty()) {
      opt.categories = obs::parse_trace_categories(spec.obs.trace_categories);
    }
    writer_.emplace(opt);
    out_path_ = expand_trace_path(spec.obs.trace_path, spec.name);
  }

  [[nodiscard]] obs::TraceWriter* get() noexcept {
    return writer_ ? &*writer_ : nullptr;
  }

  void host_span(const char* name,
                 std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point t1) {
    if (obs::TraceWriter* w = get()) w->host_span(name, t0, t1);
  }

  void finish() {
    if (writer_) writer_->write_json_file(out_path_);
  }

 private:
  std::optional<obs::TraceWriter> writer_;
  std::string out_path_;
};

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
  // The generator path stays direct (it applies the sample-job filter and
  // job cap during generation); external sources ingest the raw log first
  // and get the same post-processing applied on top, so a TraceSpec means
  // the same thing whatever its workload origin.
  if (spec.source == "synthetic") {
    return trace::TraceGenerator(to_generator_config(spec)).generate();
  }
  ingest::SourceEnv env;
  env.generator = to_generator_config(spec);
  auto source = with_key_context("trace.source", spec.source, [&] {
    return ingest::TraceSourceRegistry::instance().make(spec.source, env);
  });
  ingest::IngestResult result = source->load();
  // Recoverable row skips must stay visible on this path too — results
  // were computed on a partial workload. One stderr line keeps stdout
  // (bench tables, determinism diffs) untouched.
  if (result.report.rows_skipped > 0) {
    std::cerr << "warning: ingest skipped rows: " << result.report.summary()
              << "\n";
  }
  trace::Trace trace = std::move(result.trace);
  if (spec.sample_job_filter) ingest::apply_sample_job_filter(trace);
  ingest::cap_jobs(trace, spec.max_jobs);
  return trace;
}

trace::Trace make_replay_trace(const TraceSpec& spec) {
  auto full = make_trace(spec);
  if (std::isinf(spec.replay_max_task_length_s)) return full;
  return trace::restrict_length(full, spec.replay_max_task_length_s);
}

ScenarioRunner::ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {}

RunArtifact ScenarioRunner::run(const RunHooks& hooks,
                                std::size_t batch_jobs) const {
  // Without a caller-materialized replay trace, one cursor serves
  // estimation and replay: a single-pass source is parsed once and shared
  // by both phases; a lazy source opens one bounded-memory pass per phase
  // that touches it. Every predictor — builtin or registered — estimates
  // through the PredictorBuilder observation contract, so nothing on this
  // path materializes O(trace) memory for a lazy source.
  const trace::Trace* replay = hooks.replay_trace;
  std::optional<SharedTraceCursor> cursor;
  if (replay == nullptr) cursor.emplace(spec_.trace);
  std::size_t side_reads = 0;  ///< estimation passes outside `cursor`
  std::size_t side_rows = 0;

  RunTracer tracer(spec_);
  sim::StatsPredictor predictor = hooks.predictor_override;
  double estimation_wall_s = 0.0;
  if (!predictor) {
    const auto est_start = std::chrono::steady_clock::now();
    PredictorBuilderPtr builder =
        with_key_context("predictor", spec_.predictor, [&] {
          return PredictorRegistry::instance().make_builder(spec_.predictor);
        });
    if (builder->wants_observations()) {
      const auto observe = [&builder](const trace::JobRecord& job) {
        builder->observe_job(job);
      };
      // A pass of its own over `spec`'s view (the history trace, or the
      // full view of a caller-materialized replay set).
      const auto observe_pass = [&](const TraceSpec& spec, bool replay_view) {
        SharedTraceCursor pass(spec);
        pass.feed_estimation(replay_view, observe);
        side_reads += pass.reads();
        side_rows += pass.rows_read();
      };
      if (hooks.estimation_trace != nullptr) {
        observe_trace(*builder, *hooks.estimation_trace);
      } else if (spec_.estimation == EstimationSource::kHistory) {
        observe_pass(spec_.history, /*replay_view=*/true);
      } else if (cursor) {
        cursor->feed_estimation(
            spec_.estimation == EstimationSource::kReplay, observe);
      } else if (spec_.estimation == EstimationSource::kReplay) {
        observe_trace(*builder, *replay);
      } else {
        observe_pass(spec_.trace, /*replay_view=*/false);
      }
    }
    predictor = with_key_context("predictor", spec_.predictor,
                                 [&] { return builder->finalize(); });
    const auto est_end = std::chrono::steady_clock::now();
    estimation_wall_s =
        std::chrono::duration<double>(est_end - est_start).count();
    tracer.host_span("estimation", est_start, est_end);
  }

  // The policy and scheduler must outlive the Simulation (held by
  // reference/pointer); they live on this frame for the whole replay.
  const core::PolicyPtr policy = with_key_context(
      "policy", spec_.policy,
      [&] { return PolicyRegistry::instance().make(spec_.policy); });
  const sched::SchedulerPtr scheduler = with_key_context(
      "sched", spec_.sched,
      [&] { return sched::SchedulerRegistry::instance().make(spec_.sched); });
  sim::SimConfig config = to_sim_config(spec_);
  config.length_predictor = hooks.length_predictor;
  config.scheduler = scheduler.get();
  config.tracer = tracer.get();

  RunArtifact artifact;
  artifact.spec = spec_;
  artifact.estimation_wall_s = estimation_wall_s;

  ingest::StreamPtr stream;
  std::optional<StreamJobSource> streamed;
  std::optional<sim::TraceJobSource> borrowed;
  sim::JobSource* source = nullptr;
  if (replay != nullptr) {
    source = &borrowed.emplace(*replay);
  } else {
    stream = cursor->open_replay_stream();
    source = &streamed.emplace(*stream);
  }
  const auto start = std::chrono::steady_clock::now();
  sim::Simulation simulation(std::move(config), *policy, std::move(predictor),
                             hooks.workspace);
  artifact.result = simulation.run(*source, batch_jobs);
  artifact.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  artifact.peak_rss_mb = obs::peak_rss_mb();
  flush_api_timers(spec_, artifact.estimation_wall_s, artifact.wall_time_s);
  tracer.finish();
  artifact.trace_reads = side_reads;
  artifact.rows_read = side_rows;
  if (replay != nullptr) {
    artifact.trace_jobs = replay->job_count();
    artifact.trace_tasks = replay->task_count();
    return artifact;
  }
  artifact.trace_jobs = streamed->jobs();
  artifact.trace_tasks = streamed->tasks();
  artifact.trace_reads += cursor->reads();
  // A lazy cursor hands the replay stream off before its rows are pulled;
  // a single-pass cursor already counted the parse.
  artifact.rows_read += cursor->rows_read() +
                        (cursor->streams_lazily() ? streamed->tasks() : 0);
  // Recoverable row skips stay visible (the report is complete once the
  // stream is drained).
  if (stream->report().rows_skipped > 0) {
    std::cerr << "warning: ingest skipped rows: "
              << stream->report().summary() << "\n";
  }
  return artifact;
}

RunArtifact run_scenario(const ScenarioSpec& spec, const RunHooks& hooks) {
  return ScenarioRunner(spec).run(hooks);
}

}  // namespace cloudcr::api
