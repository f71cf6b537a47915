// Property: the streaming replay is bit-identical to the materialized one.
// ScenarioRunner::run drives one admission loop from either of two sources:
// the SharedTraceCursor's stream over the spec's source (lazy admission,
// per-chunk post-processing, builder-observed estimation) or the same
// replay set materialized up front and handed in as RunHooks::replay_trace
// (borrowed in place through sim::TraceJobSource). Both must produce
// byte-identical artifacts across every built-in source kind, seeds,
// policies, estimation modes, chunk sizes, and — since the PredictorBuilder
// observation contract — custom registered predictors, serial and through
// a threaded BatchRunner with stream_traces on. This is what makes the
// memory-bounded month-scale path trustworthy: streaming can change the
// footprint, never the results. The suite also pins the SharedTraceCursor
// pass accounting (single-pass sources serve estimation and replay from
// one read), the observation-order property (streamed observe_task order
// == the materialized trace's job/task order), and the trace-backed
// source's stable arrival sort for hand-made unsorted traces.

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/batch.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "api/stream.hpp"
#include "core/estimator.hpp"
#include "ingest/google_source.hpp"
#include "ingest/stream.hpp"
#include "metrics/export.hpp"
#include "sim/predictors.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"

namespace cloudcr::api {
namespace {

/// Deterministic render of artifacts: every field the engine computes
/// except host wall time.
std::string render(const std::vector<RunArtifact>& artifacts) {
  std::ostringstream os;
  for (const auto& a : artifacts) {
    os << a.spec.name << " jobs=" << a.trace_jobs << " tasks=" << a.trace_tasks
       << " events=" << a.result.events_dispatched
       << " makespan=" << metrics::json_double(a.result.makespan_s)
       << " incomplete=" << a.result.incomplete_jobs
       << " checkpoints=" << a.result.total_checkpoints
       << " failures=" << a.result.total_failures
       << " unschedulable=" << a.result.total_unschedulable << "\n";
    for (const auto& outcome : a.result.outcomes) {
      metrics::write_outcome_json(os, outcome);
      os << "\n";
    }
  }
  return os.str();
}

std::string render_one(const RunArtifact& artifact) {
  return render({artifact});
}

/// A predictor registered through the public observation API only — the
/// "any predictor at any scale" acceptance case. Equivalent in spirit to
/// the builtin grouped predictor but built entirely out of user-facing
/// pieces, so the grid proves a custom registration streams bit-identically
/// with no access to registry internals.
void register_custom_grouped() {
  class CustomGroupedBuilder final : public PredictorBuilder {
   public:
    explicit CustomGroupedBuilder(double limit) : estimator_(limit) {}
    void observe_task(const trace::TaskRecord& task) override {
      sim::observe_task(estimator_, task);
    }
    [[nodiscard]] sim::StatsPredictor finalize() override {
      return sim::make_grouped_predictor(std::move(estimator_));
    }

   private:
    core::GroupedEstimator estimator_;
  };
  PredictorRegistry::instance().add(
      "custom_grouped",
      [](const std::string& arg) -> PredictorBuilderPtr {
        const double limit =
            arg.empty() ? trace::kNoLengthLimit : std::stod(arg);
        return std::make_unique<CustomGroupedBuilder>(limit);
      },
      "custom_grouped[:max_len_s]");
}

trace::Trace fixture_trace(std::uint64_t seed) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.horizon_s = 2.0 * 3600.0;
  cfg.arrival_rate = 0.05;
  cfg.sample_job_filter = false;
  cfg.workload.long_service_fraction = 0.0;
  return trace::TraceGenerator(cfg).generate();
}

/// One scenario per built-in source kind (fixtures written per seed), with
/// varied policies and estimation modes.
std::vector<ScenarioSpec> grid(std::uint64_t seed) {
  register_custom_grouped();
  const std::string tag = std::to_string(seed);
  const std::string google_path =
      "stream_det_google_" + tag + "_task_events.csv";
  {
    std::ofstream os(google_path);
    ingest::write_task_events(os, fixture_trace(seed));
  }
  const std::string csv_path = "stream_det_native_" + tag + ".csv";
  trace::write_csv_file(csv_path, fixture_trace(seed + 1000));

  std::vector<ScenarioSpec> specs;
  {
    ScenarioSpec spec;
    spec.name = "stream_det_synthetic_" + tag;
    spec.trace.seed = seed;
    spec.trace.horizon_s = 2.0 * 3600.0;
    spec.trace.arrival_rate = 0.08;
    spec.policy = "formula3";
    spec.estimation = EstimationSource::kFull;
    specs.push_back(spec);
  }
  {
    // Exercise the replay length restriction across chunk boundaries.
    ScenarioSpec spec;
    spec.name = "stream_det_synthetic_rl_" + tag;
    spec.trace.seed = seed;
    spec.trace.horizon_s = 2.0 * 3600.0;
    spec.trace.arrival_rate = 0.08;
    spec.trace.long_service_fraction = 0.08;
    spec.trace.replay_max_task_length_s = 6.0 * 3600.0;
    spec.policy = "young";
    specs.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "stream_det_google_" + tag;
    spec.trace.source = "google:" + google_path;
    spec.trace.sample_job_filter = true;
    spec.policy = "daly";
    spec.predictor = "submission";
    specs.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "stream_det_csv_" + tag;
    spec.trace.source = "csv:" + csv_path;
    spec.trace.sample_job_filter = true;
    spec.trace.max_jobs = 40;  // the cap crosses chunk boundaries too
    spec.policy = "none";
    spec.predictor = "oracle";
    specs.push_back(spec);
  }
  // A custom registered predictor on every source kind: the observation
  // contract must stream bit-identically wherever the built-ins do.
  {
    ScenarioSpec spec;
    spec.name = "stream_det_custom_syn_" + tag;
    spec.trace.seed = seed;
    spec.trace.horizon_s = 2.0 * 3600.0;
    spec.trace.arrival_rate = 0.08;
    spec.policy = "formula3";
    spec.predictor = "custom_grouped";
    spec.estimation = EstimationSource::kFull;
    specs.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "stream_det_custom_google_" + tag;
    spec.trace.source = "google:" + google_path;
    spec.trace.sample_job_filter = true;
    spec.policy = "daly";
    spec.predictor = "custom_grouped";
    specs.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "stream_det_custom_csv_" + tag;
    spec.trace.source = "csv:" + csv_path;
    spec.trace.sample_job_filter = true;
    spec.trace.max_jobs = 40;
    spec.policy = "young";
    spec.predictor = "custom_grouped:7200";
    specs.push_back(spec);
  }
  // Scheduling-stage points: each scheduler on both a generated and an
  // ingested source, under a small cluster so jobs really queue. Streaming
  // admits jobs lazily — the held-job queue and reservation wakeups must
  // not care when the arrival events were materialized.
  for (const char* sched :
       {"backfill:easy", "backfill:conservative", "preempt:requeue"}) {
    {
      ScenarioSpec spec;
      spec.name = std::string("stream_det_sched_syn_") + sched + "_" + tag;
      spec.trace.seed = seed;
      spec.trace.horizon_s = 2.0 * 3600.0;
      spec.trace.arrival_rate = 0.08;
      spec.policy = "formula3";
      spec.sched = sched;
      spec.cluster.hosts = 4;
      spec.cluster.vms_per_host = 2;
      specs.push_back(spec);
    }
    {
      ScenarioSpec spec;
      spec.name = std::string("stream_det_sched_csv_") + sched + "_" + tag;
      spec.trace.source = "csv:" + csv_path;
      spec.trace.sample_job_filter = true;
      spec.policy = "young";
      spec.sched = sched;
      spec.cluster.hosts = 4;
      spec.cluster.vms_per_host = 2;
      specs.push_back(spec);
    }
  }
  return specs;
}

class StreamedEqualsMaterialized
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamedEqualsMaterialized, AcrossSourcesPoliciesAndBatchSizes) {
  const auto specs = grid(GetParam());
  for (const auto& spec : specs) {
    const ScenarioRunner runner(spec);
    const trace::Trace replay_set = make_replay_trace(spec.trace);
    RunHooks materialized_hooks;
    materialized_hooks.replay_trace = &replay_set;
    const std::string materialized =
        render_one(runner.run(materialized_hooks));
    // Chunk size must be invisible to both sources: per-job pulls, a
    // mid-size batch, and one chunk far larger than the trace.
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{1} << 20}) {
      EXPECT_EQ(materialized, render_one(runner.run({}, batch)))
          << spec.name << " streamed diverged at batch_jobs=" << batch;
      EXPECT_EQ(materialized, render_one(runner.run(materialized_hooks, batch)))
          << spec.name << " materialized diverged at batch_jobs=" << batch;
    }
  }
}

TEST_P(StreamedEqualsMaterialized, ThreadedBatchWithStreamCursors) {
  const auto specs = grid(GetParam());

  BatchOptions cached;
  cached.threads = 1;
  const std::string materialized = render(BatchRunner(cached).run(specs));

  BatchOptions streaming;
  streaming.threads = 4;
  streaming.stream_traces = true;
  streaming.stream_batch_jobs = 16;
  const std::string streamed = render(BatchRunner(streaming).run(specs));

  EXPECT_EQ(materialized, streamed)
      << "threaded stream-cursor batch diverged from the cached serial run";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamedEqualsMaterialized,
                         ::testing::Values(11u, 12u, 13u));

// The observation-order property: a builder fed by the streaming runner
// sees exactly the job/task sequence of the materialized estimation view,
// in its order — the invariant that lets any order-sensitive custom
// estimator stream safely.
TEST(PredictorObservationOrder, StreamedFeedMatchesMaterializedTraceOrder) {
  using Seen = std::vector<std::pair<std::uint64_t, double>>;
  const auto recorded = std::make_shared<Seen>();

  class OrderProbeBuilder final : public PredictorBuilder {
   public:
    explicit OrderProbeBuilder(std::shared_ptr<Seen> out)
        : out_(std::move(out)) {}
    void observe_task(const trace::TaskRecord& task) override {
      out_->emplace_back(task.job_id, task.length_s);
    }
    [[nodiscard]] sim::StatsPredictor finalize() override {
      return [](const trace::TaskRecord&, int) {
        return core::FailureStats{1.0, 100.0};
      };
    }

   private:
    std::shared_ptr<Seen> out_;
  };
  PredictorRegistry::instance().add(
      "order_probe", [recorded](const std::string&) -> PredictorBuilderPtr {
        return std::make_unique<OrderProbeBuilder>(recorded);
      });

  const std::string google_path = "stream_order_google_task_events.csv";
  {
    std::ofstream os(google_path);
    ingest::write_task_events(os, fixture_trace(21));
  }
  const std::string csv_path = "stream_order_native.csv";
  trace::write_csv_file(csv_path, fixture_trace(22));

  std::vector<ScenarioSpec> specs;
  {
    ScenarioSpec spec;
    spec.name = "order_syn";
    spec.trace.seed = 21;
    spec.trace.horizon_s = 2.0 * 3600.0;
    spec.trace.arrival_rate = 0.05;
    specs.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "order_google";
    spec.trace.source = "google:" + google_path;
    spec.trace.sample_job_filter = true;
    specs.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "order_csv";
    spec.trace.source = "csv:" + csv_path;
    spec.trace.max_jobs = 30;
    specs.push_back(spec);
  }
  for (auto& spec : specs) {
    spec.predictor = "order_probe";  // estimation view: kReplay (default)
    Seen expected;
    for (const auto& job : make_replay_trace(spec.trace).jobs) {
      for (const auto& task : job.tasks) {
        expected.emplace_back(task.job_id, task.length_s);
      }
    }
    ASSERT_FALSE(expected.empty()) << spec.name;

    recorded->clear();
    (void)ScenarioRunner(spec).run();
    EXPECT_EQ(*recorded, expected) << spec.name << " (streamed feed)";

    const trace::Trace replay_set = make_replay_trace(spec.trace);
    RunHooks hooks;
    hooks.replay_trace = &replay_set;
    recorded->clear();
    (void)ScenarioRunner(spec).run(hooks);
    EXPECT_EQ(*recorded, expected) << spec.name << " (materialized feed)";
  }
}

// SharedTraceCursor pass accounting: a lazy source pays one pass per phase
// that touches it; a single-pass source serves estimation AND replay from
// one parse; a no-observation predictor never triggers the estimation pass.
TEST(SingleCursor, ReadAccountingPerSourceKind) {
  register_custom_grouped();
  const std::string csv_path = "stream_reads_native.csv";
  trace::write_csv_file(csv_path, fixture_trace(23));

  ScenarioSpec synthetic;
  synthetic.name = "reads_syn";
  synthetic.trace.seed = 23;
  synthetic.trace.horizon_s = 2.0 * 3600.0;
  synthetic.trace.arrival_rate = 0.05;
  synthetic.predictor = "custom_grouped";

  ScenarioSpec csv = synthetic;
  csv.name = "reads_csv";
  csv.trace.source = "csv:" + csv_path;

  // Lazy source, estimating predictor: one generation pass per phase.
  const RunArtifact syn_streamed = ScenarioRunner(synthetic).run();
  EXPECT_EQ(syn_streamed.trace_reads, 2u);
  EXPECT_EQ(syn_streamed.rows_read, 2 * syn_streamed.trace_tasks);

  // Lazy source, oracle: the estimation pass disappears entirely.
  ScenarioSpec oracle = synthetic;
  oracle.predictor = "oracle";
  const RunArtifact oracle_streamed = ScenarioRunner(oracle).run();
  EXPECT_EQ(oracle_streamed.trace_reads, 1u);
  EXPECT_EQ(oracle_streamed.rows_read, oracle_streamed.trace_tasks);

  // Single-pass source (csv parses whole-input): estimation + replay share
  // ONE read even for a custom registered predictor — the tee.
  const RunArtifact csv_streamed = ScenarioRunner(csv).run();
  EXPECT_EQ(csv_streamed.trace_reads, 1u);
  EXPECT_GE(csv_streamed.rows_read, csv_streamed.trace_tasks);

  // A caller-materialized replay set costs no source pass when estimation
  // observes the replay set in place; a full-view estimation takes one
  // pass of its own.
  const trace::Trace replay_set = make_replay_trace(synthetic.trace);
  RunHooks hooks;
  hooks.replay_trace = &replay_set;
  EXPECT_EQ(ScenarioRunner(synthetic).run(hooks).trace_reads, 0u);
  ScenarioSpec full = synthetic;
  full.estimation = EstimationSource::kFull;
  EXPECT_EQ(ScenarioRunner(full).run(hooks).trace_reads, 1u);
}

/// Replays `trace` through the trace-backed source (records borrowed).
sim::SimResult replay_borrowed(sim::Simulation&& sim,
                               const trace::Trace& trace, std::size_t batch) {
  sim::TraceJobSource source(trace);
  return sim.run(source, batch);
}

/// Replays a copy of `trace` through a real owning stream (ingestion's
/// chunked stream over a materialized result, as single-pass sources use).
sim::SimResult replay_streamed(sim::Simulation&& sim,
                               const trace::Trace& trace, std::size_t batch) {
  ingest::IngestResult copy;
  copy.trace = trace;
  ingest::ChunkedTraceStream stream(std::move(copy));
  StreamJobSource source(stream);
  return sim.run(source, batch);
}

std::string render_result(const sim::SimResult& result) {
  RunArtifact artifact;
  artifact.result = result;
  return render_one(artifact);
}

TEST(StreamChunkBoundaries, TiedArrivalsAcrossChunkBoundaries) {
  // Jobs with *identical* arrival timestamps straddling every chunk
  // boundary (batch_jobs = 1 splits each tie): arrivals must keep beating
  // same-time dynamic events and admit in job order, exactly as when every
  // arrival event was scheduled up front.
  trace::Trace trace;
  trace.horizon_s = 4000.0;
  auto add_job = [&trace](std::uint64_t id, double arrival, double length,
                          std::vector<double> failures) {
    trace::JobRecord job;
    job.id = id;
    job.arrival_s = arrival;
    trace::TaskRecord task;
    task.job_id = id;
    task.length_s = length;
    task.memory_mb = 100.0;
    task.priority = 5;
    task.failure_dates = std::move(failures);
    job.tasks.push_back(task);
    trace.jobs.push_back(job);
    return trace.jobs.size() - 1;
  };
  add_job(1, 10.0, 100.0, {40.0});
  // Three jobs tied at t=110 — and job 1's task completes at exactly
  // t=110 + restart effects aside, its clean path would finish at 110+40
  // rollback... regardless, the tie among arrivals themselves is the edge.
  add_job(2, 110.0, 50.0, {});
  add_job(3, 110.0, 50.0, {});
  add_job(4, 110.0, 200.0, {25.0, 90.0});
  add_job(5, 500.0, 300.0, {});

  const core::PolicyPtr policy = PolicyRegistry::instance().make("formula3");
  sim::SimConfig config;
  auto fresh_sim = [&] {
    return sim::Simulation(config, *policy, sim::make_oracle_predictor());
  };

  const sim::SimResult materialized = replay_borrowed(
      fresh_sim(), trace, sim::Simulation::kDefaultBatchJobs);
  ASSERT_EQ(materialized.outcomes.size(), trace.jobs.size());
  const std::string expected = render_result(materialized);

  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{2}, std::size_t{100}}) {
    EXPECT_EQ(expected,
              render_result(replay_streamed(fresh_sim(), trace, batch)))
        << "streamed tied arrivals diverged at batch_jobs=" << batch;
    EXPECT_EQ(expected,
              render_result(replay_borrowed(fresh_sim(), trace, batch)))
        << "borrowed tied arrivals diverged at batch_jobs=" << batch;
  }
}

TEST(TraceJobSource, UnsortedTraceReplaysAsItsStableSortedCopy) {
  // A hand-made trace listing jobs out of arrival order, with jobs 2 and 4
  // tied at t=50. Identical tied tasks complete at the same instant in
  // admission order, so the outcome order exposes the tie order: the
  // trace-backed source must admit job 2 before job 4, as a stable sort
  // by arrival would.
  trace::Trace unsorted;
  unsorted.horizon_s = 2000.0;
  const auto add_job = [&unsorted](std::uint64_t id, double arrival,
                                   double length) {
    trace::JobRecord job;
    job.id = id;
    job.arrival_s = arrival;
    trace::TaskRecord task;
    task.job_id = id;
    task.length_s = length;
    task.memory_mb = 100.0;
    task.priority = 3;
    job.tasks.push_back(task);
    unsorted.jobs.push_back(job);
  };
  add_job(1, 300.0, 80.0);
  add_job(2, 50.0, 120.0);
  add_job(3, 120.0, 60.0);
  add_job(4, 50.0, 120.0);
  add_job(5, 10.0, 40.0);

  trace::Trace sorted = unsorted;
  std::stable_sort(sorted.jobs.begin(), sorted.jobs.end(),
                   [](const trace::JobRecord& a, const trace::JobRecord& b) {
                     return a.arrival_s < b.arrival_s;
                   });
  ASSERT_EQ(sorted.jobs[1].id, 2u);
  ASSERT_EQ(sorted.jobs[2].id, 4u);

  const core::PolicyPtr policy = PolicyRegistry::instance().make("formula3");
  const sim::SimConfig config;
  auto fresh_sim = [&] {
    return sim::Simulation(config, *policy, sim::make_oracle_predictor());
  };
  const std::string expected = render_result(replay_borrowed(
      fresh_sim(), sorted, sim::Simulation::kDefaultBatchJobs));
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{2}, std::size_t{100}}) {
    EXPECT_EQ(expected,
              render_result(replay_borrowed(fresh_sim(), unsorted, batch)))
        << "unsorted trace diverged at batch_jobs=" << batch;
    EXPECT_EQ(expected,
              render_result(replay_streamed(fresh_sim(), sorted, batch)))
        << "streamed sorted copy diverged at batch_jobs=" << batch;
  }
}

}  // namespace
}  // namespace cloudcr::api
