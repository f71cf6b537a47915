// BatchRunner: the determinism property (parallel == serial, bit-identical),
// artifact ordering, trace sharing (across specs and evaluation items),
// error propagation — and ScenarioRunner
// equivalence with a hand-wired Simulation.

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include "api/batch.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "sim/predictors.hpp"
#include "sim/simulation.hpp"

namespace cloudcr::api {
namespace {

TraceSpec small_trace(std::uint64_t seed) {
  TraceSpec t;
  t.seed = seed;
  t.horizon_s = 2.0 * 3600.0;
  t.arrival_rate = 0.08;
  t.long_service_fraction = 0.0;
  return t;
}

/// A grid diverse enough to exercise every policy family, both placements,
/// the adaptation modes, all estimation sources, and distinct seeds.
std::vector<ScenarioSpec> property_grid() {
  std::vector<ScenarioSpec> specs;

  ScenarioSpec a;
  a.name = "f3_auto";
  a.trace = small_trace(4242);
  a.policy = "formula3";
  specs.push_back(a);

  ScenarioSpec b = a;
  b.name = "young_shared";
  b.policy = "young";
  b.placement = sim::PlacementMode::kForceShared;
  specs.push_back(b);

  ScenarioSpec c = a;
  c.name = "daly_nfs_noise";
  c.policy = "daly";
  c.placement = sim::PlacementMode::kForceShared;
  c.shared_device = storage::DeviceKind::kSharedNfs;
  c.storage_noise = 0.1;
  c.sim_seed = 777;
  specs.push_back(c);

  ScenarioSpec d = a;
  d.name = "fixed_oracle_other_seed";
  d.trace = small_trace(515151);
  d.policy = "fixed:90";
  d.predictor = "oracle";
  specs.push_back(d);

  ScenarioSpec e = a;
  e.name = "none_full_estimation";
  e.policy = "none";
  e.estimation = EstimationSource::kFull;
  specs.push_back(e);

  ScenarioSpec f = a;
  f.name = "static_history";
  f.predictor = "submission";
  f.adaptation = core::AdaptationMode::kStatic;
  f.estimation = EstimationSource::kHistory;
  f.history = small_trace(606060);
  specs.push_back(f);

  return specs;
}

void expect_identical(const RunArtifact& x, const RunArtifact& y) {
  SCOPED_TRACE(x.spec.name);
  EXPECT_EQ(x.spec, y.spec);
  EXPECT_EQ(x.trace_jobs, y.trace_jobs);
  EXPECT_EQ(x.trace_tasks, y.trace_tasks);
  const auto& rx = x.result;
  const auto& ry = y.result;
  EXPECT_EQ(rx.incomplete_jobs, ry.incomplete_jobs);
  EXPECT_EQ(rx.total_checkpoints, ry.total_checkpoints);
  EXPECT_EQ(rx.total_failures, ry.total_failures);
  EXPECT_EQ(rx.events_dispatched, ry.events_dispatched);
  EXPECT_EQ(rx.makespan_s, ry.makespan_s);  // bit-exact, not NEAR
  ASSERT_EQ(rx.outcomes.size(), ry.outcomes.size());
  for (std::size_t i = 0; i < rx.outcomes.size(); ++i) {
    const auto& ox = rx.outcomes[i];
    const auto& oy = ry.outcomes[i];
    EXPECT_EQ(ox.job_id, oy.job_id);
    EXPECT_EQ(ox.wallclock_s, oy.wallclock_s);
    EXPECT_EQ(ox.task_wallclock_s, oy.task_wallclock_s);
    EXPECT_EQ(ox.workload_s, oy.workload_s);
    EXPECT_EQ(ox.checkpoint_s, oy.checkpoint_s);
    EXPECT_EQ(ox.rollback_s, oy.rollback_s);
    EXPECT_EQ(ox.restart_s, oy.restart_s);
    EXPECT_EQ(ox.queue_s, oy.queue_s);
    EXPECT_EQ(ox.checkpoints, oy.checkpoints);
    EXPECT_EQ(ox.failures, oy.failures);
  }
}

TEST(BatchRunnerProperty, ParallelIsBitIdenticalToSerial) {
  const auto specs = property_grid();

  BatchOptions serial;
  serial.threads = 1;
  const auto serial_artifacts = BatchRunner(serial).run(specs);

  BatchOptions parallel;
  parallel.threads = 4;
  const auto parallel_artifacts = BatchRunner(parallel).run(specs);

  ASSERT_EQ(serial_artifacts.size(), specs.size());
  ASSERT_EQ(parallel_artifacts.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(serial_artifacts[i], parallel_artifacts[i]);
  }
}

TEST(BatchRunnerProperty, TraceSharingDoesNotChangeResults) {
  const auto specs = property_grid();
  BatchOptions shared;
  shared.threads = 3;
  shared.share_traces = true;
  BatchOptions unshared;
  unshared.threads = 3;
  unshared.share_traces = false;
  const auto a = BatchRunner(shared).run(specs);
  const auto b = BatchRunner(unshared).run(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(a[i], b[i]);
  }
}

TEST(BatchRunner, ArtifactsArriveInSpecOrder) {
  auto specs = property_grid();
  BatchOptions options;
  options.threads = 4;
  const auto artifacts = BatchRunner(options).run(specs);
  ASSERT_EQ(artifacts.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(artifacts[i].spec.name, specs[i].name);
  }
}

TEST(BatchRunner, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(BatchRunner().run({}).empty());
}

TEST(BatchRunner, WorkerErrorsPropagateToCaller) {
  auto specs = property_grid();
  specs[2].policy = "not_a_policy";
  BatchOptions options;
  options.threads = 4;
  EXPECT_THROW((void)BatchRunner(options).run(specs), std::invalid_argument);
}

TEST(BatchRunner, ItemErrorsPropagateToCaller) {
  BatchItem item;
  item.traces = {{small_trace(4242), /*replay_view=*/false}};
  item.run = [](TraceCache& cache) {
    (void)cache.get_full(small_trace(4242));
    throw std::runtime_error("evaluation failed");
  };
  BatchOptions options;
  options.threads = 4;
  EXPECT_THROW((void)BatchRunner(options).run(property_grid(), {}, {item}),
               std::runtime_error);
  options.threads = 1;
  EXPECT_THROW((void)BatchRunner(options).run({}, {}, {item}),
               std::runtime_error);
}

TEST(BatchRunner, ItemsAndSpecsShareOneTracePerKey) {
  // Two items and one spec read the same TraceSpec (no replay limit, so the
  // full trace and the replay view are one key). The items keep their
  // traces alive, so a key dropped early would regenerate into a new object
  // at a new address instead of reusing a freed one.
  const TraceSpec shared = small_trace(4242);
  std::mutex mutex;
  std::vector<std::shared_ptr<const trace::Trace>> seen;
  std::set<const trace::TaskRecord*> replayed;
  auto record = [&](std::shared_ptr<const trace::Trace> trace) {
    const std::lock_guard<std::mutex> lock(mutex);
    seen.push_back(std::move(trace));
  };
  BatchItem full_item;
  full_item.traces = {{shared, /*replay_view=*/false}};
  full_item.run = [&](TraceCache& cache) { record(cache.get_full(shared)); };
  BatchItem replay_item;
  replay_item.traces = {{shared, /*replay_view=*/true}};
  replay_item.run = [&](TraceCache& cache) {
    record(cache.get_replay(shared));
  };

  ScenarioSpec spec;
  spec.name = "shared";
  spec.trace = shared;
  spec.policy = "formula3";
  RunHooks hooks;
  hooks.length_predictor = [&](const trace::TaskRecord& rec) {
    const std::lock_guard<std::mutex> lock(mutex);
    replayed.insert(&rec);
    return rec.length_s;
  };

  for (std::size_t threads : {1u, 3u}) {
    seen.clear();
    replayed.clear();
    BatchOptions options;
    options.threads = threads;
    const auto artifacts =
        BatchRunner(options).run({spec}, hooks, {full_item, replay_item});
    ASSERT_EQ(artifacts.size(), 1u);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].get(), seen[1].get()) << "threads=" << threads;
    std::set<const trace::TaskRecord*> tasks;
    for (const auto& job : seen[0]->jobs) {
      for (const auto& task : job.tasks) tasks.insert(&task);
    }
    ASSERT_FALSE(replayed.empty());
    for (const trace::TaskRecord* rec : replayed) {
      EXPECT_EQ(tasks.count(rec), 1u) << "threads=" << threads;
    }
  }
}

TEST(ScenarioRunner, MatchesHandWiredSimulation) {
  ScenarioSpec spec;
  spec.name = "reference";
  spec.trace = small_trace(4242);
  spec.policy = "formula3";
  spec.predictor = "grouped";
  spec.placement = sim::PlacementMode::kForceShared;

  const auto artifact = run_scenario(spec);

  // The same run, wired by hand against the raw simulation layer.
  const auto trace = make_replay_trace(spec.trace);
  const core::MnofPolicy policy;
  sim::Simulation simulation(to_sim_config(spec), policy,
                             sim::make_grouped_predictor(trace));
  const auto reference = simulation.run(trace);

  ASSERT_EQ(artifact.result.outcomes.size(), reference.outcomes.size());
  EXPECT_EQ(artifact.result.events_dispatched, reference.events_dispatched);
  EXPECT_EQ(artifact.result.total_checkpoints, reference.total_checkpoints);
  for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
    EXPECT_EQ(artifact.result.outcomes[i].wallclock_s,
              reference.outcomes[i].wallclock_s);
  }
  EXPECT_EQ(artifact.trace_jobs, trace.job_count());
  EXPECT_EQ(artifact.trace_tasks, trace.task_count());
  EXPECT_GE(artifact.wall_time_s, 0.0);
}

TEST(ScenarioRunner, HooksReplaceGeneratedTraceAndPredictor) {
  ScenarioSpec spec;
  spec.name = "hooked";
  spec.policy = "fixed:50";
  spec.placement = sim::PlacementMode::kForceShared;

  // Single 300 s task with one failure at 100 s of active time.
  trace::Trace story;
  trace::JobRecord job;
  job.id = 7;
  trace::TaskRecord task;
  task.job_id = 7;
  task.length_s = 300.0;
  task.memory_mb = 128.0;
  task.priority = 3;
  task.failure_dates = {100.0};
  job.tasks.push_back(task);
  story.jobs.push_back(job);
  story.horizon_s = 1e6;

  RunHooks hooks;
  hooks.replay_trace = &story;
  hooks.predictor_override = [](const trace::TaskRecord&, int) {
    return core::FailureStats{1.0, 150.0};
  };
  const auto artifact = ScenarioRunner(spec).run(hooks);
  ASSERT_EQ(artifact.result.outcomes.size(), 1u);
  EXPECT_EQ(artifact.result.outcomes[0].job_id, 7u);
  EXPECT_EQ(artifact.result.outcomes[0].failures, 1u);
  EXPECT_EQ(artifact.trace_jobs, 1u);
}

TEST(ScenarioRunner, LengthPredictorHookReachesThePlanner) {
  // With fixed 100 s intervals and a planner that believes the task is only
  // 50 s long, no checkpoint is ever scheduled.
  ScenarioSpec spec;
  spec.policy = "fixed:100";
  spec.placement = sim::PlacementMode::kForceShared;

  trace::Trace story;
  trace::JobRecord job;
  job.id = 1;
  trace::TaskRecord task;
  task.job_id = 1;
  task.length_s = 400.0;
  task.memory_mb = 64.0;
  task.priority = 2;
  job.tasks.push_back(task);
  story.jobs.push_back(job);
  story.horizon_s = 1e6;

  RunHooks hooks;
  hooks.replay_trace = &story;
  hooks.predictor_override = [](const trace::TaskRecord&, int) {
    return core::FailureStats{1.0, 100.0};
  };
  const auto baseline = ScenarioRunner(spec).run(hooks);
  ASSERT_EQ(baseline.result.outcomes.size(), 1u);
  EXPECT_GT(baseline.result.outcomes[0].checkpoints, 0u);

  hooks.length_predictor = [](const trace::TaskRecord&) { return 50.0; };
  const auto clipped = ScenarioRunner(spec).run(hooks);
  ASSERT_EQ(clipped.result.outcomes.size(), 1u);
  EXPECT_EQ(clipped.result.outcomes[0].checkpoints, 0u);
}

}  // namespace
}  // namespace cloudcr::api
