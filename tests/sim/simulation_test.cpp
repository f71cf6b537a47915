#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/trace_writer.hpp"
#include "sim/predictors.hpp"
#include "trace/generator.hpp"

namespace cloudcr::sim {
namespace {

using trace::JobRecord;
using trace::JobStructure;
using trace::TaskRecord;
using trace::Trace;

TaskRecord make_task(double length, double mem, int priority,
                     std::vector<double> failures = {}) {
  TaskRecord t;
  t.length_s = length;
  t.memory_mb = mem;
  t.priority = priority;
  t.failure_dates = std::move(failures);
  return t;
}

Trace one_job(JobStructure structure, std::vector<TaskRecord> tasks,
              double arrival = 0.0) {
  Trace trace;
  JobRecord job;
  job.id = 1;
  job.structure = structure;
  job.arrival_s = arrival;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].job_id = 1;
    tasks[i].index_in_job = static_cast<std::uint32_t>(i);
  }
  job.tasks = std::move(tasks);
  trace.jobs.push_back(std::move(job));
  trace.horizon_s = 10000.0;
  return trace;
}

StatsPredictor fixed_stats(double mnof, double mtbf) {
  return [mnof, mtbf](const TaskRecord&, int) {
    return core::FailureStats{mnof, mtbf};
  };
}

SimConfig default_config() {
  SimConfig cfg;
  cfg.seed = 1;
  return cfg;
}

/// Replays `trace` through the trace-backed source (records borrowed).
SimResult replay(Simulation& sim, const Trace& trace) {
  TraceJobSource source(trace);
  return sim.run(source);
}
SimResult replay(Simulation&& sim, const Trace& trace) {
  return replay(sim, trace);
}

TEST(Simulation, FailureFreeTaskHasOnlyCheckpointOverhead) {
  const auto trace =
      one_job(JobStructure::kSequentialTasks, {make_task(400.0, 160.0, 2)});
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(2.0, 200.0));
  const auto res = replay(sim, trace);

  ASSERT_EQ(res.outcomes.size(), 1u);
  const auto& out = res.outcomes.front();
  EXPECT_EQ(res.incomplete_jobs, 0u);
  EXPECT_EQ(out.failures, 0u);
  EXPECT_GT(out.checkpoints, 0u);
  EXPECT_DOUBLE_EQ(out.workload_s, 400.0);
  EXPECT_DOUBLE_EQ(out.rollback_s, 0.0);
  EXPECT_DOUBLE_EQ(out.restart_s, 0.0);
  // Wall-clock = work + checkpoint costs exactly (no queueing at arrival).
  EXPECT_NEAR(out.wallclock_s, 400.0 + out.checkpoint_s, 1e-6);
  EXPECT_LT(out.wpr(), 1.0);
  EXPECT_GT(out.wpr(), 0.9);
}

TEST(Simulation, NoFailuresZeroMnofMeansNoCheckpoints) {
  const auto trace =
      one_job(JobStructure::kSequentialTasks, {make_task(400.0, 160.0, 2)});
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(0.0, 0.0));
  const auto res = replay(sim, trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  EXPECT_EQ(res.outcomes.front().checkpoints, 0u);
  EXPECT_DOUBLE_EQ(res.outcomes.front().wallclock_s, 400.0);
  EXPECT_DOUBLE_EQ(res.outcomes.front().wpr(), 1.0);
}

TEST(Simulation, ConservationOfWallclock) {
  // Wall-clock = work + checkpoints + rollbacks + restarts + queueing for a
  // single ST job (no inter-task overlap).
  const auto trace = one_job(
      JobStructure::kSequentialTasks,
      {make_task(400.0, 160.0, 2, {100.0, 250.0})});
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(2.0, 150.0));
  const auto res = replay(sim, trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  const auto& out = res.outcomes.front();
  EXPECT_EQ(out.failures, 2u);
  EXPECT_NEAR(out.wallclock_s,
              out.workload_s + out.checkpoint_s + out.rollback_s +
                  out.restart_s + out.queue_s,
              1e-6);
}

TEST(Simulation, FailureCausesRollbackAndRestartCost) {
  const auto trace = one_job(JobStructure::kSequentialTasks,
                             {make_task(400.0, 160.0, 2, {200.0})});
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(1.0, 200.0));
  const auto res = replay(sim, trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  const auto& out = res.outcomes.front();
  EXPECT_EQ(out.failures, 1u);
  EXPECT_GT(out.rollback_s, 0.0);
  EXPECT_GT(out.restart_s, 0.0);
  EXPECT_EQ(res.total_failures, 1u);
}

TEST(Simulation, NoCheckpointPolicyLosesAllProgressOnFailure) {
  const auto trace = one_job(JobStructure::kSequentialTasks,
                             {make_task(400.0, 160.0, 2, {300.0})});
  const core::NoCheckpointPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(1.0, 200.0));
  const auto res = replay(sim, trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  const auto& out = res.outcomes.front();
  EXPECT_EQ(out.checkpoints, 0u);
  // The kill at active time 300 destroys all 300 s of progress.
  EXPECT_NEAR(out.rollback_s, 300.0, 1.0);
}

TEST(Simulation, CheckpointBoundsRollbackLoss) {
  const auto trace = one_job(JobStructure::kSequentialTasks,
                             {make_task(400.0, 160.0, 2, {300.0})});
  const core::FixedIntervalPolicy policy(50.0);
  Simulation sim(default_config(), policy, fixed_stats(1.0, 200.0));
  const auto res = replay(sim, trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  // With checkpoints every 50 s of work, at most ~50 s + one checkpoint
  // period can be lost.
  EXPECT_LT(res.outcomes.front().rollback_s, 55.0);
}

TEST(Simulation, SequentialTasksRunInOrder) {
  const auto trace = one_job(
      JobStructure::kSequentialTasks,
      {make_task(100.0, 160.0, 2), make_task(100.0, 160.0, 2)});
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(0.0, 0.0));
  const auto res = replay(sim, trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  // Two sequential 100 s tasks -> 200 s wall-clock.
  EXPECT_NEAR(res.outcomes.front().wallclock_s, 200.0, 1e-6);
}

TEST(Simulation, BagOfTasksRunsInParallel) {
  const auto trace = one_job(
      JobStructure::kBagOfTasks,
      {make_task(100.0, 160.0, 2), make_task(100.0, 160.0, 2)});
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(0.0, 0.0));
  const auto res = replay(sim, trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  // Parallel tasks complete together.
  EXPECT_NEAR(res.outcomes.front().wallclock_s, 100.0, 1e-6);
}

TEST(Simulation, MemoryPressureQueuesTasks) {
  // Cluster with one 1 GB VM; two 600 MB tasks must serialize.
  SimConfig cfg = default_config();
  cfg.cluster.hosts = 1;
  cfg.cluster.vms_per_host = 1;
  const auto trace = one_job(
      JobStructure::kBagOfTasks,
      {make_task(100.0, 600.0, 2), make_task(100.0, 600.0, 2)});
  const core::MnofPolicy policy;
  Simulation sim(cfg, policy, fixed_stats(0.0, 0.0));
  const auto res = replay(sim, trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  EXPECT_NEAR(res.outcomes.front().wallclock_s, 200.0, 1e-6);
  EXPECT_NEAR(res.outcomes.front().queue_s, 100.0, 1e-6);
}

TEST(Simulation, OversizedTaskIsRecordedAsUnschedulable) {
  // A 2 GB demand can never fit a 1 GB VM: the task is rejected once at
  // admission (the old engine re-scanned it on every event, forever) and the
  // job completes with the rejection on record.
  SimConfig cfg = default_config();
  const auto trace = one_job(JobStructure::kSequentialTasks,
                             {make_task(100.0, 2048.0, 2)});
  const core::MnofPolicy policy;
  Simulation sim(cfg, policy, fixed_stats(0.0, 0.0));
  const auto res = replay(sim, trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  EXPECT_EQ(res.incomplete_jobs, 0u);
  EXPECT_EQ(res.total_unschedulable, 1u);
  const auto& out = res.outcomes.front();
  EXPECT_EQ(out.unschedulable_tasks, 1u);
  EXPECT_DOUBLE_EQ(out.workload_s, 0.0);
  EXPECT_DOUBLE_EQ(out.wpr(), 0.0);
}

TEST(Simulation, UnschedulableTaskDoesNotBlockSiblingsOrSuccessors) {
  // BoT: the oversized member is dropped, the others run normally.
  {
    const auto trace = one_job(
        JobStructure::kBagOfTasks,
        {make_task(100.0, 160.0, 2), make_task(100.0, 4096.0, 2),
         make_task(100.0, 160.0, 2)});
    const core::MnofPolicy policy;
    Simulation sim(default_config(), policy, fixed_stats(0.0, 0.0));
    const auto res = replay(sim, trace);
    ASSERT_EQ(res.outcomes.size(), 1u);
    const auto& out = res.outcomes.front();
    EXPECT_EQ(out.unschedulable_tasks, 1u);
    EXPECT_DOUBLE_EQ(out.workload_s, 200.0);
    EXPECT_NEAR(out.wallclock_s, 100.0, 1e-6);
  }
  // ST: an oversized head must not starve its successors.
  {
    const auto trace = one_job(
        JobStructure::kSequentialTasks,
        {make_task(100.0, 4096.0, 2), make_task(100.0, 160.0, 2)});
    const core::MnofPolicy policy;
    Simulation sim(default_config(), policy, fixed_stats(0.0, 0.0));
    const auto res = replay(sim, trace);
    ASSERT_EQ(res.outcomes.size(), 1u);
    const auto& out = res.outcomes.front();
    EXPECT_EQ(out.unschedulable_tasks, 1u);
    EXPECT_DOUBLE_EQ(out.workload_s, 100.0);
    EXPECT_NEAR(out.wallclock_s, 100.0, 1e-6);
  }
}

TEST(Simulation, RunIsReusableAndWorkspacePoolingIsBitIdentical) {
  trace::GeneratorConfig gcfg;
  gcfg.seed = 31;
  gcfg.horizon_s = 3600.0;
  gcfg.arrival_rate = 0.08;
  const auto trace = trace::TraceGenerator(gcfg).generate();
  const core::MnofPolicy policy;

  const auto fresh = replay(
      Simulation(default_config(), policy, make_grouped_predictor(trace)),
      trace);

  // Same Simulation object, run twice: the second replay must match the
  // first bit-for-bit (engine, RNG, cluster, and backends all reset).
  Simulation reused(default_config(), policy, make_grouped_predictor(trace));
  (void)replay(reused, trace);
  const auto second = replay(reused, trace);

  // Shared workspace, previously used by a different scenario.
  ReplayWorkspace ws;
  SimConfig other = default_config();
  other.placement = PlacementMode::kForceShared;
  (void)replay(Simulation(other, policy, make_grouped_predictor(trace), &ws),
               trace);
  const auto pooled = replay(Simulation(default_config(), policy,
                                        make_grouped_predictor(trace), &ws),
                             trace);

  ASSERT_EQ(fresh.outcomes.size(), second.outcomes.size());
  ASSERT_EQ(fresh.outcomes.size(), pooled.outcomes.size());
  EXPECT_EQ(fresh.events_dispatched, second.events_dispatched);
  EXPECT_EQ(fresh.events_dispatched, pooled.events_dispatched);
  for (std::size_t i = 0; i < fresh.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(fresh.outcomes[i].wallclock_s,
                     second.outcomes[i].wallclock_s);
    EXPECT_DOUBLE_EQ(fresh.outcomes[i].wallclock_s,
                     pooled.outcomes[i].wallclock_s);
    EXPECT_EQ(fresh.outcomes[i].checkpoints, pooled.outcomes[i].checkpoints);
    EXPECT_EQ(fresh.outcomes[i].failures, pooled.outcomes[i].failures);
  }
}

TEST(Simulation, DetectionDelayExtendsWallclock) {
  const auto mk_trace = [] {
    return one_job(JobStructure::kSequentialTasks,
                   {make_task(200.0, 160.0, 2, {100.0})});
  };
  const core::MnofPolicy policy;
  SimConfig instant = default_config();
  SimConfig delayed = default_config();
  delayed.detection_delay_s = 30.0;
  const auto r0 =
      replay(Simulation(instant, policy, fixed_stats(1.0, 100.0)), mk_trace());
  const auto r1 =
      replay(Simulation(delayed, policy, fixed_stats(1.0, 100.0)), mk_trace());
  ASSERT_EQ(r0.outcomes.size(), 1u);
  ASSERT_EQ(r1.outcomes.size(), 1u);
  EXPECT_NEAR(r1.outcomes.front().wallclock_s,
              r0.outcomes.front().wallclock_s + 30.0, 1.0);
}

TEST(Simulation, PriorityChangeTriggersAdaptiveReplanning) {
  // Priority flips mid-task; adaptive and static controllers must diverge in
  // checkpoint counts when the new stats differ wildly.
  auto mk_trace = [] {
    auto task = make_task(1000.0, 160.0, 2);
    task.priority_change_time = 500.0;
    task.new_priority = 10;
    return one_job(JobStructure::kSequentialTasks, {task});
  };
  // Predictor keyed on current priority: calm for p2, stormy for p10.
  auto predictor = [](const TaskRecord&, int current_priority) {
    return current_priority == 10 ? core::FailureStats{20.0, 40.0}
                                  : core::FailureStats{1.0, 800.0};
  };
  const core::MnofPolicy policy;
  SimConfig adaptive = default_config();
  adaptive.adaptation = core::AdaptationMode::kAdaptive;
  SimConfig static_cfg = default_config();
  static_cfg.adaptation = core::AdaptationMode::kStatic;

  const auto ra = replay(Simulation(adaptive, policy, predictor), mk_trace());
  const auto rs = replay(Simulation(static_cfg, policy, predictor), mk_trace());
  ASSERT_EQ(ra.outcomes.size(), 1u);
  ASSERT_EQ(rs.outcomes.size(), 1u);
  // Adaptive reacts to the 20x MNOF by checkpointing far more often.
  EXPECT_GT(ra.outcomes.front().checkpoints,
            rs.outcomes.front().checkpoints + 5);
}

TEST(Simulation, PlacementModesChangeDeviceCosts) {
  const auto mk_trace = [] {
    return one_job(JobStructure::kSequentialTasks,
                   {make_task(400.0, 160.0, 2, {200.0})});
  };
  const core::MnofPolicy policy;
  SimConfig local = default_config();
  local.placement = PlacementMode::kForceLocal;
  SimConfig shared = default_config();
  shared.placement = PlacementMode::kForceShared;
  const auto rl =
      replay(Simulation(local, policy, fixed_stats(1.0, 200.0)), mk_trace());
  const auto rs =
      replay(Simulation(shared, policy, fixed_stats(1.0, 200.0)), mk_trace());
  ASSERT_EQ(rl.outcomes.size(), 1u);
  ASSERT_EQ(rs.outcomes.size(), 1u);
  // Restart from local ramdisk pays migration type A (3.22 s at 160 MB) vs
  // type B (1.45 s).
  EXPECT_NEAR(rl.outcomes.front().restart_s, 3.22, 1e-6);
  EXPECT_NEAR(rs.outcomes.front().restart_s, 1.45, 1e-6);
}

TEST(Simulation, CheckpointRunCompressionStaysEngaged) {
  // One failure-free task checkpointing to the local ramdisk is one
  // checkpoint run: its checkpoints replay inline, so the events the
  // engine pops must not grow with the checkpoint count. Golden bytes are
  // the same whether or not the run is compressed; this is what shows a
  // fall-back to one event per checkpoint.
  const core::FixedIntervalPolicy policy(1.0);
  SimConfig cfg = default_config();
  cfg.placement = PlacementMode::kForceLocal;
  std::size_t events = 0;
  for (const std::uint32_t n : {1000u, 4000u, 10000u}) {
    SCOPED_TRACE("checkpoints=" + std::to_string(n));
    // Checkpoints at 1, 2, ..., n s of work; the end comes half an
    // interval after the last.
    auto trace = one_job(JobStructure::kSequentialTasks,
                         {make_task(n + 0.5, 160.0, 2)});
    trace.horizon_s = 1e6;
    const auto res =
        replay(Simulation(cfg, policy, fixed_stats(1.0, 200.0)), trace);
    ASSERT_EQ(res.outcomes.size(), 1u);
    EXPECT_EQ(res.incomplete_jobs, 0u);
    EXPECT_EQ(res.outcomes.front().checkpoints, n);
    EXPECT_EQ(res.outcomes.front().failures, 0u);
    if (events == 0) events = res.events_dispatched;
    EXPECT_EQ(res.events_dispatched, events);
  }
  EXPECT_LT(events, 10u);
}

TEST(Simulation, DeterministicAcrossRuns) {
  trace::GeneratorConfig gcfg;
  gcfg.seed = 21;
  gcfg.horizon_s = 3600.0;
  gcfg.arrival_rate = 0.05;
  const auto trace = trace::TraceGenerator(gcfg).generate();
  const core::MnofPolicy policy;
  const auto r1 = replay(
      Simulation(default_config(), policy, make_grouped_predictor(trace)),
      trace);
  const auto r2 = replay(
      Simulation(default_config(), policy, make_grouped_predictor(trace)),
      trace);
  ASSERT_EQ(r1.outcomes.size(), r2.outcomes.size());
  for (std::size_t i = 0; i < r1.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.outcomes[i].wallclock_s, r2.outcomes[i].wallclock_s);
    EXPECT_EQ(r1.outcomes[i].checkpoints, r2.outcomes[i].checkpoints);
  }
}

TEST(Simulation, WprIsAlwaysInUnitInterval) {
  trace::GeneratorConfig gcfg;
  gcfg.seed = 23;
  gcfg.horizon_s = 7200.0;
  gcfg.arrival_rate = 0.05;
  const auto trace = trace::TraceGenerator(gcfg).generate();
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, make_grouped_predictor(trace));
  const auto res = replay(sim, trace);
  ASSERT_GT(res.outcomes.size(), 0u);
  for (const auto& out : res.outcomes) {
    EXPECT_GT(out.wpr(), 0.0);
    EXPECT_LE(out.wpr(), 1.0 + 1e-9);
  }
}

TEST(Simulation, RequiresPredictor) {
  const core::MnofPolicy policy;
  EXPECT_THROW(Simulation(default_config(), policy, nullptr),
               std::invalid_argument);
}

TEST(Simulation, OracleBeatsWrongStatsOnAverage) {
  trace::GeneratorConfig gcfg;
  gcfg.seed = 29;
  gcfg.horizon_s = 14400.0;
  gcfg.arrival_rate = 0.05;
  const auto trace = trace::TraceGenerator(gcfg).generate();
  const core::MnofPolicy policy;
  const auto oracle =
      replay(Simulation(default_config(), policy, make_oracle_predictor()),
             trace);
  // Deliberately terrible stats: hugely overestimated MNOF wastes time on
  // excess checkpoints.
  const auto wrong =
      replay(Simulation(default_config(), policy, fixed_stats(500.0, 1.0)),
             trace);
  ASSERT_GT(oracle.outcomes.size(), 0u);
  EXPECT_GT(oracle.average_wpr(), wrong.average_wpr());
}

// A resume is untraced: span starts are not part of a snapshot, so the
// engine detaches its tracer rather than emitting post-fork spans (with the
// base run's end state as their starts) into the base run's writer.
TEST(Simulation, ResumeEmitsNothingIntoTheBaseTracer) {
  trace::GeneratorConfig gcfg;
  gcfg.seed = 31;
  gcfg.horizon_s = 3600.0;
  gcfg.arrival_rate = 0.05;
  const auto trace = trace::TraceGenerator(gcfg).generate();
  obs::TraceWriterOptions opts;
  opts.ring_capacity = std::size_t{1} << 20;
  obs::TraceWriter writer(opts);
  SimConfig cfg = default_config();
  cfg.tracer = &writer;
  const core::MnofPolicy policy;
  Simulation sim(cfg, policy, make_grouped_predictor(trace));

  SimSnapshot snapshot;
  TraceJobSource base_source(trace);
  const SimResult base = sim.run_snapshot(base_source, 1800.0, snapshot);
  const std::size_t base_events = writer.size();
  ASSERT_GT(base_events, 0u);

  TraceJobSource resume_source(trace);
  const SimResult resumed = sim.resume(snapshot, resume_source);
  EXPECT_EQ(writer.size(), base_events);
  EXPECT_EQ(resumed.events_dispatched, base.events_dispatched);
  EXPECT_EQ(resumed.makespan_s, base.makespan_s);
}

}  // namespace
}  // namespace cloudcr::sim
