// Property sweep: core simulation invariants must hold under EVERY
// combination of policy, storage placement, and adaptation mode. Each
// combination replays the same generated workload.

#include <gtest/gtest.h>

#include <memory>

#include "sim/predictors.hpp"
#include "sim/simulation.hpp"
#include "trace/generator.hpp"

namespace cloudcr::sim {
namespace {

struct SweepCase {
  const char* label;
  const char* policy;  // "formula3" | "young" | "daly" | "none" | "fixed"
  PlacementMode placement;
  core::AdaptationMode adaptation;
  storage::DeviceKind shared;
};

std::unique_ptr<core::CheckpointPolicy> make_policy(const std::string& name) {
  if (name == "formula3") return std::make_unique<core::MnofPolicy>();
  if (name == "young") return std::make_unique<core::YoungPolicy>();
  if (name == "daly") return std::make_unique<core::DalyPolicy>();
  if (name == "none") return std::make_unique<core::NoCheckpointPolicy>();
  return std::make_unique<core::FixedIntervalPolicy>(45.0);
}

trace::Trace sweep_trace() {
  trace::GeneratorConfig cfg;
  cfg.seed = 4242;
  cfg.horizon_s = 2.0 * 3600.0;
  cfg.arrival_rate = 0.08;
  cfg.workload.long_service_fraction = 0.0;
  return trace::TraceGenerator(cfg).generate();
}

/// Replays `trace` through the trace-backed source (records borrowed).
SimResult replay(Simulation& sim, const trace::Trace& trace) {
  TraceJobSource source(trace);
  return sim.run(source);
}
SimResult replay(Simulation&& sim, const trace::Trace& trace) {
  return replay(sim, trace);
}

class SimulationInvariants : public ::testing::TestWithParam<SweepCase> {
 protected:
  SimResult run() {
    const auto trace = sweep_trace();
    const auto& p = GetParam();
    SimConfig cfg;
    cfg.placement = p.placement;
    cfg.adaptation = p.adaptation;
    cfg.shared_kind = p.shared;
    const auto policy = make_policy(p.policy);
    Simulation sim(cfg, *policy, make_grouped_predictor(trace));
    auto res = replay(sim, trace);
    EXPECT_EQ(res.outcomes.size() + res.incomplete_jobs, trace.job_count());
    return res;
  }
};

TEST_P(SimulationInvariants, AllJobsComplete) {
  const auto res = run();
  EXPECT_EQ(res.incomplete_jobs, 0u);
}

TEST_P(SimulationInvariants, WprWithinUnitInterval) {
  const auto res = run();
  for (const auto& o : res.outcomes) {
    EXPECT_GT(o.wpr(), 0.0) << "job " << o.job_id;
    EXPECT_LE(o.wpr(), 1.0 + 1e-9) << "job " << o.job_id;
  }
}

TEST_P(SimulationInvariants, NonNegativeAccounting) {
  const auto res = run();
  for (const auto& o : res.outcomes) {
    EXPECT_GE(o.checkpoint_s, -1e-9);
    EXPECT_GE(o.rollback_s, -1e-9);
    EXPECT_GE(o.restart_s, -1e-9);
    EXPECT_GE(o.queue_s, -1e-9);
    EXPECT_GE(o.task_wallclock_s, o.workload_s - 1e-6);
  }
}

TEST_P(SimulationInvariants, TaskWallclockDecomposition) {
  // Per-task wall-clock mass = work + checkpoints + rollbacks + restarts +
  // queueing, for every job structure (the per-task ledger is exact).
  const auto res = run();
  for (const auto& o : res.outcomes) {
    EXPECT_NEAR(o.task_wallclock_s,
                o.workload_s + o.checkpoint_s + o.rollback_s + o.restart_s +
                    o.queue_s,
                1e-6)
        << "job " << o.job_id;
  }
}

TEST_P(SimulationInvariants, DeterministicReplay) {
  const auto r1 = run();
  const auto r2 = run();
  ASSERT_EQ(r1.outcomes.size(), r2.outcomes.size());
  for (std::size_t i = 0; i < r1.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.outcomes[i].wallclock_s, r2.outcomes[i].wallclock_s);
    EXPECT_EQ(r1.outcomes[i].checkpoints, r2.outcomes[i].checkpoints);
    EXPECT_EQ(r1.outcomes[i].failures, r2.outcomes[i].failures);
  }
}

TEST_P(SimulationInvariants, FailureCountMatchesInjectedKills) {
  // Every failure charged to a job corresponds to a kill consumed from the
  // trace; totals must agree with the per-outcome sums.
  const auto res = run();
  std::size_t from_outcomes = 0;
  for (const auto& o : res.outcomes) from_outcomes += o.failures;
  EXPECT_EQ(res.total_failures, from_outcomes);
}

constexpr SweepCase kCases[] = {
    {"f3_auto_adaptive", "formula3", PlacementMode::kAutoSelect,
     core::AdaptationMode::kAdaptive, storage::DeviceKind::kDmNfs},
    {"f3_local_adaptive", "formula3", PlacementMode::kForceLocal,
     core::AdaptationMode::kAdaptive, storage::DeviceKind::kDmNfs},
    {"f3_shared_dmnfs", "formula3", PlacementMode::kForceShared,
     core::AdaptationMode::kAdaptive, storage::DeviceKind::kDmNfs},
    {"f3_shared_nfs", "formula3", PlacementMode::kForceShared,
     core::AdaptationMode::kAdaptive, storage::DeviceKind::kSharedNfs},
    {"f3_auto_static", "formula3", PlacementMode::kAutoSelect,
     core::AdaptationMode::kStatic, storage::DeviceKind::kDmNfs},
    {"young_auto_adaptive", "young", PlacementMode::kAutoSelect,
     core::AdaptationMode::kAdaptive, storage::DeviceKind::kDmNfs},
    {"young_shared_nfs", "young", PlacementMode::kForceShared,
     core::AdaptationMode::kAdaptive, storage::DeviceKind::kSharedNfs},
    {"daly_auto", "daly", PlacementMode::kAutoSelect,
     core::AdaptationMode::kAdaptive, storage::DeviceKind::kDmNfs},
    {"none_auto", "none", PlacementMode::kAutoSelect,
     core::AdaptationMode::kAdaptive, storage::DeviceKind::kDmNfs},
    {"fixed_shared", "fixed", PlacementMode::kForceShared,
     core::AdaptationMode::kAdaptive, storage::DeviceKind::kDmNfs},
};

INSTANTIATE_TEST_SUITE_P(Sweep, SimulationInvariants,
                         ::testing::ValuesIn(kCases),
                         [](const auto& param_info) {
                           return std::string(param_info.param.label);
                         });

// ---------------------------------------------------------------------------
// Targeted semantics around interrupted phases and the predictor hook.
// ---------------------------------------------------------------------------

trace::Trace single_task_trace(std::vector<double> failures,
                               double length = 400.0) {
  trace::Trace t;
  trace::JobRecord job;
  job.id = 1;
  job.structure = trace::JobStructure::kSequentialTasks;
  trace::TaskRecord task;
  task.job_id = 1;
  task.length_s = length;
  task.memory_mb = 160.0;
  task.priority = 2;
  task.failure_dates = std::move(failures);
  job.tasks.push_back(task);
  t.jobs.push_back(job);
  t.horizon_s = 1e6;
  return t;
}

StatsPredictor stats_of(double mnof, double mtbf) {
  return [mnof, mtbf](const trace::TaskRecord&, int) {
    return core::FailureStats{mnof, mtbf};
  };
}

TEST(SimulationRefunds, KillDuringCheckpointRefundsUnspentCost) {
  // Fixed 100 s intervals on the shared disk: the first checkpoint starts at
  // active time 100 and costs 1.67 s; a kill at 100.5 lands mid-checkpoint.
  const auto trace = single_task_trace({100.5});
  const core::FixedIntervalPolicy policy(100.0);
  SimConfig cfg;
  cfg.placement = PlacementMode::kForceShared;
  Simulation sim(cfg, policy, stats_of(1.0, 100.0));
  const auto res = replay(sim, trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  const auto& o = res.outcomes.front();
  // Only the elapsed 0.5 s of checkpoint work may be charged for the
  // interrupted op; later checkpoints charge fully.
  EXPECT_EQ(o.failures, 1u);
  EXPECT_NEAR(o.task_wallclock_s,
              o.workload_s + o.checkpoint_s + o.rollback_s + o.restart_s +
                  o.queue_s,
              1e-6);
  // The interrupted checkpoint never completed: rollback loses the full
  // 100 s of progress.
  EXPECT_NEAR(o.rollback_s, 100.0, 1e-6);
}

TEST(SimulationRefunds, KillDuringRestoreRefundsUnspentRestart) {
  // Restart cost at 160 MB type B is 1.45 s; a second kill 0.4 s into the
  // restore interrupts it.
  const auto trace = single_task_trace({50.0, 50.4});
  const core::NoCheckpointPolicy policy;
  SimConfig cfg;
  cfg.placement = PlacementMode::kForceShared;
  Simulation sim(cfg, policy, stats_of(0.0, 0.0));
  const auto res = replay(sim, trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  const auto& o = res.outcomes.front();
  EXPECT_EQ(o.failures, 2u);
  // First restart truncated at 0.4 s + second full restart 1.45 s.
  EXPECT_NEAR(o.restart_s, 0.4 + 1.45, 1e-6);
  EXPECT_NEAR(o.task_wallclock_s,
              o.workload_s + o.checkpoint_s + o.rollback_s + o.restart_s +
                  o.queue_s,
              1e-6);
}

TEST(SimulationPredictorHook, UnderPredictionStopsCheckpointingEarly) {
  const auto trace = single_task_trace({}, 1000.0);
  const core::FixedIntervalPolicy policy(100.0);
  SimConfig cfg;
  // Planner believes the task is only 350 s long.
  cfg.length_model = predict::LengthModel::parse("bias:0.35");
  Simulation sim(cfg, policy, stats_of(1.0, 100.0));
  const auto res = replay(sim, trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  // Checkpoints at 100, 200, 300 only (positions beyond the predicted end
  // are not scheduled); with exact prediction there would be nine.
  EXPECT_EQ(res.outcomes.front().checkpoints, 3u);
}

TEST(SimulationPredictorHook, PredictionIsFlooredAtOneSecond) {
  // bias:1e-6 predicts 1 ms for a 1000 s task; the planner sees the 1 s
  // floor, which still leaves room for the checkpoint at 0.5 s.
  const auto trace = single_task_trace({}, 1000.0);
  const core::FixedIntervalPolicy policy(0.5);
  SimConfig cfg;
  cfg.length_model = predict::LengthModel::parse("bias:1e-6");
  Simulation sim(cfg, policy, stats_of(1.0, 100.0));
  const auto res = replay(sim, trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  EXPECT_EQ(res.outcomes.front().checkpoints, 1u);
}

TEST(SimulationPredictorHook, ExactPredictorMatchesDefault) {
  const auto mk = [] { return single_task_trace({250.0}, 600.0); };
  const core::MnofPolicy policy;
  // bias:1 takes the prediction path (model call, 1 s floor) yet must plan
  // exactly what the default exact model plans.
  SimConfig with_model;
  with_model.length_model = predict::LengthModel::parse("bias:1");
  SimConfig without_model;
  const auto r1 =
      replay(Simulation(with_model, policy, stats_of(1.5, 200.0)), mk());
  const auto r2 =
      replay(Simulation(without_model, policy, stats_of(1.5, 200.0)), mk());
  ASSERT_EQ(r1.outcomes.size(), 1u);
  ASSERT_EQ(r2.outcomes.size(), 1u);
  EXPECT_DOUBLE_EQ(r1.outcomes[0].wallclock_s, r2.outcomes[0].wallclock_s);
  EXPECT_EQ(r1.outcomes[0].checkpoints, r2.outcomes[0].checkpoints);
}

}  // namespace
}  // namespace cloudcr::sim
