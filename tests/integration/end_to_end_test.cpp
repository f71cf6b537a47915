// End-to-end integration: generate a synthetic Google-like trace, replay it
// through the full simulator with the paper's adaptive policy, and verify the
// global accounting invariants hold across thousands of events.

#include <gtest/gtest.h>

#include <sstream>

#include "sim/predictors.hpp"
#include "sim/simulation.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"

namespace cloudcr {
namespace {

trace::Trace make_trace(std::uint64_t seed, double hours,
                        bool priority_change = false) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.horizon_s = hours * 3600.0;
  cfg.arrival_rate = 0.08;
  cfg.priority_change_midway = priority_change;
  return trace::TraceGenerator(cfg).generate();
}

/// Replays `trace` through the trace-backed source (records borrowed).
sim::SimResult replay(sim::Simulation& sim, const trace::Trace& trace) {
  sim::TraceJobSource source(trace);
  return sim.run(source);
}
sim::SimResult replay(sim::Simulation&& sim, const trace::Trace& trace) {
  return replay(sim, trace);
}

TEST(EndToEnd, FullPipelineCompletesAllJobs) {
  const auto trace = make_trace(101, 4.0);
  ASSERT_GT(trace.job_count(), 20u);

  sim::SimConfig cfg;
  const core::MnofPolicy policy;
  sim::Simulation sim(cfg, policy, sim::make_grouped_predictor(trace));
  const auto res = replay(sim, trace);

  EXPECT_EQ(res.incomplete_jobs, 0u);
  EXPECT_EQ(res.outcomes.size(), trace.job_count());
  EXPECT_GT(res.total_checkpoints, 0u);
  EXPECT_GT(res.total_failures, 0u);
  EXPECT_GT(res.makespan_s, 0.0);
}

TEST(EndToEnd, PerJobAccountingInvariants) {
  const auto trace = make_trace(103, 4.0);
  sim::SimConfig cfg;
  const core::MnofPolicy policy;
  sim::Simulation sim(cfg, policy, sim::make_grouped_predictor(trace));
  const auto res = replay(sim, trace);

  ASSERT_GT(res.outcomes.size(), 0u);
  for (const auto& out : res.outcomes) {
    // WPR in (0, 1]; all components non-negative; wall-clock at least covers
    // the critical path of the workload.
    EXPECT_GT(out.wpr(), 0.0) << "job " << out.job_id;
    EXPECT_LE(out.wpr(), 1.0 + 1e-9) << "job " << out.job_id;
    EXPECT_GE(out.queue_s, 0.0);
    EXPECT_GE(out.checkpoint_s, 0.0);
    EXPECT_GE(out.rollback_s, 0.0);
    EXPECT_GE(out.restart_s, 0.0);
    EXPECT_GE(out.wallclock_s, out.max_task_length_s - 1e-6);
    // Total overhead bounded by wall-clock.
    EXPECT_LE(out.checkpoint_s + out.rollback_s + out.restart_s,
              out.wallclock_s + 1e-6);
  }
}

TEST(EndToEnd, SequentialJobsAccountQueueSeparately) {
  const auto trace = make_trace(107, 2.0);
  sim::SimConfig cfg;
  const core::MnofPolicy policy;
  sim::Simulation sim(cfg, policy, sim::make_grouped_predictor(trace));
  const auto res = replay(sim, trace);
  for (const auto& out : res.outcomes) {
    if (!out.bag_of_tasks) {
      // For ST jobs, wall-clock ~= workload + overheads + queue (tasks never
      // overlap).
      EXPECT_NEAR(out.wallclock_s,
                  out.workload_s + out.checkpoint_s + out.rollback_s +
                      out.restart_s + out.queue_s,
                  1e-6)
          << "job " << out.job_id;
    }
  }
}

TEST(EndToEnd, AdaptiveSurvivesPriorityChanges) {
  const auto trace = make_trace(109, 2.0, /*priority_change=*/true);
  sim::SimConfig cfg;
  cfg.adaptation = core::AdaptationMode::kAdaptive;
  const core::MnofPolicy policy;
  sim::Simulation sim(cfg, policy, sim::make_grouped_predictor(trace));
  const auto res = replay(sim, trace);
  EXPECT_EQ(res.incomplete_jobs, 0u);
  EXPECT_GT(res.average_wpr(), 0.5);
}

TEST(EndToEnd, SharedNfsContentionHurtsUnderLoad) {
  // Same trace replayed on single-server NFS vs DM-NFS: when many tasks
  // checkpoint simultaneously, the single server's contention must cost WPR.
  const auto trace = make_trace(113, 4.0);
  const core::MnofPolicy policy;

  sim::SimConfig nfs_cfg;
  nfs_cfg.placement = sim::PlacementMode::kForceShared;
  nfs_cfg.shared_kind = storage::DeviceKind::kSharedNfs;
  sim::SimConfig dm_cfg;
  dm_cfg.placement = sim::PlacementMode::kForceShared;
  dm_cfg.shared_kind = storage::DeviceKind::kDmNfs;

  const auto nfs_res = replay(
      sim::Simulation(nfs_cfg, policy, sim::make_grouped_predictor(trace)),
      trace);
  const auto dm_res = replay(
      sim::Simulation(dm_cfg, policy, sim::make_grouped_predictor(trace)),
      trace);
  EXPECT_GE(dm_res.average_wpr(), nfs_res.average_wpr());
}

TEST(EndToEnd, TraceRoundTripGivesIdenticalSimulation) {
  const auto trace = make_trace(127, 1.0);
  std::stringstream buf;
  trace::write_csv(buf, trace);
  const auto loaded = trace::read_csv(buf);

  const core::MnofPolicy policy;
  sim::SimConfig cfg;
  const auto r1 = replay(
      sim::Simulation(cfg, policy, sim::make_grouped_predictor(trace)), trace);
  const auto r2 = replay(
      sim::Simulation(cfg, policy, sim::make_grouped_predictor(loaded)),
      loaded);
  ASSERT_EQ(r1.outcomes.size(), r2.outcomes.size());
  for (std::size_t i = 0; i < r1.outcomes.size(); ++i) {
    EXPECT_NEAR(r1.outcomes[i].wallclock_s, r2.outcomes[i].wallclock_s, 1e-6);
  }
}

}  // namespace
}  // namespace cloudcr
