// SchedulerPolicy implementations (EASY / conservative backfill, priority
// preemption), the SchedulerRegistry, and the end-to-end scheduling stage
// inside sim::Simulation (hold times, backfill counts, preemptions, and the
// fcfs == no-scheduler identity).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "backfill_oracle.hpp"
#include "sched/policies.hpp"
#include "sched/registry.hpp"
#include "sim/predictors.hpp"
#include "sim/simulation.hpp"
#include "stats/rng.hpp"

namespace cloudcr::sched {
namespace {

ResourceView view(double now, double avail, double capacity = 1000.0) {
  ResourceView v;
  v.now_s = now;
  v.total_available_mb = avail;
  v.max_available_mb = avail;
  v.total_capacity_mb = capacity;
  return v;
}

PendingJob pending(std::uint32_t slot, double demand, double estimate,
                   int priority = 5) {
  PendingJob p;
  p.id = slot;
  p.slot = slot;
  p.demand_mb = demand;
  p.estimate_s = estimate;
  p.priority = priority;
  return p;
}

RunningJob running(std::uint32_t slot, double demand, double est_end,
                   int priority = 5) {
  RunningJob r;
  r.id = slot;
  r.slot = slot;
  r.demand_mb = demand;
  r.est_end_s = est_end;
  r.priority = priority;
  return r;
}

TEST(Fcfs, IsPassThroughAndReleasesEverything) {
  const SchedulerPtr fcfs = make_fcfs();
  EXPECT_EQ(fcfs->name(), "fcfs");
  EXPECT_TRUE(fcfs->pass_through());
  EXPECT_EQ(fcfs->preempt_mode(), PreemptMode::kNone);

  Decision out;
  fcfs->decide(view(0.0, 0.0), {pending(0, 500.0, 10.0)}, {}, out);
  ASSERT_EQ(out.release.size(), 1u);
  EXPECT_EQ(out.release[0], 0u);
  EXPECT_TRUE(out.evict.empty());
}

TEST(EasyBackfill, ReleasesHeadsInOrderWhileTheyFit) {
  const SchedulerPtr easy = make_easy_backfill();
  EXPECT_FALSE(easy->pass_through());
  Decision out;
  easy->decide(view(0.0, 100.0),
               {pending(0, 60.0, 10.0), pending(1, 30.0, 10.0),
                pending(2, 30.0, 10.0)},
               {}, out);
  // 60 + 30 fit; the third head (30 > 10 left) blocks.
  ASSERT_EQ(out.release.size(), 2u);
  EXPECT_EQ(out.release[0], 0u);
  EXPECT_EQ(out.release[1], 1u);
}

TEST(EasyBackfill, BackfillsAroundTheShadowReservation) {
  // avail = 20; running r(40 MB) until t=100. Head needs 50 -> shadow 100,
  // extra = 20 + 40 - 50 = 10.
  const SchedulerPtr easy = make_easy_backfill();
  const std::vector<RunningJob> run = {running(9, 40.0, 100.0)};
  const std::vector<PendingJob> queue = {
      pending(0, 50.0, 100.0),  // head: blocked
      pending(1, 5.0, 50.0),    // ends at 50 <= shadow: release
      pending(2, 5.0, 500.0),   // outlives shadow but fits the extra
      pending(3, 10.0, 500.0),  // outlives shadow, exceeds remaining extra
  };
  Decision out;
  easy->decide(view(0.0, 20.0), queue, run, out);
  ASSERT_EQ(out.release.size(), 2u);
  EXPECT_EQ(out.release[0], 1u);
  EXPECT_EQ(out.release[1], 2u);
  EXPECT_DOUBLE_EQ(out.wake_at_s, 100.0);  // re-decide at the shadow
}

TEST(EasyBackfill, RefusesBackfillThatWouldDelayTheHead) {
  // Same shadow as above but the candidate outlives it and exceeds the
  // extra: releasing it would push the head past t=100.
  const SchedulerPtr easy = make_easy_backfill();
  Decision out;
  easy->decide(view(0.0, 20.0),
               {pending(0, 50.0, 100.0), pending(1, 15.0, 500.0)},
               {running(9, 40.0, 100.0)}, out);
  EXPECT_TRUE(out.release.empty());
  EXPECT_DOUBLE_EQ(out.wake_at_s, 100.0);
}

TEST(EasyBackfill, OverdueEstimatesCountAsFreeingNow) {
  // The running job's estimate already expired (it ran long): its memory
  // counts as draining "now", so the shadow cannot move past now and no
  // wakeup is armed (completions will re-trigger the scheduler).
  const SchedulerPtr easy = make_easy_backfill();
  Decision out;
  easy->decide(view(10.0, 20.0), {pending(0, 50.0, 100.0)},
               {running(9, 40.0, 5.0)}, out);
  EXPECT_TRUE(out.release.empty());
  EXPECT_FALSE(out.wake_at_s > 10.0);
}

TEST(ConservativeBackfill, EveryQueuedJobHoldsAReservation) {
  // avail = 20; running r(80 MB) until t=100. A(50 MB) reserves t=100;
  // B(10 MB) fits now and must not be blocked by A's reservation.
  const SchedulerPtr cons = make_conservative_backfill();
  EXPECT_EQ(cons->name(), "backfill:conservative");
  Decision out;
  cons->decide(view(0.0, 20.0),
               {pending(0, 50.0, 10.0), pending(1, 10.0, 5.0)},
               {running(9, 80.0, 100.0)}, out);
  ASSERT_EQ(out.release.size(), 1u);
  EXPECT_EQ(out.release[0], 1u);
  EXPECT_DOUBLE_EQ(out.wake_at_s, 100.0);  // A's reserved start
}

TEST(ConservativeBackfill, ReservationsStackInQueueOrder) {
  // Two blocked jobs each needing the whole machine: the second's
  // reservation must start after the first's, not alongside it.
  const SchedulerPtr cons = make_conservative_backfill();
  Decision out;
  cons->decide(view(0.0, 0.0),
               {pending(0, 100.0, 50.0), pending(1, 100.0, 50.0)},
               {running(9, 100.0, 30.0)}, out);
  EXPECT_TRUE(out.release.empty());
  // Earliest reservation: job 0 at t=30 (job 1 stacks at t=80 behind it).
  EXPECT_DOUBLE_EQ(out.wake_at_s, 30.0);
}

TEST(ConservativeBackfill, ReleasesEverythingOnAnIdleCluster) {
  const SchedulerPtr cons = make_conservative_backfill();
  Decision out;
  cons->decide(view(0.0, 100.0),
               {pending(0, 40.0, 10.0), pending(1, 60.0, 10.0)}, {}, out);
  ASSERT_EQ(out.release.size(), 2u);
  EXPECT_FALSE(std::isfinite(out.wake_at_s) && out.wake_at_s > 0.0);
}

TEST(ConservativeBackfill, DecisionsEqualTheCubicOracle) {
  // Random queues and running sets against the direct statement of the
  // profile (tests/sched/backfill_oracle.hpp). Whole-second instants and
  // coarse demands make instants coincide, so many profile events share an
  // instant; fractional demands make the availability sums round. Overdue
  // and unbounded estimates exercise the clamped and infinite instants.
  const SchedulerPtr cons = make_conservative_backfill();
  stats::Rng rng(20131117);
  auto draw = [&](double lo, double hi, bool coarse) {
    const double x = rng.uniform(lo, hi);
    return coarse ? std::floor(x) : x;
  };
  for (int trial = 0; trial < 1000; ++trial) {
    const bool coarse = trial % 2 == 0;
    const double now = draw(0.0, 50.0, coarse);
    std::vector<RunningJob> run;
    const auto n_run = rng.uniform_index(12);
    for (std::uint32_t i = 0; i < n_run; ++i) {
      run.push_back(running(100 + i, draw(1.0, 60.0, coarse),
                            draw(now - 20.0, now + 200.0, coarse)));
    }
    std::vector<PendingJob> queue;
    const auto n_queue = 1 + rng.uniform_index(16);
    for (std::uint32_t i = 0; i < n_queue; ++i) {
      double estimate = draw(1.0, 150.0, coarse);
      if (rng.uniform_index(25) == 0) {
        estimate = std::numeric_limits<double>::infinity();
      }
      queue.push_back(pending(i, draw(1.0, 90.0, coarse), estimate));
    }
    const ResourceView v = view(now, draw(0.0, 100.0, coarse));

    Decision got;
    cons->decide(v, queue, run, got);
    Decision want;
    oracle::conservative_decide(v, queue, run, want);
    EXPECT_EQ(got.release, want.release) << "trial " << trial;
    EXPECT_TRUE(got.evict.empty());
    EXPECT_EQ(std::memcmp(&got.wake_at_s, &want.wake_at_s, sizeof(double)),
              0)
        << "trial " << trial << ": " << got.wake_at_s << " vs "
        << want.wake_at_s;
  }
}

TEST(Preempt, EvictsStrictlyLowerPriorityLatestFirst) {
  const SchedulerPtr preempt = make_preempt(PreemptMode::kRequeue);
  EXPECT_EQ(preempt->name(), "preempt:requeue");
  EXPECT_EQ(preempt->preempt_mode(), PreemptMode::kRequeue);
  EXPECT_EQ(make_preempt(PreemptMode::kCheckpointRequeue)->name(),
            "preempt:ckpt");

  // avail = 10, job needs 50. Victims: among the prio-2 pair the later
  // release (index 2) goes first; the equal-priority job 0 is untouchable.
  Decision out;
  preempt->decide(view(0.0, 10.0), {pending(7, 50.0, 10.0, /*priority=*/5)},
                  {running(0, 30.0, 100.0, 5), running(1, 30.0, 100.0, 2),
                   running(2, 30.0, 100.0, 2)},
                  out);
  ASSERT_EQ(out.evict.size(), 2u);
  EXPECT_EQ(out.evict[0], 2u);
  EXPECT_EQ(out.evict[1], 1u);
  ASSERT_EQ(out.release.size(), 1u);
  EXPECT_EQ(out.release[0], 0u);
}

TEST(Preempt, ReleasesEvenWithoutAVictim) {
  // No strictly-lower-priority victim exists: the job is still released
  // and waits at the engine level, exactly like fcfs.
  const SchedulerPtr preempt = make_preempt(PreemptMode::kRequeue);
  Decision out;
  preempt->decide(view(0.0, 10.0), {pending(7, 50.0, 10.0, /*priority=*/1)},
                  {running(0, 30.0, 100.0, 5)}, out);
  EXPECT_TRUE(out.evict.empty());
  ASSERT_EQ(out.release.size(), 1u);
}

TEST(Registry, BuiltinsResolveWithArguments) {
  auto& reg = SchedulerRegistry::instance();
  EXPECT_EQ(reg.make("fcfs")->name(), "fcfs");
  EXPECT_EQ(reg.make("backfill")->name(), "backfill:easy");
  EXPECT_EQ(reg.make("backfill:easy")->name(), "backfill:easy");
  EXPECT_EQ(reg.make("backfill:conservative")->name(),
            "backfill:conservative");
  EXPECT_EQ(reg.make("preempt")->preempt_mode(), PreemptMode::kRequeue);
  EXPECT_EQ(reg.make("preempt:ckpt")->preempt_mode(),
            PreemptMode::kCheckpointRequeue);
  const auto names = reg.names();
  EXPECT_EQ(names, (std::vector<std::string>{"backfill", "fcfs", "preempt"}));
}

TEST(Registry, UnknownNameErrorListsRegisteredNames) {
  try {
    (void)SchedulerRegistry::instance().make("lottery");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lottery"), std::string::npos);
    EXPECT_NE(what.find("backfill"), std::string::npos);
    EXPECT_NE(what.find("fcfs"), std::string::npos);
    EXPECT_NE(what.find("preempt"), std::string::npos);
  }
}

TEST(Registry, BadArgumentErrorListsValidArguments) {
  try {
    (void)SchedulerRegistry::instance().make("backfill:aggressive");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("aggressive"), std::string::npos);
    EXPECT_NE(what.find("easy"), std::string::npos);
    EXPECT_NE(what.find("conservative"), std::string::npos);
  }
  EXPECT_THROW((void)SchedulerRegistry::instance().make("fcfs:strict"),
               std::invalid_argument);
  EXPECT_THROW((void)SchedulerRegistry::instance().make("preempt:maybe"),
               std::invalid_argument);
}

// -- end to end through sim::Simulation --------------------------------------

/// Two single-task jobs on a one-VM cluster: the second cannot start until
/// the first finishes, so any non-pass-through scheduler must hold it.
trace::Trace contended_trace() {
  trace::Trace trace;
  trace.horizon_s = 4000.0;
  auto add_job = [&trace](std::uint64_t id, double arrival, double length,
                          int priority) {
    trace::JobRecord job;
    job.id = id;
    job.arrival_s = arrival;
    trace::TaskRecord task;
    task.job_id = id;
    task.length_s = length;
    task.memory_mb = 100.0;
    task.priority = priority;
    job.tasks.push_back(task);
    trace.jobs.push_back(job);
  };
  add_job(1, 0.0, 100.0, 5);
  add_job(2, 10.0, 50.0, 5);
  return trace;
}

sim::SimResult run_with(const trace::Trace& trace,
                        const SchedulerPolicy* scheduler) {
  const core::PolicyPtr policy = api::PolicyRegistry::instance().make("none");
  sim::SimConfig config;
  config.cluster = {1, 1, 100.0};
  config.scheduler = scheduler;
  sim::Simulation simulation(config, *policy, sim::make_oracle_predictor());
  sim::TraceJobSource source(trace);
  return simulation.run(source);
}

TEST(SchedulingStage, FcfsMatchesNoSchedulerAndReportsZeroWaits) {
  const auto trace = contended_trace();
  const sim::SimResult bare = run_with(trace, nullptr);
  const SchedulerPtr fcfs = make_fcfs();
  const sim::SimResult fcfs_run = run_with(trace, fcfs.get());

  EXPECT_DOUBLE_EQ(fcfs_run.total_sched_wait_s, 0.0);
  EXPECT_EQ(fcfs_run.backfilled_jobs, 0u);
  EXPECT_EQ(fcfs_run.preempted_tasks, 0u);
  EXPECT_DOUBLE_EQ(fcfs_run.makespan_s, bare.makespan_s);
  ASSERT_EQ(fcfs_run.outcomes.size(), bare.outcomes.size());
  for (std::size_t i = 0; i < bare.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(fcfs_run.outcomes[i].wallclock_s,
                     bare.outcomes[i].wallclock_s);
  }
}

TEST(SchedulingStage, BackfillHoldsTheSecondJobUntilTheFirstFinishes) {
  const SchedulerPtr easy = make_easy_backfill();
  const sim::SimResult result = run_with(contended_trace(), easy.get());
  ASSERT_EQ(result.outcomes.size(), 2u);
  // Job 2 arrives at t=10 into a full machine and is held until job 1
  // completes at t=100: 90 s of scheduler wait, charged to the job and the
  // run aggregate — but not to queue_s, which starts at release.
  const auto& held = result.outcomes[1];
  EXPECT_EQ(held.job_id, 2u);
  EXPECT_DOUBLE_EQ(held.sched_wait_s, 90.0);
  EXPECT_DOUBLE_EQ(result.total_sched_wait_s, 90.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].sched_wait_s, 0.0);
  // Wallclock includes the hold: arrival 10 -> done 150.
  EXPECT_DOUBLE_EQ(held.wallclock_s, 140.0);
  EXPECT_EQ(result.preempted_tasks, 0u);
}

TEST(SchedulingStage, EasyBackfillRunsAShortJobAroundTheReservation) {
  // One-VM-per-host, two hosts: job 1 occupies one VM until t=100; job 2
  // (needs both VMs) blocks and reserves; job 3 (one VM, 20 s) fits now
  // and ends before the shadow -> backfilled ahead of job 2.
  trace::Trace trace;
  trace.horizon_s = 4000.0;
  auto add = [&trace](std::uint64_t id, double arrival, double length,
                      std::size_t tasks) {
    trace::JobRecord job;
    job.id = id;
    job.arrival_s = arrival;
    job.structure = tasks > 1 ? trace::JobStructure::kBagOfTasks
                              : trace::JobStructure::kSequentialTasks;
    for (std::size_t i = 0; i < tasks; ++i) {
      trace::TaskRecord task;
      task.job_id = id;
      task.index_in_job = static_cast<std::uint32_t>(i);
      task.length_s = length;
      task.memory_mb = 100.0;
      task.priority = 5;
      job.tasks.push_back(task);
    }
    trace.jobs.push_back(job);
  };
  add(1, 0.0, 100.0, 1);
  add(2, 10.0, 50.0, 2);  // BoT over both VMs: blocked until t=100
  add(3, 20.0, 20.0, 1);  // backfills into the free VM

  const core::PolicyPtr policy = api::PolicyRegistry::instance().make("none");
  const SchedulerPtr easy = make_easy_backfill();
  sim::SimConfig config;
  config.cluster = {2, 1, 100.0};
  config.scheduler = easy.get();
  sim::Simulation simulation(config, *policy, sim::make_oracle_predictor());
  sim::TraceJobSource source(trace);
  const sim::SimResult result = simulation.run(source);

  ASSERT_EQ(result.outcomes.size(), 3u);
  EXPECT_EQ(result.backfilled_jobs, 1u);
  // Job 3 finishes first (20 + 20), then job 1, then the held job 2.
  EXPECT_EQ(result.outcomes[0].job_id, 3u);
  EXPECT_TRUE(result.outcomes[0].backfilled);
  EXPECT_DOUBLE_EQ(result.outcomes[0].sched_wait_s, 0.0);
  EXPECT_EQ(result.outcomes[2].job_id, 2u);
  EXPECT_DOUBLE_EQ(result.outcomes[2].sched_wait_s, 90.0);
}

TEST(SchedulingStage, PreemptEvictsLowerPriorityWork) {
  trace::Trace trace;
  trace.horizon_s = 4000.0;
  {
    trace::JobRecord job;
    job.id = 1;
    job.arrival_s = 0.0;
    trace::TaskRecord task;
    task.job_id = 1;
    task.length_s = 100.0;
    task.memory_mb = 100.0;
    task.priority = 2;
    job.tasks.push_back(task);
    trace.jobs.push_back(job);
  }
  {
    trace::JobRecord job;
    job.id = 2;
    job.arrival_s = 10.0;
    trace::TaskRecord task;
    task.job_id = 2;
    task.length_s = 10.0;
    task.memory_mb = 100.0;
    task.priority = 9;
    job.tasks.push_back(task);
    trace.jobs.push_back(job);
  }
  const SchedulerPtr preempt = make_preempt(PreemptMode::kRequeue);
  const sim::SimResult result = run_with(trace, preempt.get());

  EXPECT_EQ(result.preempted_tasks, 1u);
  ASSERT_EQ(result.outcomes.size(), 2u);
  // The high-priority job runs immediately: arrival 10 -> done 20.
  EXPECT_EQ(result.outcomes[0].job_id, 2u);
  EXPECT_DOUBLE_EQ(result.outcomes[0].wallclock_s, 10.0);
  // The victim restarts from scratch after the preemptor finishes: 10 s of
  // progress lost, done at 20 + 100 plus the storage model's restart price
  // (the same price a failure restart pays).
  EXPECT_EQ(result.outcomes[1].job_id, 1u);
  EXPECT_GE(result.outcomes[1].wallclock_s, 120.0);
  EXPECT_LT(result.outcomes[1].wallclock_s, 125.0);
  EXPECT_DOUBLE_EQ(result.outcomes[1].rollback_s, 10.0);
}

}  // namespace
}  // namespace cloudcr::sched
