// Micro-benchmarks (google-benchmark) for the core policy computations: the
// per-checkpoint decision path must be cheap enough to run inside a
// scheduler servicing hundreds of concurrent tasks.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/controller.hpp"
#include "core/expected_cost.hpp"
#include "core/policy.hpp"
#include "core/storage_selector.hpp"
#include "sched/policies.hpp"

namespace {

using namespace cloudcr;

core::PolicyContext make_ctx(double te) {
  core::PolicyContext ctx;
  ctx.total_work_s = te;
  ctx.remaining_work_s = te * 0.7;
  ctx.checkpoint_cost_s = 1.67;
  ctx.restart_cost_s = 1.45;
  ctx.stats = {2.4, 560.0};
  return ctx;
}

void BM_MnofPolicyNextInterval(benchmark::State& state) {
  const core::MnofPolicy policy;
  const auto ctx = make_ctx(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.next_interval(ctx));
  }
}
BENCHMARK(BM_MnofPolicyNextInterval)->Arg(400)->Arg(4000)->Arg(40000);

void BM_YoungPolicyNextInterval(benchmark::State& state) {
  const core::YoungPolicy policy;
  const auto ctx = make_ctx(1000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.next_interval(ctx));
  }
}
BENCHMARK(BM_YoungPolicyNextInterval);

void BM_DalyPolicyNextInterval(benchmark::State& state) {
  const core::DalyPolicy policy;
  const auto ctx = make_ctx(1000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.next_interval(ctx));
  }
}
BENCHMARK(BM_DalyPolicyNextInterval);

void BM_IntegerOptimum(benchmark::State& state) {
  const core::CostModelInput in{static_cast<double>(state.range(0)), 1.67,
                                1.45, 3.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimal_interval_count_integer(in));
  }
}
BENCHMARK(BM_IntegerOptimum)->Arg(400)->Arg(40000);

void BM_StorageSelection(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::select_storage(800.0, 160.0, 2.0));
  }
}
BENCHMARK(BM_StorageSelection);

void BM_ControllerConstruction(benchmark::State& state) {
  const core::MnofPolicy policy;
  for (auto _ : state) {
    core::CheckpointController ctl(policy, 800.0, 160.0, {2.0, 500.0},
                                   core::AdaptationMode::kAdaptive);
    benchmark::DoNotOptimize(ctl.current_interval());
  }
}
BENCHMARK(BM_ControllerConstruction);

void BM_ControllerCheckpointStep(benchmark::State& state) {
  const core::MnofPolicy policy;
  core::CheckpointController ctl(policy, 1e9, 160.0, {20.0, 500.0},
                                 core::AdaptationMode::kAdaptive);
  double progress = 0.0;
  const double step = ctl.current_interval();
  for (auto _ : state) {
    progress += step;
    ctl.on_checkpoint(progress);
    benchmark::DoNotOptimize(ctl.work_until_next_checkpoint(progress));
  }
}
BENCHMARK(BM_ControllerCheckpointStep);

// decide() is stateless, so every round re-derives the shadow/profile
// reservations from scratch; this pins the cost of that re-derivation
// (EASY's shadow scan and conservative's availability profile — the profile
// is the superlinear part, so the queue here is deep for a replay but small
// in absolute terms) on a contended 48-deep queue against a 24-job running
// set. One iteration is one EASY and one conservative decide() per
// availability level.
void BM_BackfillDecide(benchmark::State& state) {
  constexpr std::size_t kQueue = 48;
  constexpr std::size_t kRunning = 24;
  constexpr std::size_t kRounds = 40;
  std::vector<sched::PendingJob> queue(kQueue);
  for (std::size_t i = 0; i < kQueue; ++i) {
    queue[i].id = i;
    queue[i].slot = static_cast<std::uint32_t>(i);
    queue[i].arrival_s = static_cast<double>(i);
    queue[i].demand_mb = 128.0 + static_cast<double>((i * 7919) % 1024);
    queue[i].estimate_s = 60.0 + static_cast<double>((i * 104729) % 3600);
    queue[i].priority = 1 + static_cast<int>(i % 12);
  }
  std::vector<sched::RunningJob> running(kRunning);
  for (std::size_t i = 0; i < kRunning; ++i) {
    running[i].id = 100000 + i;
    running[i].slot = static_cast<std::uint32_t>(kQueue + i);
    running[i].demand_mb = 256.0 + static_cast<double>((i * 31) % 512);
    running[i].est_end_s = 30.0 + static_cast<double>((i * 613) % 7200);
    running[i].priority = 1 + static_cast<int>((i * 5) % 12);
  }
  const sched::SchedulerPtr easy = sched::make_easy_backfill();
  const sched::SchedulerPtr conservative = sched::make_conservative_backfill();
  sched::ResourceView view;
  view.total_capacity_mb = 32.0 * 1024.0;
  view.max_available_mb = 1024.0;
  sched::Decision decision;
  for (auto _ : state) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      view.now_s = static_cast<double>(r);
      // Sweep availability so both the saturated and the draining cluster
      // shapes get exercised.
      view.total_available_mb = static_cast<double>((r * 97) % 8192);
      for (const auto* policy : {easy.get(), conservative.get()}) {
        decision.clear();
        policy->decide(view, queue, running, decision);
        benchmark::DoNotOptimize(decision);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kRounds * 2);
}
BENCHMARK(BM_BackfillDecide);

}  // namespace

BENCHMARK_MAIN();
