#include "core/controller.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "stats/rng.hpp"

namespace cloudcr::core {
namespace {

const MnofPolicy kPolicy;  // shared stateless policy

CheckpointController make_controller(
    double te = 400.0, double mem = 160.0, double mnof = 2.0,
    AdaptationMode mode = AdaptationMode::kAdaptive) {
  return CheckpointController(kPolicy, te, mem, FailureStats{mnof, 200.0},
                              mode);
}

TEST(Controller, InitialPlanMatchesPolicy) {
  auto ctl = make_controller();
  PolicyContext ctx;
  ctx.total_work_s = 400.0;
  ctx.remaining_work_s = 400.0;
  const auto& d = ctl.storage_decision();
  ctx.checkpoint_cost_s = d.device == storage::DeviceKind::kLocalRamdisk
                              ? d.local_cost_s
                              : d.shared_cost_s;
  ctx.restart_cost_s = d.device == storage::DeviceKind::kLocalRamdisk
                           ? d.local_restart_s
                           : d.shared_restart_s;
  ctx.stats = {2.0, 200.0};
  EXPECT_NEAR(ctl.current_interval(), kPolicy.next_interval(ctx), 1e-9);
}

TEST(Controller, FirstCheckpointAtOneInterval) {
  auto ctl = make_controller();
  const auto next = ctl.work_until_next_checkpoint(0.0);
  ASSERT_TRUE(next.has_value());
  EXPECT_NEAR(*next, ctl.current_interval(), 1e-9);
}

TEST(Controller, PositionsAreEquidistant) {
  auto ctl = make_controller();
  const double w = ctl.current_interval();
  // From just after the k-th checkpoint, the next is one interval ahead.
  for (int k = 0; k < 5; ++k) {
    const double progress = k * w + 1e-6;
    const auto next = ctl.work_until_next_checkpoint(progress);
    ASSERT_TRUE(next.has_value()) << "k=" << k;
    EXPECT_NEAR(progress + *next, (k + 1) * w, 1e-6);
  }
}

TEST(Controller, NoCheckpointAtOrBeyondTaskEnd) {
  auto ctl = make_controller(100.0, 160.0, 0.01);
  // x* < 1: single interval, no checkpoint before the end.
  EXPECT_FALSE(ctl.work_until_next_checkpoint(0.0).has_value());
  EXPECT_FALSE(ctl.work_until_next_checkpoint(99.0).has_value());
  EXPECT_FALSE(ctl.work_until_next_checkpoint(100.0).has_value());
}

TEST(Controller, Theorem2NoReplanWhileMnofUnchanged) {
  auto ctl = make_controller();
  const double w = ctl.current_interval();
  for (int k = 1; k <= 4; ++k) {
    ctl.on_checkpoint(k * w);
    EXPECT_EQ(ctl.replan_count(), 0) << "checkpoint " << k;
    EXPECT_NEAR(ctl.current_interval(), w, 1e-9);
  }
}

TEST(Controller, AdaptiveReplansImmediatelyOnMnofChange) {
  auto ctl = make_controller(400.0, 160.0, 2.0, AdaptationMode::kAdaptive);
  const double w0 = ctl.current_interval();
  // Algorithm 1 checks "MNOF changed" every polling tick: the new plan is in
  // force right away, anchored at the current progress.
  ctl.update_stats(FailureStats{8.0, 200.0}, /*progress_s=*/100.0);
  EXPECT_EQ(ctl.replan_count(), 1);
  // Quadrupled MNOF halves the interval: sqrt(2 C Te / mnof).
  EXPECT_LT(ctl.current_interval(), w0 * 0.6);
  const auto next = ctl.work_until_next_checkpoint(100.0);
  ASSERT_TRUE(next.has_value());
  EXPECT_NEAR(*next, ctl.current_interval(), 1e-9);
}

TEST(Controller, AdaptiveRescuesTaskWithNoPlannedCheckpoints) {
  // A calm task plans zero checkpoints; when its failure rate explodes the
  // adaptive controller must start checkpointing anyway — there is no
  // checkpoint boundary to wait for.
  auto ctl = make_controller(100.0, 160.0, 0.01, AdaptationMode::kAdaptive);
  EXPECT_FALSE(ctl.work_until_next_checkpoint(50.0).has_value());
  ctl.update_stats(FailureStats{20.0, 40.0}, /*progress_s=*/50.0);
  EXPECT_TRUE(ctl.work_until_next_checkpoint(50.0).has_value());
}

TEST(Controller, UnchangedStatsDoNotTriggerReplan) {
  auto ctl = make_controller(400.0, 160.0, 2.0, AdaptationMode::kAdaptive);
  ctl.update_stats(FailureStats{2.0, 200.0}, 50.0);  // identical stats
  EXPECT_EQ(ctl.replan_count(), 0);
}

TEST(Controller, StaticIgnoresStatsUpdates) {
  auto ctl = make_controller(400.0, 160.0, 2.0, AdaptationMode::kStatic);
  const double w0 = ctl.current_interval();
  ctl.update_stats(FailureStats{50.0, 10.0}, 10.0);
  ctl.on_checkpoint(w0);
  EXPECT_EQ(ctl.replan_count(), 0);
  EXPECT_NEAR(ctl.current_interval(), w0, 1e-9);
}

TEST(Controller, RollbackKeepsPositions) {
  auto ctl = make_controller();
  const double w = ctl.current_interval();
  ctl.on_checkpoint(w);
  ctl.on_checkpoint(2 * w);
  // Failure rolls the task back to 2w; next checkpoint stays at 3w.
  ctl.on_rollback(2 * w);
  const auto next = ctl.work_until_next_checkpoint(2 * w);
  ASSERT_TRUE(next.has_value());
  EXPECT_NEAR(*next, w, 1e-9);
}

TEST(Controller, RollbackToZeroRestartsSequence) {
  auto ctl = make_controller();
  const double w = ctl.current_interval();
  ctl.on_rollback(0.0);
  const auto next = ctl.work_until_next_checkpoint(0.0);
  ASSERT_TRUE(next.has_value());
  EXPECT_NEAR(*next, w, 1e-9);
}

TEST(Controller, ForcedDeviceOverridesSelection) {
  // Pick parameters where auto-select chooses local, then force shared.
  CheckpointController forced(kPolicy, 200.0, 160.0, FailureStats{2.0, 100.0},
                              AdaptationMode::kAdaptive,
                              storage::DeviceKind::kDmNfs,
                              storage::DeviceKind::kDmNfs);
  EXPECT_EQ(forced.storage_decision().device, storage::DeviceKind::kDmNfs);

  CheckpointController auto_sel(kPolicy, 200.0, 160.0,
                                FailureStats{2.0, 100.0},
                                AdaptationMode::kAdaptive);
  EXPECT_EQ(auto_sel.storage_decision().device,
            storage::DeviceKind::kLocalRamdisk);
  // Forcing the dearer device yields a longer interval (higher C).
  EXPECT_GT(forced.current_interval(), auto_sel.current_interval());
}

TEST(Controller, RejectsNonPositiveWork) {
  EXPECT_THROW(make_controller(0.0), std::invalid_argument);
  EXPECT_THROW(make_controller(-10.0), std::invalid_argument);
}

TEST(Controller, CompletionReturnsNoCheckpoint) {
  auto ctl = make_controller();
  EXPECT_FALSE(ctl.work_until_next_checkpoint(400.0).has_value());
  EXPECT_FALSE(ctl.work_until_next_checkpoint(500.0).has_value());
}

TEST(Controller, AdaptiveReplanUsesRemainingWork) {
  auto ctl = make_controller(400.0, 160.0, 2.0, AdaptationMode::kAdaptive);
  const double w0 = ctl.current_interval();
  ctl.on_checkpoint(w0);
  // Epsilon change at 3/4 progress: re-plans over the remaining quarter.
  ctl.update_stats(FailureStats{2.0000001, 200.0}, 300.0);
  EXPECT_EQ(ctl.replan_count(), 1);
  // New interval computed over remaining 100 s with scaled-down MNOF; the
  // closed form keeps interval = sqrt(2 C Te/mnof) ~ w0 (MNOF per full task
  // unchanged up to epsilon).
  EXPECT_NEAR(ctl.current_interval(), w0, 0.05 * w0);
}

/// Plans a fixed fraction of the remaining work per interval, so every
/// re-plan moves the interval.
class RemainingFractionPolicy final : public CheckpointPolicy {
 public:
  explicit RemainingFractionPolicy(double fraction) : fraction_(fraction) {}
  [[nodiscard]] std::string name() const override { return "fraction"; }
  [[nodiscard]] double next_interval(const PolicyContext& ctx) const override {
    return ctx.remaining_work_s * fraction_;
  }

 private:
  double fraction_;
};

/// work_until_next_checkpoint's general formula, restated: the next
/// multiple of the interval after the anchor strictly ahead of `progress`.
std::optional<double> floor_formula(double progress, double anchor,
                                    double interval, double total) {
  if (progress >= total) return std::nullopt;
  if (interval <= 0.0) return std::nullopt;
  const double k = std::floor((progress - anchor) / interval + 1e-12) + 1.0;
  const double next = anchor + k * interval;
  if (next >= total - 1e-9) return std::nullopt;
  return next - progress;
}

bool same_bits(const std::optional<double>& a,
               const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || std::memcmp(&*a, &*b, sizeof(double)) == 0;
}

TEST(Controller, BoundaryAtTheAnchorEqualsTheFloorFormula) {
  // At progress == anchor the controller skips the division; the answer
  // must still be the floor formula's, bit for bit, including whether the
  // end-of-task test fires when the boundary lands within 1e-9 of the end.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double tiny[] = {5e-324, 1e-300, 1e-15, 1e-12, 1e-9};
  stats::Rng rng(31337);
  int ends = 0;
  int boundaries = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    double interval;
    switch (trial % 5) {
      case 0:
        interval = tiny[rng.uniform_index(5)];
        break;
      case 1:
        interval = kInf;
        break;
      default:
        interval = std::exp(rng.uniform(std::log(1e-6), std::log(1e6)));
    }
    const double anchor = trial % 7 == 0 ? 0.0 : rng.uniform(0.0, 1e6);
    double total;
    if (std::isfinite(anchor + interval)) {
      // Put the end-of-task threshold total - 1e-9 right at the boundary:
      // a few ulps either side, or up to 2e-9 either side.
      total = anchor + interval + 1e-9;
      if (trial % 2 == 0) {
        for (auto steps = rng.uniform_index(9); steps > 0; --steps) {
          total = std::nextafter(total, trial % 4 == 0 ? kInf : 0.0);
        }
      } else {
        total += rng.uniform(-2e-9, 2e-9);
      }
    } else {
      total = anchor + rng.uniform(1.0, 1e6);
    }
    if (!(total > 0.0)) continue;

    const FixedIntervalPolicy policy(interval);
    CheckpointController ctl(policy, total, 160.0, FailureStats{2.0, 200.0},
                             AdaptationMode::kAdaptive);
    ASSERT_EQ(ctl.current_interval(), interval);
    ctl.on_checkpoint(anchor);
    ASSERT_EQ(ctl.replan_count(), 0);
    const auto got = ctl.work_until_next_checkpoint(anchor);
    const auto want = floor_formula(anchor, anchor, interval, total);
    ASSERT_TRUE(same_bits(got, want))
        << "trial " << trial << " anchor " << anchor << " interval "
        << interval << " total " << total;
    (got ? boundaries : ends) += 1;
  }
  // Both outcomes of the end-of-task test were exercised.
  EXPECT_GT(ends, 1000);
  EXPECT_GT(boundaries, 1000);
}

TEST(Controller, ReplanOnCheckpointLandsOnTheFloorFormula) {
  // on_checkpoint re-plans when the stats in force differ from the planned
  // ones. Adaptive update_stats re-plans at once, so only stats that never
  // compare equal to themselves (a NaN MTBF) reach that branch: every
  // checkpoint then re-plans, anchored on its own progress.
  const RemainingFractionPolicy policy(0.3);
  const double total = 1000.0;
  CheckpointController ctl(
      policy, total, 160.0,
      FailureStats{2.0, std::numeric_limits<double>::quiet_NaN()},
      AdaptationMode::kAdaptive);
  stats::Rng rng(7);
  double progress = 0.0;
  int replans = 0;
  while (true) {
    const auto next = ctl.work_until_next_checkpoint(progress);
    ASSERT_TRUE(same_bits(next, floor_formula(progress, progress,
                                              ctl.current_interval(), total)));
    if (!next) break;
    // Off the anchor the general formula answers; it must agree too.
    const double mid = progress + rng.uniform(0.0, 1.0) * *next;
    ASSERT_TRUE(same_bits(
        ctl.work_until_next_checkpoint(mid),
        floor_formula(mid, progress, ctl.current_interval(), total)));
    progress += *next;
    ctl.on_checkpoint(progress);
    ++replans;
    EXPECT_EQ(ctl.replan_count(), replans);
    EXPECT_EQ(ctl.current_interval(), (total - progress) * 0.3);
  }
  EXPECT_GT(replans, 10);
}

}  // namespace
}  // namespace cloudcr::core
