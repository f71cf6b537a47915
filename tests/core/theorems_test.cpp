#include "theorems.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/expected_cost.hpp"

namespace cloudcr::core {
namespace {

TEST(Theorem1, WitnessOnPaperExample) {
  const auto w = theorem1_witness(18.0, 2.0, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(w.x_star, 3.0);
  EXPECT_TRUE(w.second_order_positive);
  // E(Tw)(3) = 18 + 2*2 + 1*2 + 18*2/6 = 30.
  EXPECT_DOUBLE_EQ(w.expected_wallclock_at_optimum, 30.0);
}

TEST(Theorem1, DegenerateCaseFallsBackToOneInterval) {
  const auto w = theorem1_witness(10.0, 100.0, 0.0, 0.1);
  EXPECT_LT(w.x_star, 1.0);
  const CostModelInput in{10.0, 100.0, 0.0, 0.1};
  EXPECT_DOUBLE_EQ(w.expected_wallclock_at_optimum,
                   expected_wallclock(in, 1.0));
}

TEST(Corollary1, RecoversYoungFormula) {
  // Under E(Y) = Te/Tf the Formula-3 interval equals sqrt(2 C Tf) exactly.
  for (double tf : {100.0, 236.17, 1000.0, 4199.0}) {
    for (double c : {0.5, 2.0}) {
      const double interval = corollary1_interval(10000.0, c, tf);
      EXPECT_NEAR(interval, std::sqrt(2.0 * c * tf), 1e-9)
          << "Tf=" << tf << " C=" << c;
    }
  }
}

TEST(Corollary1, PaperGoogleNumbers) {
  // lambda = 0.00423445, C=2 -> interval ~30.7 s.
  const double tf = 1.0 / 0.00423445;
  EXPECT_NEAR(corollary1_interval(1000.0, 2.0, tf), 30.74, 0.01);
}

TEST(Corollary1, RejectsBadMtbf) {
  EXPECT_THROW(corollary1_interval(100.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(corollary1_interval(100.0, 1.0, -5.0), std::invalid_argument);
}

// Theorem 2 as a property: X(k+1) == X(k) - 1 when MNOF is unchanged,
// across a parameter sweep.
struct T2Case {
  double tr, ey, c;
};

class Theorem2Sweep : public ::testing::TestWithParam<T2Case> {};

TEST_P(Theorem2Sweep, NextCountIsExactlyOneLess) {
  const auto& p = GetParam();
  const auto step = theorem2_step(p.tr, p.ey, p.c);
  if (step.x_expected <= 0.0) GTEST_SKIP() << "fewer than two intervals";
  EXPECT_NEAR(step.x_next, step.x_expected, 1e-9);
}

TEST_P(Theorem2Sweep, RemainingWorkShrinksByOneInterval) {
  const auto& p = GetParam();
  const double x = optimal_interval_count(p.tr, p.c, p.ey);
  const auto step = theorem2_step(p.tr, p.ey, p.c);
  if (step.x_expected <= 0.0) GTEST_SKIP();
  EXPECT_NEAR(step.remaining_next, p.tr - p.tr / x, 1e-9);
}

TEST_P(Theorem2Sweep, IterationWalksDownToOne) {
  // Applying the step repeatedly must tick the count down 1 per checkpoint.
  const auto& p = GetParam();
  double tr = p.tr;
  double ey = p.ey;
  double x = optimal_interval_count(tr, p.c, ey);
  int guard = 0;
  while (x > 1.0 && guard++ < 10000) {
    const auto step = theorem2_step(tr, ey, p.c);
    EXPECT_NEAR(step.x_next, x - 1.0, 1e-6);
    ey *= step.remaining_next / tr;
    tr = step.remaining_next;
    x = step.x_next;
  }
  EXPECT_LT(guard, 10000);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Theorem2Sweep,
    ::testing::Values(T2Case{1000.0, 4.0, 2.0}, T2Case{18.0, 2.0, 2.0},
                      T2Case{441.0, 2.0, 1.0}, T2Case{5000.0, 10.0, 1.67},
                      T2Case{200.0, 2.0, 0.632}, T2Case{750.0, 0.9, 0.25}));

TEST(Theorem2, ChangedMnofBreaksTheInvariant) {
  // If MNOF doubles between checkpoints, X(*) != X* - 1.
  const double tr = 1000.0, ey = 4.0, c = 2.0;
  const double x = optimal_interval_count(tr, c, ey);
  const double tr_next = tr * (x - 1.0) / x;
  // MNOF doubled: E_{k+1} = 2 * ey * tr_next / tr.
  const double e_next = 2.0 * ey * tr_next / tr;
  const double x_next = optimal_interval_count(tr_next, c, e_next);
  EXPECT_GT(std::abs(x_next - (x - 1.0)), 0.5);
}

TEST(Theorem2, NoNextPositionForSingleInterval) {
  const auto step = theorem2_step(10.0, 0.01, 5.0);
  EXPECT_DOUBLE_EQ(step.x_next, 0.0);
  EXPECT_DOUBLE_EQ(step.x_expected, 0.0);
}

}  // namespace
}  // namespace cloudcr::core
