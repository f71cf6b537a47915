#pragma once

/// \file theorems.hpp
/// \brief Executable statements of the paper's Theorems 1 and 2: the test
/// oracle theorems_test.cpp checks the library's optimum against. Header-only,
/// because the test build compiles only *_test.cpp files.

#include <stdexcept>

#include "core/expected_cost.hpp"

namespace cloudcr::core {

/// Theorem 1 witness: for inputs (Te, C, R, E(Y)) returns the continuous
/// optimum x* and verifies the second-order condition d2E/dx2 > 0 at x*.
struct Theorem1Witness {
  double x_star = 0.0;
  double expected_wallclock_at_optimum = 0.0;
  bool second_order_positive = false;
};

inline Theorem1Witness theorem1_witness(double work_s, double checkpoint_cost_s,
                                        double restart_cost_s,
                                        double expected_failures) {
  Theorem1Witness w;
  w.x_star =
      optimal_interval_count(work_s, checkpoint_cost_s, expected_failures);
  const CostModelInput in{work_s, checkpoint_cost_s, restart_cost_s,
                          expected_failures};
  w.expected_wallclock_at_optimum =
      expected_wallclock(in, w.x_star >= 1.0 ? w.x_star : 1.0);
  // d2 E(Tw)/dx2 = Te*E(Y)/x^3 > 0 whenever Te*E(Y) > 0.
  w.second_order_positive = work_s * expected_failures > 0.0;
  return w;
}

/// Corollary 1: Young's interval sqrt(2*C*Tf) derived from Formula (3) under
/// the Poisson approximation E(Y) = Te/Tf. Returns the Formula-3 interval
/// Te/x*; callers can compare it against sqrt(2*C*Tf).
inline double corollary1_interval(double work_s, double checkpoint_cost_s,
                                  double mtbf_s) {
  if (mtbf_s <= 0.0) {
    throw std::invalid_argument("corollary1_interval: MTBF must be > 0");
  }
  const double expected_failures = work_s / mtbf_s;  // Poisson approximation
  const double x =
      optimal_interval_count(work_s, checkpoint_cost_s, expected_failures);
  if (x <= 0.0) {
    throw std::invalid_argument("corollary1_interval: degenerate inputs");
  }
  return work_s / x;
}

/// Theorem 2 step: given the remaining work Tr(k) at the k-th checkpoint and
/// the optimal count X* computed there, returns the remaining work at the
/// (k+1)-st checkpoint Tr(k+1) = Tr(k) * (X*-1)/X* and the count X(*)
/// recomputed there under *unchanged* MNOF scaling
/// (E_{k+1} = E_k * Tr(k+1)/Tr(k)). Theorem 2 asserts X(*) == X* - 1.
struct Theorem2Step {
  double remaining_next = 0.0;
  double x_next = 0.0;      ///< recomputed optimal count at the next position
  double x_expected = 0.0;  ///< X* - 1
};

inline Theorem2Step theorem2_step(double remaining_work_s,
                                  double expected_failures,
                                  double checkpoint_cost_s) {
  Theorem2Step step;
  const double x_star = optimal_interval_count(
      remaining_work_s, checkpoint_cost_s, expected_failures);
  if (x_star <= 1.0) {
    // Fewer than two intervals: there is no "next" checkpoint position.
    return step;
  }
  step.remaining_next = remaining_work_s * (x_star - 1.0) / x_star;
  const double e_next =
      expected_failures * step.remaining_next / remaining_work_s;
  step.x_next = optimal_interval_count(step.remaining_next,
                                       checkpoint_cost_s, e_next);
  step.x_expected = x_star - 1.0;
  return step;
}

}  // namespace cloudcr::core
