#pragma once

/// \file workload_predictor.hpp
/// \brief Task workload (Te) prediction, as performed by the paper's job
/// parser before scheduling: the `length=` scenario key.
///
/// The checkpoint planner consumes a *predicted* productive length; the
/// paper names two practical sources — polynomial regression on the task's
/// input parameters [22] and estimation from historical runs of the same
/// service [25]. Both are provided, plus exact/biased/noisy oracles for
/// ablation. Formula (3) is remarkably tolerant of misprediction because the
/// optimal interval scales with sqrt(Te): a 2x length error moves the
/// interval by only ~41% (see the abl02 experiment).

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "predict/polynomial.hpp"
#include "trace/records.hpp"

namespace cloudcr::predict {

/// The length model named by a `length=` value:
///
///   exact            the task's true Te (the default everywhere)
///   bias:<f>         Te * f, f finite and > 0 (systematic misprediction)
///   noise:<sigma>    Te * exp(sigma * z), sigma finite and >= 0, where z is
///                    a standard normal drawn from (seed, job_id,
///                    index_in_job) alone — the same task gets the same
///                    prediction at every call, in every instance
///   regression       degree-2 polynomial in the task's input size, fitted
///                    on the estimation view [22]
///   history          mean observed length of the task's priority class
///                    (global mean, then 600 s, as fallbacks) [25]
///
/// A plain value: parse() it, observe() the estimation view's tasks when
/// learns(), finalize() once, then predict() is pure.
class LengthModel {
 public:
  enum class Kind : std::uint8_t {
    kExact,
    kBias,
    kNoise,
    kRegression,
    kHistory
  };

  /// The only regression degree in use.
  static constexpr std::size_t kRegressionDegree = 2;
  /// history's prediction before it has observed anything.
  static constexpr double kHistoryDefaultS = 600.0;

  LengthModel() = default;  ///< exact

  /// Parses a `length=` value; `seed` keys the noise draws (a run passes its
  /// sim_seed). Throws std::invalid_argument on an unknown kind or an
  /// out-of-domain argument.
  static LengthModel parse(const std::string& text, std::uint64_t seed = 0);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool exact() const noexcept { return kind_ == Kind::kExact; }

  /// True for the kinds that train on the estimation view (regression,
  /// history).
  [[nodiscard]] bool learns() const noexcept {
    return kind_ == Kind::kRegression || kind_ == Kind::kHistory;
  }

  /// One estimation-view task; a no-op unless learns().
  void observe(const trace::TaskRecord& task);

  /// Ends training: fits the regression (throwing std::invalid_argument on
  /// fewer than three observations or a singular fit) and drops its
  /// training rows. A no-op for every other kind.
  void finalize();

  /// Predicted Te (s). Pure; a regression must be finalized first.
  [[nodiscard]] double predict(const trace::TaskRecord& task) const;

 private:
  struct Running {
    double mean = 0.0;
    std::size_t n = 0;
    void add(double x) {
      ++n;
      mean += (x - mean) / static_cast<double>(n);
    }
  };

  Kind kind_ = Kind::kExact;
  double arg_ = 1.0;  ///< bias factor or noise sigma
  std::uint64_t seed_ = 0;
  std::vector<double> inputs_;   ///< regression training rows
  std::vector<double> lengths_;  ///< (released by finalize)
  std::optional<PolynomialRegression> fit_;
  std::map<int, Running> by_priority_;  ///< history
  Running global_;
};

}  // namespace cloudcr::predict
