#pragma once

/// \file backfill_oracle.hpp
/// \brief The direct, cubic statement of conservative backfill: the test
/// oracle scheduler_test.cpp checks the library's quadratic profile against.
/// Header-only, because the test build compiles only *_test.cpp files.
///
/// Profile::window_min calls at() — a scan of every profile event — once per
/// event in the window, and earliest_fit calls window_min once per candidate
/// instant. The library evaluates at() once per distinct instant instead;
/// its decisions must equal these bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sched/policy.hpp"

namespace cloudcr::sched::oracle {

/// Piecewise-constant availability profile over estimated completions and
/// reservations. avail(t) = base + sum of deltas at instants <= t.
class Profile {
 public:
  Profile(double base, double now) : base_(base), now_(now) {}

  void add(double t, double delta) { events_.emplace_back(t, delta); }

  [[nodiscard]] double at(double t) const {
    double v = base_;
    for (const auto& [when, delta] : events_) {
      if (when <= t) v += delta;
    }
    return v;
  }

  /// Minimum availability over the half-open window [start, start + len).
  [[nodiscard]] double window_min(double start, double len) const {
    double lo = at(start);
    const double end = start + len;
    for (const auto& [when, delta] : events_) {
      if (when > start && when < end) lo = std::min(lo, at(when));
    }
    return lo;
  }

  /// Earliest start >= now at which `demand` fits for `len` seconds.
  [[nodiscard]] double earliest_fit(double demand, double len) const {
    if (window_min(now_, len) >= demand) return now_;
    std::vector<double> candidates;
    candidates.reserve(events_.size());
    for (const auto& [when, delta] : events_) {
      if (when > now_) candidates.push_back(when);
    }
    std::sort(candidates.begin(), candidates.end());
    for (const double t : candidates) {
      if (window_min(t, len) >= demand) return t;
    }
    return std::numeric_limits<double>::infinity();
  }

 private:
  double base_;
  double now_;
  std::vector<std::pair<double, double>> events_;
};

/// Conservative backfill's decide() over the oracle profile.
inline void conservative_decide(const ResourceView& view,
                                const std::vector<PendingJob>& queue,
                                const std::vector<RunningJob>& running,
                                Decision& out) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Profile profile(view.total_available_mb, view.now_s);
  for (const RunningJob& r : running) {
    profile.add(std::max(r.est_end_s, view.now_s), r.demand_mb);
  }
  double wake = kInf;
  for (std::uint32_t i = 0; i < queue.size(); ++i) {
    const PendingJob& job = queue[i];
    const double start = profile.earliest_fit(job.demand_mb, job.estimate_s);
    if (start <= view.now_s) {
      out.release.push_back(i);
      profile.add(view.now_s, -job.demand_mb);
      profile.add(view.now_s + job.estimate_s, job.demand_mb);
    } else if (std::isfinite(start)) {
      profile.add(start, -job.demand_mb);
      profile.add(start + job.estimate_s, job.demand_mb);
      wake = std::min(wake, start);
    }
  }
  if (std::isfinite(wake) && wake > view.now_s) out.wake_at_s = wake;
}

}  // namespace cloudcr::sched::oracle
