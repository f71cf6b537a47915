#include "sched/policies.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

namespace cloudcr::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class FcfsScheduler final : public SchedulerPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "fcfs"; }
  [[nodiscard]] bool pass_through() const noexcept override { return true; }

  void decide(const ResourceView&, const std::vector<PendingJob>& queue,
              const std::vector<RunningJob>&, Decision& out) const override {
    // Only reachable when driven directly (unit tests, benchmarks): the
    // Simulation short-circuits pass-through policies before decide().
    for (std::uint32_t i = 0; i < queue.size(); ++i) out.release.push_back(i);
  }
};

/// EASY backfill. One reservation — for the queue head — derived fresh on
/// every call from the running set's estimated completions.
class EasyBackfill final : public SchedulerPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "backfill:easy"; }

  void decide(const ResourceView& view, const std::vector<PendingJob>& queue,
              const std::vector<RunningJob>& running,
              Decision& out) const override {
    double avail = view.total_available_mb;
    std::uint32_t i = 0;
    // Head-of-queue releases in strict arrival order while they fit.
    while (i < queue.size() && queue[i].demand_mb <= avail) {
      out.release.push_back(i);
      avail -= queue[i].demand_mb;
      ++i;
    }
    if (i >= queue.size()) return;

    // The head is blocked: find its shadow time — the earliest estimated
    // completion instant at which enough memory has drained back for it.
    // Estimates already past their end (job ran long) count as freeing
    // "now": they cannot push the shadow further out.
    const PendingJob& head = queue[i];
    std::vector<std::pair<double, double>> ends;  // (est_end, demand)
    ends.reserve(running.size());
    for (const RunningJob& r : running) {
      ends.emplace_back(std::max(r.est_end_s, view.now_s), r.demand_mb);
    }
    std::sort(ends.begin(), ends.end());

    double shadow = kInf;
    double freed = 0.0;
    for (const auto& [end_s, demand] : ends) {
      freed += demand;
      if (avail + freed >= head.demand_mb) {
        shadow = end_s;
        break;
      }
    }
    // Extra: memory at the shadow instant beyond what the head reserves.
    // Backfill that stays within the extra cannot delay the head even if
    // it outlives the shadow.
    double extra =
        std::isfinite(shadow) ? avail + freed - head.demand_mb : kInf;

    for (std::uint32_t j = i + 1; j < queue.size(); ++j) {
      const PendingJob& cand = queue[j];
      if (cand.demand_mb > avail) continue;
      const bool ends_before_shadow =
          view.now_s + cand.estimate_s <= shadow;
      if (ends_before_shadow || cand.demand_mb <= extra) {
        out.release.push_back(j);
        avail -= cand.demand_mb;
        if (!ends_before_shadow) extra -= cand.demand_mb;
      }
    }
    if (std::isfinite(shadow) && shadow > view.now_s) out.wake_at_s = shadow;
  }
};

/// Piecewise-constant availability profile over estimated completions and
/// reservations. avail(t) = base + sum of deltas at instants <= t, summed in
/// insertion order.
///
/// The profile keeps avail at each distinct event instant, sorted by
/// instant. Appending an event at t adds its delta last to the sum at every
/// instant >= t, which is the same float as summing again in insertion
/// order, and a new instant's sum is taken once over the events. So add() is
/// linear in the profile size and earliest_fit() scans each candidate window
/// once, where evaluating every sum afresh per window made one decide()
/// cubic.
class Profile {
 public:
  Profile(double base, double now) : base_(base), now_(now) {}

  void add(double t, double delta) {
    events_.emplace_back(t, delta);
    auto it = std::lower_bound(
        steps_.begin(), steps_.end(), t,
        [](const Step& s, double x) { return s.when < x; });
    if (it == steps_.end() || it->when != t) {
      double v = base_;  // the new instant's sum, this delta included
      for (const auto& [when, d] : events_) {
        if (when <= t) v += d;
      }
      it = std::next(steps_.insert(it, Step{t, v}));
    }
    for (; it != steps_.end(); ++it) it->avail += delta;
  }

  /// Earliest start >= now at which `demand` fits for `len` seconds: the
  /// minimum availability over [start, start + len) is >= demand.
  /// Candidates are now and every later event instant.
  [[nodiscard]] double earliest_fit(double demand, double len) const {
    const auto later = std::upper_bound(
        steps_.begin(), steps_.end(), now_,
        [](double x, const Step& s) { return x < s.when; });
    const double at_now =
        later == steps_.begin() ? base_ : std::prev(later)->avail;
    if (fits(later, now_, at_now, demand, len)) return now_;
    for (auto it = later; it != steps_.end(); ++it) {
      if (fits(std::next(it), it->when, it->avail, demand, len)) {
        return it->when;
      }
    }
    return kInf;
  }

 private:
  struct Step {
    double when;
    double avail;  ///< avail(when)
  };

  /// Whether `demand` fits over [start, start + len), given avail(start)
  /// and the first step after start. As a minimum taken with std::min from
  /// avail(start) on: a NaN start fails, and NaN steps inside are skipped.
  [[nodiscard]] bool fits(std::vector<Step>::const_iterator next, double start,
                          double at_start, double demand, double len) const {
    if (!(at_start >= demand)) return false;
    const double end = start + len;
    for (; next != steps_.end() && next->when < end; ++next) {
      if (next->avail < demand) return false;
    }
    return true;
  }

  double base_;
  double now_;
  std::vector<std::pair<double, double>> events_;  ///< insertion order
  std::vector<Step> steps_;                        ///< ascending instants
};

/// Conservative backfill: every queued job, not just the head, holds a
/// reservation; a job is released only at an instant that delays none of
/// the reservations made for jobs ahead of it.
class ConservativeBackfill final : public SchedulerPolicy {
 public:
  [[nodiscard]] std::string name() const override {
    return "backfill:conservative";
  }

  void decide(const ResourceView& view, const std::vector<PendingJob>& queue,
              const std::vector<RunningJob>& running,
              Decision& out) const override {
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
      // start == inf: the profile never fits this job (stale estimates);
      // leave it queued with no reservation — completions re-trigger us.
    }
    if (std::isfinite(wake) && wake > view.now_s) out.wake_at_s = wake;
  }
};

/// Priority preemption: arrival-order release like FCFS, but a job whose
/// demand exceeds the free memory evicts strictly-lower-priority running
/// jobs to make room (lowest priority first; latest-released first among
/// equals, preserving the oldest work).
class PreemptScheduler final : public SchedulerPolicy {
 public:
  explicit PreemptScheduler(PreemptMode mode) : mode_(mode) {}

  [[nodiscard]] std::string name() const override {
    return mode_ == PreemptMode::kCheckpointRequeue ? "preempt:ckpt"
                                                    : "preempt:requeue";
  }
  [[nodiscard]] PreemptMode preempt_mode() const noexcept override {
    return mode_;
  }

  void decide(const ResourceView& view, const std::vector<PendingJob>& queue,
              const std::vector<RunningJob>& running,
              Decision& out) const override {
    double avail = view.total_available_mb;
    std::vector<bool> evicted(running.size(), false);
    for (std::uint32_t i = 0; i < queue.size(); ++i) {
      const PendingJob& job = queue[i];
      while (job.demand_mb > avail) {
        const std::uint32_t victim = pick_victim(running, evicted,
                                                 job.priority);
        if (victim == kNoVictim) break;
        evicted[victim] = true;
        out.evict.push_back(victim);
        avail += running[victim].demand_mb;
      }
      // Release regardless of fit: like the paper's engine, tasks that do
      // not fit simply wait in the engine's pending queue.
      out.release.push_back(i);
      avail -= job.demand_mb;
    }
  }

 private:
  static constexpr std::uint32_t kNoVictim = 0xffffffffu;

  static std::uint32_t pick_victim(const std::vector<RunningJob>& running,
                                   const std::vector<bool>& evicted,
                                   int min_priority) {
    std::uint32_t best = kNoVictim;
    for (std::uint32_t r = 0; r < running.size(); ++r) {
      if (evicted[r] || running[r].priority >= min_priority) continue;
      if (best == kNoVictim || running[r].priority < running[best].priority ||
          (running[r].priority == running[best].priority && r > best)) {
        best = r;
      }
    }
    return best;
  }

  PreemptMode mode_;
};

}  // namespace

SchedulerPtr make_fcfs() { return std::make_unique<FcfsScheduler>(); }

SchedulerPtr make_easy_backfill() { return std::make_unique<EasyBackfill>(); }

SchedulerPtr make_conservative_backfill() {
  return std::make_unique<ConservativeBackfill>();
}

SchedulerPtr make_preempt(PreemptMode mode) {
  return std::make_unique<PreemptScheduler>(mode);
}

}  // namespace cloudcr::sched
