#include "trace/records.hpp"

#include <algorithm>
#include <limits>

namespace cloudcr::trace {

const char* structure_name(JobStructure s) noexcept {
  return s == JobStructure::kSequentialTasks ? "ST" : "BoT";
}

std::size_t TaskRecord::failures_within(double active_horizon) const {
  const auto it = std::upper_bound(failure_dates.begin(), failure_dates.end(),
                                   active_horizon);
  return static_cast<std::size_t>(it - failure_dates.begin());
}

std::vector<double> TaskRecord::uninterrupted_intervals(
    double active_horizon) const {
  std::vector<double> intervals;
  double prev = 0.0;
  for (double date : failure_dates) {
    if (date > active_horizon) break;
    intervals.push_back(date - prev);
    prev = date;
  }
  if (active_horizon > prev) {
    intervals.push_back(active_horizon - prev);  // trailing censored interval
  }
  return intervals;
}

double JobRecord::total_length() const {
  double acc = 0.0;
  for (const auto& t : tasks) acc += t.length_s;
  return acc;
}

double JobRecord::critical_path() const {
  if (structure == JobStructure::kSequentialTasks) return total_length();
  double longest = 0.0;
  for (const auto& t : tasks) longest = std::max(longest, t.length_s);
  return longest;
}

double JobRecord::max_task_memory() const {
  double largest = 0.0;
  for (const auto& t : tasks) largest = std::max(largest, t.memory_mb);
  return largest;
}

double JobRecord::total_memory() const {
  double acc = 0.0;
  for (const auto& t : tasks) acc += t.memory_mb;
  return acc;
}

std::size_t JobRecord::failed_task_count() const {
  std::size_t n = 0;
  for (const auto& t : tasks) {
    if (t.failures_within(t.length_s) > 0) ++n;
  }
  return n;
}

bool JobRecord::within_length(double limit_s) const {
  if (limit_s == std::numeric_limits<double>::infinity()) return true;
  return std::all_of(
      tasks.begin(), tasks.end(),
      [limit_s](const TaskRecord& task) { return task.length_s <= limit_s; });
}

std::size_t Trace::task_count() const {
  std::size_t n = 0;
  for (const auto& j : jobs) n += j.tasks.size();
  return n;
}

Trace restrict_length(const Trace& trace, double limit_s) {
  Trace out;
  out.horizon_s = trace.horizon_s;
  for (const auto& job : trace.jobs) {
    if (job.within_length(limit_s)) out.jobs.push_back(job);
  }
  return out;
}

}  // namespace cloudcr::trace
