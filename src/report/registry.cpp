#include "report/registry.hpp"

#include <algorithm>
#include <stdexcept>

namespace cloudcr::report {

MetricValue metric(std::string name, double value, double paper,
                   double tolerance_hint) {
  MetricValue m;
  m.name = std::move(name);
  m.value = value;
  m.paper = paper;
  m.tolerance_hint = tolerance_hint;
  return m;
}

MetricValue metric(std::string name, double value, double tolerance_hint) {
  MetricValue m;
  m.name = std::move(name);
  m.value = value;
  m.tolerance_hint = tolerance_hint;
  return m;
}

ExperimentRegistry::ExperimentRegistry() {
  register_trace_experiments(entries_);
  register_storage_experiments(entries_);
  register_sim_experiments(entries_);
  register_sched_experiments(entries_);
  register_ablation_experiments(entries_);
  // Paper order for every consumer (reports, docs, --list).
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Experiment& a, const Experiment& b) {
                     return a.id < b.id;
                   });
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0 && entries_[i - 1].id == entries_[i].id) {
      throw std::logic_error("duplicate experiment id: " + entries_[i].id);
    }
    if (!entries_[i].specs.empty() && !entries_[i].traces.empty()) {
      throw std::logic_error("experiment " + entries_[i].id +
                             " both replays specs and reads raw traces");
    }
  }
}

const ExperimentRegistry& ExperimentRegistry::instance() {
  static const ExperimentRegistry registry;
  return registry;
}

const Experiment* ExperimentRegistry::find(const std::string& id) const {
  for (const auto& e : entries_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

std::vector<std::string> ExperimentRegistry::ids() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.id);
  return out;
}

}  // namespace cloudcr::report
