#include "predict/workload_predictor.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/rng.hpp"
#include "trace/csv.hpp"

namespace cloudcr::predict {

namespace {

/// The numeric argument of `bias:`/`noise:`: finite, and > 0 (or >= 0 when
/// `zero_ok`). Errors are std::invalid_argument, like every spec error.
double parse_arg(const std::string& what, const std::string& text,
                 bool zero_ok) {
  double v = 0.0;
  try {
    v = trace::csv::parse_double(what, text, 0);
  } catch (const std::runtime_error& e) {
    throw std::invalid_argument(e.what());
  }
  if (!std::isfinite(v) || v < 0.0 || (!zero_ok && v == 0.0)) {
    throw std::invalid_argument(what + " must be finite and " +
                                (zero_ok ? ">= 0" : "> 0") + ", got '" + text +
                                "'");
  }
  return v;
}

/// A standard normal that depends on (seed, job_id, index_in_job) alone:
/// the key hashes into a fresh generator's seed.
double task_normal(std::uint64_t seed, const trace::TaskRecord& task) {
  std::uint64_t state = seed;
  state = stats::splitmix64(state) ^ task.job_id;
  state = stats::splitmix64(state) ^ task.index_in_job;
  return stats::Rng(stats::splitmix64(state)).normal();
}

}  // namespace

LengthModel LengthModel::parse(const std::string& text, std::uint64_t seed) {
  const auto colon = text.find(':');
  const std::string name = text.substr(0, colon);
  const bool has_arg = colon != std::string::npos;
  const std::string arg = has_arg ? text.substr(colon + 1) : std::string();
  LengthModel model;
  model.seed_ = seed;
  if (name == "bias" || name == "noise") {
    if (!has_arg) {
      throw std::invalid_argument("length model '" + name +
                                  "' needs an argument, e.g. '" + name +
                                  (name == "bias" ? ":2'" : ":0.5'"));
    }
    const bool bias = name == "bias";
    model.kind_ = bias ? Kind::kBias : Kind::kNoise;
    model.arg_ = parse_arg(bias ? "bias factor" : "noise sigma", arg,
                           /*zero_ok=*/!bias);
    return model;
  }
  if (name == "exact") {
    model.kind_ = Kind::kExact;
  } else if (name == "regression") {
    model.kind_ = Kind::kRegression;
  } else if (name == "history") {
    model.kind_ = Kind::kHistory;
  } else {
    throw std::invalid_argument(
        "unknown length model '" + text +
        "' (want exact|bias:<f>|noise:<sigma>|regression|history)");
  }
  if (has_arg) {
    throw std::invalid_argument("length model '" + name +
                                "' takes no argument");
  }
  return model;
}

void LengthModel::observe(const trace::TaskRecord& task) {
  if (kind_ == Kind::kRegression) {
    inputs_.push_back(task.input_size);
    lengths_.push_back(task.length_s);
  } else if (kind_ == Kind::kHistory) {
    by_priority_[task.priority].add(task.length_s);
    global_.add(task.length_s);
  }
}

void LengthModel::finalize() {
  if (kind_ != Kind::kRegression) return;
  fit_.emplace(inputs_, lengths_, kRegressionDegree);
  inputs_ = {};
  lengths_ = {};
}

double LengthModel::predict(const trace::TaskRecord& task) const {
  switch (kind_) {
    case Kind::kExact:
      break;
    case Kind::kBias:
      return task.length_s * arg_;
    case Kind::kNoise:
      return task.length_s * std::exp(arg_ * task_normal(seed_, task));
    case Kind::kRegression:
      if (!fit_) {
        throw std::logic_error("LengthModel: regression predicts before "
                               "finalize()");
      }
      return fit_->predict(task.input_size);
    case Kind::kHistory: {
      const auto it = by_priority_.find(task.priority);
      if (it != by_priority_.end()) return it->second.mean;
      return global_.n > 0 ? global_.mean : kHistoryDefaultS;
    }
  }
  return task.length_s;
}

}  // namespace cloudcr::predict
