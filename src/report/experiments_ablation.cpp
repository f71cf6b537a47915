// Ablation experiments: the design choices the reproduction makes (abl01)
// and the planner's tolerance of workload misprediction (abl02). Like
// sched01/sched02 these are repo extensions, so every metric is repo-only
// and gated purely against the checked-in expected values. Both run only
// when `repro_report --only` names them (Experiment::on_request).

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "metrics/report.hpp"
#include "report/registry.hpp"
#include "report/scenarios.hpp"

namespace cloudcr::report {

namespace {

/// A table of "<label> | avg WPR" rows under a banner, plus a "delta vs
/// exact" column when `base_wpr` (the exact-length run's WPR) is given.
void print_wpr_table(std::ostream& os, const std::string& banner,
                     const std::string& label,
                     const std::vector<std::pair<std::string, double>>& rows,
                     const double* base_wpr = nullptr) {
  metrics::print_banner(os, banner);
  std::vector<std::string> header = {label, "avg WPR"};
  if (base_wpr != nullptr) header.push_back("delta vs exact");
  metrics::Table table(header);
  for (const auto& [name, wpr] : rows) {
    std::vector<std::string> row = {name, metrics::fmt(wpr, 4)};
    if (base_wpr != nullptr) row.push_back(metrics::fmt(wpr - *base_wpr, 4));
    table.add_row(row);
  }
  table.print(os);
}

Experiment abl01_entry() {
  Experiment e;
  e.id = "abl01";
  e.title = "Design ablation: placement, device, adaptation, statistics";
  e.paper_ref = "extension (Sections 4.2-4.3)";
  e.paper_claim =
      "The design's choices each pay for themselves: Section 4.2.2's "
      "per-task storage selection, DM-NFS over a single NFS server, "
      "Algorithm 1's adaptation to priority changes, and Formula (3)'s "
      "robustness to group-estimated statistics.";
  e.model_notes =
      "Nine one-day replays: auto-select vs forced local vs forced shared "
      "placement; DM-NFS vs single NFS under forced shared placement; "
      "adaptive vs static controllers on the priority-changing day; "
      "Formula (3) and Young with group vs oracle statistics. Expected: "
      "group estimation hurts Young far more than Formula (3), and oracle "
      "inputs make them coincide. Repo-only metrics.";
  e.on_request = true;

  const auto make = [](const std::string& name, const std::string& policy,
                       const std::string& predictor,
                       sim::PlacementMode placement,
                       storage::DeviceKind shared_kind,
                       core::AdaptationMode mode =
                           core::AdaptationMode::kAdaptive,
                       bool priority_change = false) {
    auto spec =
        scenario(name, day_trace_spec(priority_change), policy, predictor);
    spec.placement = placement;
    spec.shared_device = shared_kind;
    spec.adaptation = mode;
    return spec;
  };
  const auto kAuto = sim::PlacementMode::kAutoSelect;
  const auto kLocal = sim::PlacementMode::kForceLocal;
  const auto kShared = sim::PlacementMode::kForceShared;
  const auto kDmNfs = storage::DeviceKind::kDmNfs;
  const auto kNfs = storage::DeviceKind::kSharedNfs;
  e.specs = {
      make("auto_dmnfs", "formula3", "grouped", kAuto, kDmNfs),
      make("local", "formula3", "grouped", kLocal, kDmNfs),
      make("shared_dmnfs", "formula3", "grouped", kShared, kDmNfs),
      make("shared_nfs", "formula3", "grouped", kShared, kNfs),
      make("adaptive_changing", "formula3", "grouped", kAuto, kDmNfs,
           core::AdaptationMode::kAdaptive, /*priority_change=*/true),
      make("static_changing", "formula3", "submission", kAuto, kDmNfs,
           core::AdaptationMode::kStatic, /*priority_change=*/true),
      make("young_grouped", "young", "grouped", kAuto, kDmNfs),
      make("f3_oracle", "formula3", "oracle", kAuto, kDmNfs),
      make("young_oracle", "young", "oracle", kAuto, kDmNfs),
  };

  e.evaluate = [](EntryContext& ctx) {
    std::map<std::string, double> wpr;
    std::vector<MetricValue> out;
    for (const auto& a : ctx.artifacts) {
      const double w = a.result.average_wpr();
      wpr[a.spec.name] = w;
      out.push_back(metric("avg_wpr_" + a.spec.name, w, 0.005));
    }
    ctx.human << "one-day traces: " << ctx.artifacts[0].trace_jobs << " / "
              << ctx.artifacts[4].trace_jobs << " sample jobs\n";
    print_wpr_table(ctx.human, "Ablation 1: storage placement", "placement",
                    {{"auto-select (Sec 4.2.2)", wpr.at("auto_dmnfs")},
                     {"forced local ramdisk", wpr.at("local")},
                     {"forced shared (DM-NFS)", wpr.at("shared_dmnfs")}});
    print_wpr_table(ctx.human, "Ablation 2: DM-NFS vs single NFS under load",
                    "shared device",
                    {{"DM-NFS (32 servers)", wpr.at("shared_dmnfs")},
                     {"single NFS server", wpr.at("shared_nfs")}});
    print_wpr_table(ctx.human, "Ablation 3: adaptation under priority changes",
                    "controller",
                    {{"adaptive (Algorithm 1)", wpr.at("adaptive_changing")},
                     {"static", wpr.at("static_changing")}});
    print_wpr_table(ctx.human, "Ablation 4: statistic robustness",
                    "policy x estimate",
                    {{"Formula (3) + group MNOF", wpr.at("auto_dmnfs")},
                     {"Young + group MTBF", wpr.at("young_grouped")},
                     {"Formula (3) + oracle", wpr.at("f3_oracle")},
                     {"Young + oracle", wpr.at("young_oracle")}});
    return out;
  };
  return e;
}

/// abl02's sweep: the `length=` value, its scenario/metric tag, and the
/// --verbose table it lands in (0 bias, 1 noise, 2 exact and the learners).
struct LengthPoint {
  const char* length;
  const char* tag;
  int table;
};
constexpr LengthPoint kLengthPoints[] = {
    {"exact", "exact", 2},           {"bias:0.25", "bias_0.25", 0},
    {"bias:0.5", "bias_0.5", 0},     {"bias:1", "bias_1", 0},
    {"bias:2", "bias_2", 0},         {"bias:4", "bias_4", 0},
    {"noise:0", "noise_0", 1},       {"noise:0.25", "noise_0.25", 1},
    {"noise:0.5", "noise_0.5", 1},   {"noise:1", "noise_1", 1},
    {"regression", "regression", 2}, {"history", "history", 2}};
constexpr const char* kLengthTables[] = {
    "systematic bias: planner sees factor * Te",
    "unbiased noise: Te * exp(sigma * N(0,1))",
    "real predictors (trained on history)"};

Experiment abl02_entry() {
  Experiment e;
  e.id = "abl02";
  e.title = "Workload-length misprediction: bias, noise, real predictors";
  e.paper_ref = "extension (Section 4.1 job parser)";
  e.paper_claim =
      "The job parser predicts Te before scheduling (polynomial regression "
      "on input parameters, or the history of the same service), and "
      "Formula (3) tolerates the error: x* scales with sqrt(Te), so a 2x "
      "length error moves the interval by only ~41%.";
  e.model_notes =
      "One-day Formula (3) replay swept over the length= key: exact, "
      "systematic bias (0.25x-4x), unbiased log-normal noise (sigma 0-1, a "
      "pure function of sim_seed and the task), and the two real "
      "predictors. Failure statistics and both predictors train on a "
      "separate history day (estimation=history), so training stays "
      "out-of-sample. Repo-only metrics.";
  e.on_request = true;

  api::TraceSpec history;
  history.seed = kTraceSeed + 999;
  history.horizon_s = kDayHorizon;
  history.arrival_rate = kArrivalRate;
  history.sample_job_filter = false;
  history.long_service_fraction = 0.0;
  const auto make = [&history](const std::string& tag,
                               const std::string& length) {
    auto spec = scenario("abl02_" + tag, day_trace_spec(), "formula3",
                         "grouped", api::EstimationSource::kHistory);
    spec.history = history;
    spec.length = length;
    return spec;
  };
  for (const auto& p : kLengthPoints) e.specs.push_back(make(p.tag, p.length));

  e.evaluate = [](EntryContext& ctx) {
    std::vector<MetricValue> out;
    std::vector<std::pair<std::string, double>> tables[3];
    for (std::size_t i = 0; i < ctx.artifacts.size(); ++i) {
      const LengthPoint& p = kLengthPoints[i];
      const double wpr = ctx.artifacts[i].result.average_wpr();
      out.push_back(metric(std::string("avg_wpr_") + p.tag, wpr, 0.005));
      tables[p.table].emplace_back(p.length, wpr);
    }
    const double exact = out[0].value;
    ctx.human << "one-day replay set: " << ctx.artifacts[0].trace_jobs
              << " jobs\n";
    for (int t = 0; t < 3; ++t) {
      print_wpr_table(ctx.human, kLengthTables[t], "length", tables[t],
                      &exact);
    }
    ctx.human << "expected: sqrt-damping keeps the WPR penalty small even at "
                 "4x bias\n";
    return out;
  };
  return e;
}

}  // namespace

void register_ablation_experiments(std::vector<Experiment>& out) {
  out.push_back(abl01_entry());
  out.push_back(abl02_entry());
}

}  // namespace cloudcr::report
