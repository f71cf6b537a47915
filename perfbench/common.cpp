#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <streambuf>
#include <thread>

#include "api/artifact_io.hpp"

namespace perfbench {

namespace {

/// FNV-1a 64 over everything written to it; nothing is stored.
class DigestBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      const char c = traits_type::to_char_type(ch);
      xsputn(&c, 1);
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      h_ = (h_ ^ static_cast<unsigned char>(s[i])) * 1099511628211ull;
    }
    return n;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

void zero_host_fields(api::RunArtifact& artifact) {
  artifact.wall_time_s = 0.0;
  artifact.estimation_wall_s = 0.0;
  artifact.peak_rss_mb = 0.0;
}

}  // namespace

std::uint64_t artifact_digest(const api::RunArtifact& artifact) {
  api::RunArtifact summary;
  summary.spec = artifact.spec;
  summary.trace_jobs = artifact.trace_jobs;
  summary.trace_tasks = artifact.trace_tasks;
  summary.result.incomplete_jobs = artifact.result.incomplete_jobs;
  summary.result.total_checkpoints = artifact.result.total_checkpoints;
  summary.result.total_failures = artifact.result.total_failures;
  summary.result.total_unschedulable = artifact.result.total_unschedulable;
  summary.result.events_dispatched = artifact.result.events_dispatched;
  summary.result.makespan_s = artifact.result.makespan_s;
  summary.result.total_sched_wait_s = artifact.result.total_sched_wait_s;
  summary.result.backfilled_jobs = artifact.result.backfilled_jobs;
  summary.result.preempted_tasks = artifact.result.preempted_tasks;
  summary.result.probes = artifact.result.probes;
  DigestBuf buf;
  std::ostream os(&buf);
  api::write_artifact_json(os, summary, /*include_outcomes=*/false);
  // The summary above holds no outcome rows, so its average/lowest WPR
  // read 0; the rows themselves follow, field by field.
  const auto put = [&os](const auto& v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(artifact.result.outcomes.size());
  for (const cloudcr::metrics::JobOutcome& o : artifact.result.outcomes) {
    put(o.job_id);
    put(o.bag_of_tasks);
    put(o.priority);
    put(o.workload_s);
    put(o.wallclock_s);
    put(o.task_wallclock_s);
    put(o.queue_s);
    put(o.checkpoint_s);
    put(o.rollback_s);
    put(o.restart_s);
    put(o.checkpoints);
    put(o.failures);
    put(o.max_task_length_s);
    put(o.unschedulable_tasks);
    put(o.sched_wait_s);
    put(o.backfilled);
  }
  os.flush();
  return buf.value();
}

std::string canonical_json(api::RunArtifact artifact) {
  zero_host_fields(artifact);
  std::ostringstream os;
  api::write_artifact_json(os, artifact, /*include_outcomes=*/true);
  return os.str();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[idx];
}

void Result::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void Result::set_layer(const std::string& name, double value,
                       const std::string& unit, std::size_t samples) {
  for (Metric& m : layers) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      m.samples = samples;
      return;
    }
  }
  layers.push_back({name, value, unit, samples});
}

void init_layer_metrics(Result& result) {
  // The per-layer list of BENCHMARK.json, in its order. run.py checks the
  // two agree.
  static const char* const kNames[][2] = {
      {"api.run_s", "s"},
      {"api.estimation_s", "s"},
      {"api.trace_reads", "count"},
      {"api.rows_read", "count"},
      {"ingest.busy_s", "s"},
      {"ingest.rows", "count"},
      {"ingest.skipped_rows", "count"},
      {"ingest.gen_s", "s"},
      {"estimate.observe_s", "s"},
      {"estimate.finalize_s", "s"},
      {"estimate.tasks_observed", "count"},
      {"estimate.queries", "count"},
      {"core.next_interval_calls", "count"},
      {"core.next_interval_s", "s"},
      {"sched.decide_calls", "count"},
      {"sched.decide_s", "s"},
      {"sched.backfilled_jobs", "count"},
      {"sched.preempted_tasks", "count"},
      {"sim.self_s", "s"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.checkpoints", "count"},
      {"sim.failures", "count"},
      {"batch.busy_s", "s"},
      {"batch.efficiency", "ratio"},
      {"batch.critical_path_s", "s"},
      {"report.entry_s.fig04", "s"},
      {"report.entry_s.fig05", "s"},
      {"report.entry_s.fig07", "s"},
      {"report.entry_s.fig08", "s"},
      {"report.entry_s.fig09", "s"},
      {"report.entry_s.fig10", "s"},
      {"report.entry_s.fig11", "s"},
      {"report.entry_s.fig12", "s"},
      {"report.entry_s.fig13", "s"},
      {"report.entry_s.fig14", "s"},
      {"report.entry_s.sched01", "s"},
      {"report.entry_s.sched02", "s"},
      {"report.entry_s.tab02", "s"},
      {"report.entry_s.tab03", "s"},
      {"report.entry_s.tab04", "s"},
      {"report.entry_s.tab05", "s"},
      {"report.entry_s.tab06", "s"},
      {"report.entry_s.tab07", "s"},
      {"report.gate_failures", "count"},
      {"metrics.serialize_s", "s"},
      {"metrics.bytes", "bytes"},
      {"svc.parse_s", "s"},
      {"svc.hit_s", "s"},
      {"svc.miss_s", "s"},
      {"svc.whatif_s", "s"},
      {"svc.hits", "count"},
      {"svc.misses", "count"},
      {"svc.captures", "count"},
      {"svc.resumes", "count"},
      {"svc.evictions", "count"},
      {"svc.hit_ratio", "ratio"},
      {"svc.snapshot_bytes", "bytes"},
      {"svc.errors", "count"},
      {"trace.overhead_ratio", "ratio"},
      {"host.nproc", "count"},
  };
  result.layers.clear();
  for (const auto& [name, unit] : kNames) {
    result.layers.push_back({name, 0.0, unit, 0});
  }
  result.set_layer("host.nproc",
                   std::max(1u, std::thread::hardware_concurrency()), "count");
}

void RunTotals::add(const api::RunArtifact& a) {
  run_s += a.estimation_wall_s + a.wall_time_s;
  estimation_s += a.estimation_wall_s;
  replay_s += a.wall_time_s;
  tasks += static_cast<double>(a.trace_tasks);
  trace_reads += static_cast<double>(a.trace_reads);
  rows_read += static_cast<double>(a.rows_read);
  events += static_cast<double>(a.result.events_dispatched);
  checkpoints += static_cast<double>(a.result.total_checkpoints);
  failures += static_cast<double>(a.result.total_failures);
  backfilled += static_cast<double>(a.result.backfilled_jobs);
  preempted += static_cast<double>(a.result.preempted_tasks);
}

RunTotals median_of(const std::vector<RunTotals>& ops) {
  static constexpr double RunTotals::*kFields[] = {
      &RunTotals::run_s,       &RunTotals::estimation_s, &RunTotals::replay_s,
      &RunTotals::tasks,       &RunTotals::trace_reads,  &RunTotals::rows_read,
      &RunTotals::events,      &RunTotals::checkpoints,  &RunTotals::failures,
      &RunTotals::backfilled,  &RunTotals::preempted};
  RunTotals out;
  for (const auto field : kFields) {
    std::vector<double> v;
    for (const RunTotals& op : ops) v.push_back(op.*field);
    out.*field = median(std::move(v));
  }
  return out;
}

layers::Tally median_of(const std::vector<layers::Tally>& ops) {
  layers::Tally out;
  for (std::size_t i = 0; i < layers::kSlots; ++i) {
    std::vector<double> v;
    for (const layers::Tally& op : ops) v.push_back(static_cast<double>(op.v[i]));
    out.v[i] = static_cast<std::uint64_t>(median(std::move(v)));
  }
  return out;
}

void set_run_layers(Result& r, const RunTotals& t, const layers::Tally& tally,
                    std::size_t n) {
  using layers::ns_to_s;
  const auto count = [&tally](layers::Slot s) {
    return static_cast<double>(tally[s]);
  };
  const double interval_s = ns_to_s(tally[layers::kIntervalNs]);
  const double decide_s = ns_to_s(tally[layers::kDecideNs]);
  const double sim_self = t.replay_s - interval_s - decide_s;
  r.set_layer("api.run_s", t.run_s, "s", n);
  r.set_layer("api.estimation_s", t.estimation_s, "s", n);
  r.set_layer("api.trace_reads", t.trace_reads, "count", n);
  r.set_layer("api.rows_read", t.rows_read, "count", n);
  r.set_layer("ingest.busy_s", ns_to_s(tally[layers::kIngestNs]), "s", n);
  r.set_layer("ingest.rows", count(layers::kIngestRows), "count", n);
  r.set_layer("ingest.skipped_rows", count(layers::kIngestSkipped), "count", n);
  r.set_layer("estimate.observe_s", ns_to_s(tally[layers::kObserveNs]), "s", n);
  r.set_layer("estimate.finalize_s", ns_to_s(tally[layers::kFinalizeNs]), "s", n);
  r.set_layer("estimate.tasks_observed", count(layers::kTasksObserved), "count", n);
  r.set_layer("estimate.queries", count(layers::kQueries), "count", n);
  r.set_layer("core.next_interval_calls", count(layers::kIntervalCalls), "count", n);
  r.set_layer("core.next_interval_s", interval_s, "s", n);
  r.set_layer("sched.decide_calls", count(layers::kDecideCalls), "count", n);
  r.set_layer("sched.decide_s", decide_s, "s", n);
  r.set_layer("sched.backfilled_jobs", t.backfilled, "count", n);
  r.set_layer("sched.preempted_tasks", t.preempted, "count", n);
  r.set_layer("sim.self_s", sim_self, "s", n);
  r.set_layer("sim.events", t.events, "count", n);
  r.set_layer("sim.ns_per_event", t.events > 0 ? sim_self / t.events * 1e9 : 0.0,
              "ns", n);
  r.set_layer("sim.checkpoints", t.checkpoints, "count", n);
  r.set_layer("sim.failures", t.failures, "count", n);
}

std::string out_path(const std::string& file) {
  std::filesystem::create_directories(kOutDir);
  return (std::filesystem::path(kOutDir) / file).string();
}

}  // namespace perfbench
