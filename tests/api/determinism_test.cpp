// Property: the JSON artifact of a ScenarioSpec is a pure function of the
// spec. Serial execution, a threaded batch, and a pooled-workspace rerun
// must produce byte-identical documents — across seeds, policies, and
// placements. This is what makes the paper's paired comparisons (and the
// CI perf baseline) trustworthy: no run can depend on thread schedule,
// buffer reuse, or which worker happened to replay it.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/batch.hpp"
#include "api/runner.hpp"
#include "metrics/export.hpp"
#include "obs/spec.hpp"
#include "obs/stats.hpp"

namespace cloudcr {
namespace {

std::vector<api::ScenarioSpec> grid(std::uint64_t seed) {
  std::vector<api::ScenarioSpec> specs;
  const struct {
    const char* policy;
    sim::PlacementMode placement;
  } points[] = {
      {"formula3", sim::PlacementMode::kAutoSelect},
      {"young", sim::PlacementMode::kForceShared},
      {"daly", sim::PlacementMode::kForceLocal},
      {"none", sim::PlacementMode::kAutoSelect},
  };
  for (const auto& p : points) {
    api::ScenarioSpec spec;
    spec.name = std::string("det_") + p.policy;
    spec.trace.seed = seed;
    spec.trace.horizon_s = 1800.0;
    spec.trace.arrival_rate = 0.08;
    spec.policy = p.policy;
    spec.placement = p.placement;
    spec.storage_noise = 0.05;  // exercise the RNG-reset path too
    specs.push_back(spec);
  }
  // Scheduling-stage points: a small cluster creates admission pressure so
  // backfill and preemption actually hold/evict jobs (on an uncontended
  // cluster every scheduler degenerates into fcfs and the property would
  // pin nothing).
  for (const char* sched :
       {"backfill:easy", "backfill:conservative", "preempt:requeue"}) {
    api::ScenarioSpec spec;
    spec.name = std::string("det_sched_") + sched;
    spec.trace.seed = seed;
    spec.trace.horizon_s = 1800.0;
    spec.trace.arrival_rate = 0.08;
    spec.policy = "formula3";
    spec.sched = sched;
    spec.cluster.hosts = 4;
    spec.cluster.vms_per_host = 2;
    specs.push_back(spec);
  }
  return specs;
}

/// Deterministic render of a batch: every field the engine computes except
/// host wall time.
std::string render(const std::vector<api::RunArtifact>& artifacts) {
  std::ostringstream os;
  for (const auto& a : artifacts) {
    os << a.spec.name << " jobs=" << a.trace_jobs << " tasks=" << a.trace_tasks
       << " events=" << a.result.events_dispatched
       << " makespan=" << metrics::json_double(a.result.makespan_s)
       << " incomplete=" << a.result.incomplete_jobs << "\n";
    for (const auto& outcome : a.result.outcomes) {
      metrics::write_outcome_json(os, outcome);
      os << "\n";
    }
  }
  return os.str();
}

class ExecutionModeDeterminism
    : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ExecutionModeDeterminism, SerialThreadedAndPooledAgreeByteForByte) {
  const auto specs = grid(GetParam());

  api::BatchOptions serial_opts;
  serial_opts.threads = 1;
  const std::string serial =
      render(api::BatchRunner(serial_opts).run(specs));

  api::BatchOptions threaded_opts;
  threaded_opts.threads = 4;
  const std::string threaded =
      render(api::BatchRunner(threaded_opts).run(specs));

  // Pooled rerun: one workspace replays every spec twice in sequence; only
  // the second pass is kept, so any state leaking across runs would show.
  sim::ReplayWorkspace workspace;
  api::RunHooks hooks;
  hooks.workspace = &workspace;
  std::vector<api::RunArtifact> pooled_artifacts;
  for (const auto& spec : specs) {
    (void)api::run_scenario(spec, hooks);
    pooled_artifacts.push_back(api::run_scenario(spec, hooks));
  }
  const std::string pooled = render(pooled_artifacts);

  EXPECT_EQ(serial, threaded)
      << "threaded batch diverged from serial execution";
  EXPECT_EQ(serial, pooled)
      << "pooled-workspace rerun diverged from serial execution";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutionModeDeterminism,
                         ::testing::Values(11u, 12u, 13u));

// Observability grid point: instrumentation must be invisible to results,
// and the merged counter registry must itself be execution-mode
// deterministic — per-run tallies flush order-independent sums/maxes, so
// how BatchRunner spread the specs across workers cannot show. Timers are
// host time and stay out of the compared rendering.
TEST(ObservabilityDeterminism, ProbesAndStatsNeverChangeResults) {
  auto specs = grid(11u);
  const api::BatchOptions opts;
  const std::string plain = render(api::BatchRunner(opts).run(specs));
  for (auto& spec : specs) {
    spec.obs.stats = true;
    spec.obs.probe_interval_s = 300.0;
  }
  auto artifacts = api::BatchRunner(opts).run(specs);
  for (auto& a : artifacts) {
    // render() ignores probes; drop them so the comparison pins that every
    // *other* field is byte-identical under instrumentation.
    a.result.probes.clear();
    a.spec.obs = obs::ObsSpec{};
  }
  EXPECT_EQ(plain, render(artifacts))
      << "collecting stats/probes changed simulation results";
}

TEST(ObservabilityDeterminism, MergedRegistryIsThreadCountIndependent) {
  auto specs = grid(12u);
  for (auto& spec : specs) spec.obs.stats = true;

  const auto registry_text = [&specs](std::size_t threads) {
    obs::reset_stats();
    api::BatchOptions opts;
    opts.threads = threads;
    (void)api::BatchRunner(opts).run(specs);
    std::ostringstream os;
    obs::write_stats_text(os, /*include_timers=*/false);
    return os.str();
  };

  const std::string serial = registry_text(1);
  const std::string threaded = registry_text(4);
  std::map<std::string, std::uint64_t> merged;
  for (const auto& stat : obs::stats_snapshot()) merged[stat.name] = stat.value;
  obs::reset_stats();
  EXPECT_EQ(serial, threaded)
      << "merged counter registry depends on the worker partition";
  // The replay's tallies run in every build, so the comparison above is
  // between real counts, not two all-zero registries.
  for (const char* name : {"sim.events_popped", "sim.placement_scans",
                           "sim.ckpt_runs_compressed"}) {
    EXPECT_GT(merged[name], 0u) << name;
  }
}

// A trace request writes a Chrome trace-event file holding the simulated
// task phases and the host-clock replay phases.
TEST(ObservabilityTrace, RunScenarioWritesSimAndHostSpans) {
  api::ScenarioSpec spec = grid(13u).front();
  spec.obs = obs::parse_obs("trace:" + testing::TempDir() + "/{name}.json");
  const std::string path = testing::TempDir() + "/" + spec.name + ".json";
  std::remove(path.c_str());  // a leftover from an earlier run proves nothing
  (void)api::run_scenario(spec);

  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << "no trace file for " << spec.name;
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string json = buffer.str();
  for (const std::string event :
       {R"({"name":"run","cat":"task","ph":"X","pid":2,)",
        R"({"name":"ckpt","cat":"task","ph":"X","pid":2,)",
        R"({"name":"admission","cat":"phase","ph":"X","pid":1,)",
        R"({"name":"drain","cat":"phase","ph":"X","pid":1,)"}) {
    EXPECT_NE(json.find(event), std::string::npos) << "missing " << event;
  }
}

}  // namespace
}  // namespace cloudcr
