// The acceptance property for ingested workloads: a ScenarioSpec naming
// `trace.source=google:<fixture>` round-trips through serialization, runs
// under BatchRunner, and produces bit-identical SimResults to the
// equivalent pre-built in-memory trace::Trace supplied via RunHooks.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "api/batch.hpp"
#include "api/runner.hpp"
#include "api/scenario.hpp"
#include "ingest/google_source.hpp"
#include "ingest/registry.hpp"
#include "ingest/source.hpp"
#include "trace/generator.hpp"

namespace cloudcr::api {
namespace {

/// Doubles compared with EXPECT_EQ throughout: the guarantee under test is
/// bit-identity, not approximation.
void expect_same_result(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.incomplete_jobs, b.incomplete_jobs);
  EXPECT_EQ(a.total_checkpoints, b.total_checkpoints);
  EXPECT_EQ(a.total_failures, b.total_failures);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& oa = a.outcomes[i];
    const auto& ob = b.outcomes[i];
    EXPECT_EQ(oa.job_id, ob.job_id);
    EXPECT_EQ(oa.priority, ob.priority);
    EXPECT_EQ(oa.workload_s, ob.workload_s);
    EXPECT_EQ(oa.wallclock_s, ob.wallclock_s);
    EXPECT_EQ(oa.task_wallclock_s, ob.task_wallclock_s);
    EXPECT_EQ(oa.queue_s, ob.queue_s);
    EXPECT_EQ(oa.checkpoint_s, ob.checkpoint_s);
    EXPECT_EQ(oa.rollback_s, ob.rollback_s);
    EXPECT_EQ(oa.restart_s, ob.restart_s);
    EXPECT_EQ(oa.checkpoints, ob.checkpoints);
    EXPECT_EQ(oa.failures, ob.failures);
  }
}

std::string write_google_fixture(const std::string& name) {
  trace::GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.horizon_s = 3.0 * 3600.0;
  cfg.sample_job_filter = false;  // the spec applies the filter at replay
  cfg.workload.long_service_fraction = 0.0;
  const trace::Trace trace = trace::TraceGenerator(cfg).generate();

  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream os(path);
  ingest::write_task_events(os, trace);
  return path;
}

TEST(IngestedScenario, RoundTripsRunsUnderBatchAndMatchesInMemoryTrace) {
  const std::string path = write_google_fixture("runner_fixture.csv");

  ScenarioSpec spec;
  spec.name = "ingested_google";
  spec.trace.source = "google:" + path;
  spec.trace.sample_job_filter = true;
  spec.policy = "formula3";
  spec.predictor = "grouped";
  spec.placement = sim::PlacementMode::kForceShared;

  // 1. The spec (including the source) survives serialization exactly.
  const ScenarioSpec parsed = parse_scenario(serialize(spec));
  ASSERT_EQ(parsed, spec);
  ASSERT_EQ(parsed.trace.source, spec.trace.source);

  // 2. The equivalent in-memory trace, materialized through make_trace: the
  // hand-ingested log with the paper's sample-job filter applied.
  const trace::Trace raw =
      ingest::TraceSourceRegistry::instance().make(spec.trace.source)
          ->load()
          .trace;
  trace::Trace in_memory = make_trace(parsed.trace);
  const auto sample_jobs = std::count_if(
      raw.jobs.begin(), raw.jobs.end(),
      [](const trace::JobRecord& job) { return job.is_sample_job(); });
  ASSERT_EQ(in_memory.job_count(), static_cast<std::size_t>(sample_jobs));
  ASSERT_LT(in_memory.job_count(), raw.job_count());
  ASSERT_GT(in_memory.job_count(), 0u);

  // 3. Parallel batch over the parsed spec (two specs so the trace cache
  // and the pool genuinely engage) vs direct runs on the in-memory trace.
  std::vector<ScenarioSpec> specs = {parsed, parsed};
  specs[1].policy = "young";
  const auto batch = BatchRunner().run(specs);

  RunHooks hooks;
  hooks.replay_trace = &in_memory;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunArtifact direct = run_scenario(specs[i], hooks);
    EXPECT_EQ(batch[i].trace_jobs, direct.trace_jobs);
    EXPECT_EQ(batch[i].trace_tasks, direct.trace_tasks);
    expect_same_result(batch[i].result, direct.result);
  }
}

TEST(IngestedScenario, EstimationSourcesWorkOnIngestedTraces) {
  const std::string path = write_google_fixture("runner_estimation.csv");
  ScenarioSpec spec;
  spec.name = "ingested_full_estimation";
  spec.trace.source = "google:" + path;
  spec.trace.sample_job_filter = true;
  spec.trace.replay_max_task_length_s = 1800.0;
  spec.estimation = EstimationSource::kFull;
  const RunArtifact artifact = run_scenario(spec);
  EXPECT_GT(artifact.trace_jobs, 0u);
  EXPECT_GT(artifact.result.outcomes.size(), 0u);
}

TEST(IngestedScenario, GeneratorOnlyFieldsDoNotAffectIngestedRuns) {
  // The log decides the workload: specs differing only in generator-only
  // fields (seed, horizon, arrival rate) must produce identical results —
  // and may therefore share one cached ingestion inside BatchRunner.
  const std::string path = write_google_fixture("runner_seed_invariance.csv");
  ScenarioSpec a;
  a.name = "seed_a";
  a.trace.source = "google:" + path;
  a.trace.sample_job_filter = true;
  ScenarioSpec b = a;
  b.name = "seed_b";
  b.trace.seed = 999;
  b.trace.horizon_s = 1.0;
  b.trace.arrival_rate = 5.0;
  const auto artifacts = BatchRunner().run({a, b});
  EXPECT_EQ(artifacts[0].trace_jobs, artifacts[1].trace_jobs);
  expect_same_result(artifacts[0].result, artifacts[1].result);
}

TEST(IngestedScenario, UnknownSourceSchemeFailsLoudly) {
  ScenarioSpec spec;
  spec.trace.source = "parquet:/nope";
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(IngestedScenario, MissingLogFailsLoudly) {
  ScenarioSpec spec;
  spec.trace.source = "google:/nonexistent/task_events.csv";
  EXPECT_THROW((void)run_scenario(spec), std::runtime_error);
}

}  // namespace
}  // namespace cloudcr::api
