// GoogleTraceSource: golden-file reconstruction (jobs, lengths, failure
// dates, priorities, memory), malformed-row recovery with an exact report,
// and the write_task_events fixture bridge.

#include "ingest/google_source.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "ingest/source.hpp"
#include "trace/generator.hpp"

namespace cloudcr::ingest {
namespace {

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream os(path);
  os << content;
  return path;
}

// A hand-written task_events log covering the reconstruction rules:
//
//   job 42 / task 0: SUBMIT 100s, SCHEDULE 100s, EVICT 160s (failure at
//     60s active), SCHEDULE 170s, FINISH 250s -> length 140s, prio 3 -> 4,
//     memory 0.25 * 1024 = 256 MB
//   job 42 / task 1: SUBMIT 110s, SCHEDULE 120s, KILL 150s -> terminal
//     failure at 30s active, length 30s (censored by the kill)
//   job 99 / task 0: SUBMIT 50s, never scheduled -> dropped entirely
//
// Earliest event is 50s, so job 42 arrives at rebased t = 50s; the horizon
// is 250s - 50s = 200s.
constexpr char kGolden[] =
    "50000000,,99,0,m9,0,u,0,1,0.0,0.5,0.0,0\n"
    "100000000,,42,0,m1,0,u,0,3,0.0,0.25,0.0,0\n"
    "100000000,,42,0,m1,1,u,0,3,0.0,0.25,0.0,0\n"
    "110000000,,42,1,m2,0,u,0,3,0.0,0.125,0.0,0\n"
    "120000000,,42,1,m2,1,u,0,3,0.0,0.125,0.0,0\n"
    "150000000,,42,1,m2,5,u,0,3,0.0,0.125,0.0,0\n"
    "160000000,,42,0,m1,2,u,0,3,0.0,0.25,0.0,0\n"
    "170000000,,42,0,m1,1,u,0,3,0.0,0.25,0.0,0\n"
    "250000000,,42,0,m1,4,u,0,3,0.0,0.25,0.0,0\n";

TEST(GoogleSource, GoldenReconstruction) {
  const auto path = write_temp("google_golden.csv", kGolden);
  const IngestResult result = GoogleTraceSource(path).load();

  EXPECT_EQ(result.report.rows_total, 9u);
  EXPECT_EQ(result.report.rows_used, 9u);
  EXPECT_EQ(result.report.rows_skipped, 0u);
  EXPECT_EQ(result.report.source, "google:" + path);

  const trace::Trace& trace = result.trace;
  ASSERT_EQ(trace.job_count(), 1u);  // job 99 never ran
  EXPECT_DOUBLE_EQ(trace.horizon_s, 200.0);

  const trace::JobRecord& job = trace.jobs[0];
  EXPECT_EQ(job.id, 42u);
  EXPECT_DOUBLE_EQ(job.arrival_s, 50.0);
  EXPECT_EQ(job.structure, trace::JobStructure::kBagOfTasks);
  ASSERT_EQ(job.tasks.size(), 2u);

  const trace::TaskRecord& t0 = job.tasks[0];
  EXPECT_EQ(t0.index_in_job, 0u);
  EXPECT_DOUBLE_EQ(t0.length_s, 140.0);
  EXPECT_DOUBLE_EQ(t0.memory_mb, 256.0);
  EXPECT_EQ(t0.priority, 4);  // trace 0..11 -> paper 1..12
  ASSERT_EQ(t0.failure_dates.size(), 1u);
  EXPECT_DOUBLE_EQ(t0.failure_dates[0], 60.0);

  const trace::TaskRecord& t1 = job.tasks[1];
  EXPECT_EQ(t1.index_in_job, 1u);
  EXPECT_DOUBLE_EQ(t1.length_s, 30.0);
  EXPECT_DOUBLE_EQ(t1.memory_mb, 128.0);
  ASSERT_EQ(t1.failure_dates.size(), 1u);
  EXPECT_DOUBLE_EQ(t1.failure_dates[0], 30.0);  // killed at the end

  // Both tasks fail within their own length: the job survives the paper's
  // sample-job filter.
  trace::Trace filtered = trace;
  apply_sample_job_filter(filtered);
  EXPECT_EQ(filtered.job_count(), 1u);
}

TEST(GoogleSource, MalformedRowsAreSkippedAndReportedExactly) {
  // Valid rows for one finishing task, interleaved with five broken rows.
  const auto path = write_temp(
      "google_malformed.csv",
      "100000000,,7,0,m1,0,u,0,2,0.0,0.5,0.0,0\n"   // line 1: ok
      "1,2,3\n"                                      // line 2: too few fields
      "100000000,,7,0,m1,1,u,0,2,0.0,0.5,0.0,0\n"   // line 3: ok
      "abc,,7,0,m1,2,u,0,2,0.0,0.5,0.0,0\n"         // line 4: bad timestamp
      "150000000,,7,0,m1,9,u,0,2,0.0,0.5,0.0,0\n"   // line 5: bad event type
      "150000000,,7,0,m1,2,u,0,99,0.0,0.5,0.0,0\n"  // line 6: bad priority
      "140000000,,7,0,m1,2,u,0,2,0.0,0.5,0.0,0\n"   // line 7: ok (EVICT)*
      "200000000,,7,0,m1,4,u,0,2,0.0,0.5,0.0,0\n"   // line 8: ok (FINISH)
  );
  // *per-task monotonicity only counts accepted rows: lines 5/6 (150s) were
  // skipped, so the 140s EVICT is in order and yields a failure at 40s of
  // active time.
  const IngestResult result = GoogleTraceSource(path).load();

  EXPECT_EQ(result.report.rows_total, 8u);
  EXPECT_EQ(result.report.rows_used, 4u);
  EXPECT_EQ(result.report.rows_skipped, 4u);
  ASSERT_EQ(result.report.skipped.size(), 4u);
  EXPECT_EQ(result.report.skipped[0].line_number, 2u);
  EXPECT_EQ(result.report.skipped[1].line_number, 4u);
  EXPECT_EQ(result.report.skipped[2].line_number, 5u);
  EXPECT_EQ(result.report.skipped[3].line_number, 6u);
  EXPECT_NE(result.report.skipped[2].reason.find("unknown event type"),
            std::string::npos);
  EXPECT_NE(result.report.summary().find("8 rows, 4 used, 4 skipped"),
            std::string::npos);

  ASSERT_EQ(result.trace.job_count(), 1u);
  const trace::TaskRecord& task = result.trace.jobs[0].tasks.at(0);
  ASSERT_EQ(task.failure_dates.size(), 1u);
  EXPECT_DOUBLE_EQ(task.failure_dates[0], 40.0);
}

TEST(GoogleSource, NaNMemoryRequestIsSkipped) {
  const auto path = write_temp(
      "google_nan.csv",
      "100000000,,7,0,m1,0,u,0,2,0.0,0.5,0.0,0\n"   // line 1: ok
      "100000000,,7,0,m1,1,u,0,2,0.0,nan,0.0,0\n"   // line 2: NaN memory
      "200000000,,7,0,m1,4,u,0,2,0.0,0.5,0.0,0\n");  // line 3: ok
  const IngestResult result = GoogleTraceSource(path).load();
  EXPECT_EQ(result.report.rows_skipped, 1u);
  ASSERT_EQ(result.report.skipped.size(), 1u);
  EXPECT_EQ(result.report.skipped[0].line_number, 2u);
  EXPECT_NE(result.report.skipped[0].reason.find("not a number"),
            std::string::npos)
      << result.report.skipped[0].reason;
}

TEST(GoogleSource, RejectsTrulyOutOfOrderTaskTimestamps) {
  const auto path = write_temp(
      "google_unordered.csv",
      "200000000,,7,0,m1,0,u,0,2,0.0,0.5,0.0,0\n"
      "100000000,,7,0,m1,1,u,0,2,0.0,0.5,0.0,0\n");  // before the SUBMIT
  const IngestResult result = GoogleTraceSource(path).load();
  EXPECT_EQ(result.report.rows_skipped, 1u);
  EXPECT_NE(result.report.skipped[0].reason.find("out-of-order"),
            std::string::npos);
}

TEST(GoogleSource, CensoredTaskRunsToTraceEnd) {
  // Scheduled at 100s, never finishes; the last event anywhere is 400s, so
  // the task's censored length is 300s.
  const auto path = write_temp(
      "google_censored.csv",
      "100000000,,1,0,m1,0,u,0,0,0.0,0.1,0.0,0\n"
      "100000000,,1,0,m1,1,u,0,0,0.0,0.1,0.0,0\n"
      "400000000,,2,0,m1,0,u,0,0,0.0,0.1,0.0,0\n");
  const IngestResult result = GoogleTraceSource(path).load();
  ASSERT_EQ(result.trace.job_count(), 1u);
  EXPECT_DOUBLE_EQ(result.trace.jobs[0].tasks[0].length_s, 300.0);
  EXPECT_TRUE(result.trace.jobs[0].tasks[0].failure_dates.empty());
}

TEST(GoogleSource, MissingFileThrows) {
  EXPECT_THROW((void)GoogleTraceSource("/nonexistent/task_events.csv").load(),
               std::runtime_error);
}

TEST(GoogleSource, ProbeFailsFastWithoutIngesting) {
  EXPECT_THROW(GoogleTraceSource("/nonexistent/task_events.csv").probe(),
               std::runtime_error);
  const auto path = write_temp("google_probe.csv", kGolden);
  GoogleTraceSource(path).probe();  // opens: no throw, no ingestion
}

TEST(GoogleSource, EmptyLogYieldsEmptyTrace) {
  const auto path = write_temp("google_empty.csv", "\n\n");
  const IngestResult result = GoogleTraceSource(path).load();
  EXPECT_EQ(result.trace.job_count(), 0u);
  EXPECT_EQ(result.report.rows_total, 0u);
}

TEST(GoogleSource, OptionsParseStrictly) {
  EXPECT_DOUBLE_EQ(parse_google_options("").memory_scale_mb, 1024.0);
  EXPECT_DOUBLE_EQ(parse_google_options("memory_scale_mb=2048").memory_scale_mb,
                   2048.0);
  EXPECT_THROW((void)parse_google_options("memory_scale_mb=-1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_google_options("memory_scale_mb=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_google_options("bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_google_options("no_equals"),
               std::invalid_argument);
}

TEST(GoogleSource, FixtureWriterRoundTripsGeneratedTraces) {
  trace::GeneratorConfig cfg;
  cfg.seed = 3;
  cfg.horizon_s = 2.0 * 3600.0;
  cfg.sample_job_filter = false;
  cfg.workload.long_service_fraction = 0.0;
  const trace::Trace original = trace::TraceGenerator(cfg).generate();
  ASSERT_GT(original.job_count(), 0u);

  std::stringstream buf;
  const std::size_t rows = write_task_events(buf, original);
  EXPECT_EQ(rows, count_task_events(original));

  const auto path = write_temp("google_roundtrip.csv", buf.str());
  const IngestResult result = GoogleTraceSource(path).load();
  EXPECT_EQ(result.report.rows_total, rows);
  EXPECT_EQ(result.report.rows_skipped, 0u);
  ASSERT_EQ(result.trace.job_count(), original.job_count());

  // Ingestion rebases time so the earliest event is t = 0; compare
  // arrivals relative to the first job's.
  const double rebase = original.jobs[0].arrival_s;
  for (std::size_t j = 0; j < original.jobs.size(); ++j) {
    const auto& a = original.jobs[j];
    const auto& b = result.trace.jobs[j];
    EXPECT_EQ(a.id, b.id);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    EXPECT_NEAR(a.arrival_s - rebase, b.arrival_s, 1e-5);
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
      const auto& ta = a.tasks[i];
      const auto& tb = b.tasks[i];
      EXPECT_NEAR(ta.length_s, tb.length_s, 1e-5);
      EXPECT_NEAR(ta.memory_mb, tb.memory_mb, 1e-6);
      EXPECT_EQ(ta.priority, tb.priority);
      // Failure dates beyond the productive length are unobservable in an
      // event log; within the length they round-trip (to us rounding).
      const std::size_t observable = ta.failures_within(ta.length_s);
      ASSERT_EQ(tb.failure_dates.size(), observable);
      for (std::size_t f = 0; f < observable; ++f) {
        EXPECT_NEAR(ta.failure_dates[f], tb.failure_dates[f], 1e-5);
      }
    }
  }
}

}  // namespace
}  // namespace cloudcr::ingest
