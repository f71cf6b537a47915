// SlurmTraceSource: header'd whitespace table -> trace mapping (DURATION /
// WCLIMIT lengths, NODES -> BoT replication, unit options), exact
// skipped-row reporting, and registry round-trips.

#include "ingest/slurm_source.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "ingest/registry.hpp"
#include "ingest/stream.hpp"

namespace cloudcr::ingest {
namespace {

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream os(path);
  os << content;
  return path;
}

TEST(SlurmOptions, ParsesDeclarativeText) {
  const SlurmOptions o =
      parse_slurm_options("time_unit=ms,wclimit_unit=h,mem_mb=2048");
  EXPECT_DOUBLE_EQ(o.time_scale, 1e-3);
  EXPECT_DOUBLE_EQ(o.wclimit_scale, 3600.0);
  EXPECT_DOUBLE_EQ(o.default_mem_mb, 2048.0);
}

TEST(SlurmOptions, EmptyTextKeepsSlurmDefaults) {
  const SlurmOptions o = parse_slurm_options("");
  EXPECT_DOUBLE_EQ(o.time_scale, 1.0);
  // Slurm prints wall limits in minutes.
  EXPECT_DOUBLE_EQ(o.wclimit_scale, 60.0);
  EXPECT_DOUBLE_EQ(o.default_mem_mb, 512.0);
}

TEST(SlurmOptions, UnknownKeyErrorListsValidKeys) {
  try {
    (void)parse_slurm_options("bogus=1");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("time_unit"), std::string::npos);
    EXPECT_NE(what.find("wclimit_unit"), std::string::npos);
    EXPECT_NE(what.find("mem_mb"), std::string::npos);
  }
  EXPECT_THROW((void)parse_slurm_options("time_unit=fortnights"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_slurm_options("mem_mb=-1"), std::invalid_argument);
}

TEST(SlurmSource, MapsColumnsAndReplicatesNodesIntoBoT) {
  const auto path = write_temp(
      "slurm_basic.log",
      "# sacct export\n"
      "JOBID SUBMIT DURATION NODES MEM_MB PRIORITY\n"
      "101   0.0    120.0    1     256    3\n"
      "102   5.0    60.0     4     128    9\n");
  const IngestResult result = SlurmTraceSource(path).load();

  EXPECT_EQ(result.report.rows_total, 2u);
  EXPECT_EQ(result.report.rows_skipped, 0u);
  ASSERT_EQ(result.trace.job_count(), 2u);

  const auto& st = result.trace.jobs[0];
  EXPECT_EQ(st.id, 101u);
  EXPECT_EQ(st.structure, trace::JobStructure::kSequentialTasks);
  ASSERT_EQ(st.tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(st.tasks[0].length_s, 120.0);
  EXPECT_DOUBLE_EQ(st.tasks[0].memory_mb, 256.0);
  EXPECT_EQ(st.tasks[0].priority, 3);
  EXPECT_TRUE(st.tasks[0].failure_dates.empty());
  // No parser-visible input size in a log: the length stands in.
  EXPECT_DOUBLE_EQ(st.tasks[0].input_size, 120.0);

  // A 4-node allocation becomes a bag of 4 identical tasks.
  const auto& bot = result.trace.jobs[1];
  EXPECT_EQ(bot.structure, trace::JobStructure::kBagOfTasks);
  ASSERT_EQ(bot.tasks.size(), 4u);
  EXPECT_EQ(bot.tasks[3].index_in_job, 3u);
  EXPECT_DOUBLE_EQ(bot.tasks[3].length_s, 60.0);
  EXPECT_EQ(bot.tasks[3].priority, 9);

  // Horizon: max(arrival + critical path) = max(0 + 120, 5 + 60).
  EXPECT_DOUBLE_EQ(result.trace.horizon_s, 120.0);
}

TEST(SlurmSource, WclimitIsTheLengthFallbackInMinutes) {
  // No DURATION column: the requested wall limit (minutes) becomes the
  // length; defaults fill memory (512 MB), priority (5), and tasks (1).
  const auto path = write_temp("slurm_wclimit.log",
                               "JOBID SUBMIT WCLIMIT\n"
                               "7     10.0   2\n");
  const IngestResult result = SlurmTraceSource(path).load();
  ASSERT_EQ(result.trace.job_count(), 1u);
  const auto& task = result.trace.jobs[0].tasks[0];
  EXPECT_DOUBLE_EQ(task.length_s, 120.0);
  EXPECT_DOUBLE_EQ(task.memory_mb, 512.0);
  EXPECT_EQ(task.priority, 5);
  EXPECT_EQ(result.trace.jobs[0].structure,
            trace::JobStructure::kSequentialTasks);
}

TEST(SlurmSource, UnknownColumnsAreIgnored) {
  // Raw sacct dumps carry many extra fields; only the recognized headers
  // matter.
  const auto path = write_temp(
      "slurm_extra.log",
      "JOBID USER PARTITION SUBMIT DURATION STATE\n"
      "1     alice batch    0.0    30.0     COMPLETED\n");
  const IngestResult result = SlurmTraceSource(path).load();
  EXPECT_EQ(result.report.rows_used, 1u);
  ASSERT_EQ(result.trace.job_count(), 1u);
  EXPECT_DOUBLE_EQ(result.trace.jobs[0].tasks[0].length_s, 30.0);
}

TEST(SlurmSource, MalformedRowsAreSkippedWithExactReport) {
  const auto path = write_temp(
      "slurm_malformed.log",
      "JOBID SUBMIT DURATION NODES PRIORITY\n"  // line 1
      "1     0.0    100.0    1     3\n"         // line 2: ok
      "2     0.0    100.0\n"                    // line 3: wrong field count
      "3     0.0    abc      1     3\n"         // line 4: bad number
      "4     0.0    -5.0     1     3\n"         // line 5: non-positive length
      "5     0.0    100.0    0     3\n"         // line 6: zero tasks
      "6     0.0    100.0    1     40\n"        // line 7: priority range
      "1     0.0    100.0    1     3\n"         // line 8: duplicate job id
      "7     -1.0   100.0    1     3\n"         // line 9: negative submit
      "8     0.0    100.0    1     3\n");       // line 10: ok
  const IngestResult result = SlurmTraceSource(path).load();
  EXPECT_EQ(result.report.rows_total, 9u);
  EXPECT_EQ(result.report.rows_used, 2u);
  EXPECT_EQ(result.report.rows_skipped, 7u);
  ASSERT_EQ(result.report.skipped.size(), 7u);
  EXPECT_EQ(result.report.skipped[0].line_number, 3u);
  EXPECT_EQ(result.report.skipped[1].line_number, 4u);
  EXPECT_EQ(result.report.skipped[4].line_number, 7u);
  EXPECT_NE(result.report.skipped[4].reason.find("priority out of range"),
            std::string::npos);
  EXPECT_NE(result.report.skipped[5].reason.find("duplicate job id"),
            std::string::npos);
  EXPECT_EQ(result.trace.job_count(), 2u);
}

TEST(SlurmSource, NaNFieldsAreSkippedWithLineNumbers) {
  const auto path = write_temp(
      "slurm_nan.log",
      "JOBID SUBMIT DURATION NODES PRIORITY\n"  // line 1
      "1     0.0    100.0    1     3\n"         // line 2: ok
      "2     nan    100.0    1     3\n"         // line 3: NaN submit
      "3     0.0    NAN      1     3\n"         // line 4: NaN duration
      "4     0.0    -nan     1     3\n"         // line 5: NaN duration
      "5     0.0    100.0    1     3\n");       // line 6: ok
  const IngestResult result = SlurmTraceSource(path).load();
  EXPECT_EQ(result.report.rows_total, 5u);
  EXPECT_EQ(result.report.rows_used, 2u);
  EXPECT_EQ(result.report.rows_skipped, 3u);
  ASSERT_EQ(result.report.skipped.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result.report.skipped[i].line_number, 3u + i);
    EXPECT_NE(result.report.skipped[i].reason.find("not a number"),
              std::string::npos)
        << result.report.skipped[i].reason;
  }
  EXPECT_EQ(result.trace.job_count(), 2u);
}

TEST(SlurmSource, StructuralProblemsThrow) {
  EXPECT_THROW((void)SlurmTraceSource("/nonexistent/jobs.log").load(),
               std::runtime_error);
  const auto empty = write_temp("slurm_empty.log", "# only comments\n\n");
  EXPECT_THROW((void)SlurmTraceSource(empty).load(), std::runtime_error);
  const auto no_id = write_temp("slurm_no_id.log", "SUBMIT DURATION\n");
  EXPECT_THROW((void)SlurmTraceSource(no_id).load(), std::runtime_error);
  const auto no_len = write_temp("slurm_no_len.log", "JOBID SUBMIT\n");
  EXPECT_THROW((void)SlurmTraceSource(no_len).load(), std::runtime_error);
}

TEST(SlurmSource, JobsSortByArrivalThenId) {
  const auto path = write_temp("slurm_order.log",
                               "JOBID SUBMIT DURATION\n"
                               "9     5.0    10.0\n"
                               "2     1.0    10.0\n"
                               "3     1.0    10.0\n");
  const IngestResult result = SlurmTraceSource(path).load();
  ASSERT_EQ(result.trace.job_count(), 3u);
  EXPECT_EQ(result.trace.jobs[0].id, 2u);
  EXPECT_EQ(result.trace.jobs[1].id, 3u);
  EXPECT_EQ(result.trace.jobs[2].id, 9u);
}

TEST(SlurmSource, StreamedEqualsMaterialized) {
  // The default open_stream() chunks the materialized result; the drained
  // stream must reproduce load() job-for-job, report included.
  const auto path = write_temp("slurm_stream.log",
                               "JOBID SUBMIT DURATION NODES\n"
                               "1     0.0    30.0     2\n"
                               "2     1.0    xx       1\n"  // skipped
                               "3     2.0    45.0     1\n");
  SlurmTraceSource source(path);
  const IngestResult loaded = source.load();

  auto stream = source.open_stream();
  std::vector<trace::JobRecord> streamed;
  std::vector<trace::JobRecord> batch;
  while (stream->next_batch(1, batch) > 0) {
    for (auto& job : batch) streamed.push_back(std::move(job));
    batch.clear();
  }
  ASSERT_EQ(streamed.size(), loaded.trace.job_count());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].id, loaded.trace.jobs[i].id);
    EXPECT_EQ(streamed[i].tasks.size(), loaded.trace.jobs[i].tasks.size());
  }
  EXPECT_EQ(stream->report().rows_skipped, 1u);
  EXPECT_EQ(stream->report().rows_used, loaded.report.rows_used);
}

TEST(SlurmRegistry, SpecRoundTripsThroughDescribe) {
  const auto path = write_temp("slurm_rt.log",
                               "JOBID SUBMIT DURATION\n"
                               "1     0.0    10.0\n");
  auto source = TraceSourceRegistry::instance().make("slurm:" + path);
  EXPECT_EQ(source->describe(), "slurm:" + path);
  // describe() is itself a valid spec.
  auto again = TraceSourceRegistry::instance().make(source->describe());
  EXPECT_EQ(again->load().trace.job_count(), 1u);
}

TEST(SlurmRegistry, QueryOptionsThreadThroughTheSpec) {
  const auto path = write_temp("slurm_opts.log",
                               "JOBID SUBMIT WCLIMIT\n"
                               "1     0.0    1\n");
  auto source = TraceSourceRegistry::instance().make(
      "slurm:" + path + "?wclimit_unit=h,mem_mb=64");
  const IngestResult result = source->load();
  ASSERT_EQ(result.trace.job_count(), 1u);
  EXPECT_DOUBLE_EQ(result.trace.jobs[0].tasks[0].length_s, 3600.0);
  EXPECT_DOUBLE_EQ(result.trace.jobs[0].tasks[0].memory_mb, 64.0);
  EXPECT_THROW(
      (void)TraceSourceRegistry::instance().make("slurm:" + path + "?nope=1"),
      std::invalid_argument);
  EXPECT_THROW((void)TraceSourceRegistry::instance().make("slurm:"),
               std::invalid_argument);
}

}  // namespace
}  // namespace cloudcr::ingest
