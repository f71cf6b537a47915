// MappedCsvSource: declarative column mapping (names, units, priority
// remapping), malformed-row recovery, and structure/index inference.

#include "ingest/csv_source.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

namespace cloudcr::ingest {
namespace {

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream os(path);
  os << content;
  return path;
}

TEST(ColumnMapping, ParsesDeclarativeText) {
  const ColumnMapping m = parse_mapping(
      "job_id=jid,arrival=when,length=dur,memory=mem,priority=prio,"
      "failures=kills,time_unit=ms,memory_unit=kb,priority_offset=1");
  EXPECT_EQ(m.job_id, "jid");
  EXPECT_EQ(m.arrival, "when");
  EXPECT_EQ(m.length, "dur");
  EXPECT_EQ(m.memory, "mem");
  EXPECT_EQ(m.priority, "prio");
  EXPECT_EQ(m.failures, "kills");
  EXPECT_DOUBLE_EQ(m.time_scale, 1e-3);
  EXPECT_DOUBLE_EQ(m.memory_scale, 1.0 / 1024.0);
  EXPECT_EQ(m.priority_offset, 1);
}

TEST(ColumnMapping, EmptyTextKeepsNativeDefaults) {
  const ColumnMapping m = parse_mapping("");
  EXPECT_EQ(m.job_id, "job_id");
  EXPECT_DOUBLE_EQ(m.time_scale, 1.0);
  EXPECT_EQ(m.priority_offset, 0);
}

TEST(ColumnMapping, RejectsMalformedText) {
  EXPECT_THROW((void)parse_mapping("no_equals"), std::invalid_argument);
  // An unknown key names the keys that would have worked.
  try {
    (void)parse_mapping("bogus_key=x");
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus_key"), std::string::npos);
    EXPECT_NE(what.find("priority_offset"), std::string::npos);
    EXPECT_NE(what.find("time_unit"), std::string::npos);
  }
  EXPECT_THROW((void)parse_mapping("time_unit=fortnights"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_mapping("memory_unit=floppies"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_mapping("priority_offset=abc"),
               std::invalid_argument);
}

TEST(MappedCsv, ConvertsUnitsAndRemapsPriorities) {
  // Times in ms, memory in KB, priorities on the Google 0..11 scale.
  const auto path = write_temp(
      "mapped_units.csv",
      "jid,when,dur,mem,prio,kills\n"
      "1,1000,60000,2048,0,10000;20000\n"
      "2,2500,30000,1024,11,\n");
  const ColumnMapping mapping = parse_mapping(
      "job_id=jid,arrival=when,length=dur,memory=mem,priority=prio,"
      "failures=kills,time_unit=ms,memory_unit=kb,priority_offset=1");
  const IngestResult result = MappedCsvSource(path, mapping).load();

  EXPECT_EQ(result.report.rows_total, 2u);
  EXPECT_EQ(result.report.rows_skipped, 0u);
  ASSERT_EQ(result.trace.job_count(), 2u);

  const auto& j1 = result.trace.jobs[0];
  EXPECT_EQ(j1.id, 1u);
  EXPECT_DOUBLE_EQ(j1.arrival_s, 1.0);
  ASSERT_EQ(j1.tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(j1.tasks[0].length_s, 60.0);
  EXPECT_DOUBLE_EQ(j1.tasks[0].memory_mb, 2.0);
  EXPECT_EQ(j1.tasks[0].priority, 1);
  ASSERT_EQ(j1.tasks[0].failure_dates.size(), 2u);
  EXPECT_DOUBLE_EQ(j1.tasks[0].failure_dates[0], 10.0);
  EXPECT_DOUBLE_EQ(j1.tasks[0].failure_dates[1], 20.0);

  EXPECT_EQ(result.trace.jobs[1].tasks[0].priority, 12);
  // Horizon: latest failure-free completion, max(arrival + critical path)
  // = max(1 + 60, 2.5 + 30).
  EXPECT_DOUBLE_EQ(result.trace.horizon_s, 61.0);
}

TEST(MappedCsv, NativeSchemaNeedsNoMapping) {
  const auto path = write_temp(
      "mapped_native.csv",
      "job_id,arrival_s,length_s,memory_mb,priority,failure_dates\n"
      "5,0.5,100.0,64.0,3,25.0\n");
  const IngestResult result = MappedCsvSource(path).load();
  ASSERT_EQ(result.trace.job_count(), 1u);
  EXPECT_EQ(result.trace.jobs[0].tasks[0].priority, 3);
  EXPECT_DOUBLE_EQ(result.trace.jobs[0].tasks[0].failure_dates[0], 25.0);
  // No parser-visible input size in a log: the length stands in.
  EXPECT_DOUBLE_EQ(result.trace.jobs[0].tasks[0].input_size, 100.0);
}

TEST(MappedCsv, MalformedRowsAreSkippedWithLineNumbers) {
  const auto path = write_temp(
      "mapped_malformed.csv",
      "job_id,arrival_s,length_s,memory_mb,priority,failure_dates\n"
      "1,0.0,100.0,64.0,3,\n"        // line 2: ok
      "2,0.0,100.0\n"                // line 3: wrong field count
      "3,0.0,abc,64.0,3,\n"          // line 4: bad number
      "4,0.0,-5.0,64.0,3,\n"         // line 5: non-positive length
      "5,0.0,100.0,64.0,40,\n"       // line 6: priority out of range
      "6,0.0,100.0,64.0,3,9.0;4.0\n"  // line 7: unsorted failures
      "7,0.0,1e999,64.0,3,\n"        // line 8: out-of-range number
      "8,0.0,100.0,64.0,3,5.0;5.0\n"  // line 9: duplicate failure date
      "9,0.0,100.0,64.0,3,\n");      // line 10: ok
  const IngestResult result = MappedCsvSource(path).load();
  EXPECT_EQ(result.report.rows_total, 9u);
  EXPECT_EQ(result.report.rows_used, 2u);
  EXPECT_EQ(result.report.rows_skipped, 7u);
  ASSERT_EQ(result.report.skipped.size(), 7u);
  EXPECT_EQ(result.report.skipped[0].line_number, 3u);
  EXPECT_EQ(result.report.skipped[5].line_number, 8u);
  EXPECT_NE(result.report.skipped[5].reason.find("out of range"),
            std::string::npos);
  EXPECT_NE(result.report.skipped[6].reason.find("strictly increasing"),
            std::string::npos);
  EXPECT_EQ(result.trace.job_count(), 2u);
}

TEST(MappedCsv, NaNFieldsAreSkippedWithLineNumbers) {
  // strtod reads every NaN spelling; each must be a counted, line-numbered
  // skip rather than a NaN that slips past the range checks. An explicit
  // "inf" stays a number (here it fails the memory check on its own terms).
  const auto path = write_temp(
      "mapped_nan.csv",
      "job_id,arrival_s,length_s,memory_mb,priority,failure_dates\n"
      "1,0.0,100.0,64.0,3,\n"           // line 2: ok
      "2,nan,100.0,64.0,3,\n"           // line 3: NaN arrival
      "3,0.0,NaN,64.0,3,\n"             // line 4: NaN length
      "4,0.0,100.0,-nan,3,\n"           // line 5: NaN memory
      "5,0.0,100.0,64.0,3,5.0;nan(1)\n"  // line 6: NaN failure date
      "6,0.0,100.0,-inf,3,\n"           // line 7: negative memory
      "7,0.0,inf,64.0,3,\n");           // line 8: ok (explicit inf)
  const IngestResult result = MappedCsvSource(path).load();
  EXPECT_EQ(result.report.rows_total, 7u);
  EXPECT_EQ(result.report.rows_used, 2u);
  EXPECT_EQ(result.report.rows_skipped, 5u);
  ASSERT_EQ(result.report.skipped.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.report.skipped[i].line_number, 3u + i);
    EXPECT_NE(result.report.skipped[i].reason.find("not a number"),
              std::string::npos)
        << result.report.skipped[i].reason;
  }
  EXPECT_NE(result.report.skipped[4].reason.find("negative memory"),
            std::string::npos);
  EXPECT_EQ(result.trace.job_count(), 2u);
}

TEST(MappedCsv, InfersStructureAndTaskIndices) {
  // No structure or task_index columns: multi-task jobs become BoT and
  // tasks number in row order.
  const auto path = write_temp(
      "mapped_inferred.csv",
      "job_id,arrival_s,length_s,memory_mb,priority,failure_dates\n"
      "1,0.0,10.0,64.0,1,\n"
      "1,0.0,20.0,64.0,1,\n"
      "2,1.0,10.0,64.0,1,\n");
  const ColumnMapping mapping =
      parse_mapping("task_index=,structure=,failures=failure_dates");
  const IngestResult result = MappedCsvSource(path, mapping).load();
  ASSERT_EQ(result.trace.job_count(), 2u);
  EXPECT_EQ(result.trace.jobs[0].structure,
            trace::JobStructure::kBagOfTasks);
  EXPECT_EQ(result.trace.jobs[0].tasks[1].index_in_job, 1u);
  EXPECT_EQ(result.trace.jobs[1].structure,
            trace::JobStructure::kSequentialTasks);
}

TEST(MappedCsv, ExplicitStructureColumnWins) {
  const auto path = write_temp(
      "mapped_structure.csv",
      "job_id,structure,arrival_s,length_s,memory_mb,priority\n"
      "1,ST,0.0,10.0,64.0,1\n"
      "1,ST,0.0,20.0,64.0,1\n");
  const ColumnMapping mapping = parse_mapping("failures=");
  const IngestResult result = MappedCsvSource(path, mapping).load();
  ASSERT_EQ(result.trace.job_count(), 1u);
  EXPECT_EQ(result.trace.jobs[0].structure,
            trace::JobStructure::kSequentialTasks);
}

TEST(MappedCsv, MissingRequiredColumnThrows) {
  const auto path = write_temp("mapped_missing.csv",
                               "job_id,arrival_s,length_s,memory_mb\n");
  EXPECT_THROW((void)MappedCsvSource(path).load(), std::runtime_error);
}

TEST(MappedCsv, MissingFileThrows) {
  EXPECT_THROW((void)MappedCsvSource("/nonexistent/jobs.csv").load(),
               std::runtime_error);
}

TEST(MappedCsv, ToleratesCrlfAndTrailingBlankLines) {
  const auto path = write_temp(
      "mapped_crlf.csv",
      "job_id,arrival_s,length_s,memory_mb,priority,failure_dates\r\n"
      "1,0.0,10.0,64.0,1,\r\n"
      "\r\n"
      "   \n"
      "\n");
  const IngestResult result = MappedCsvSource(path).load();
  EXPECT_EQ(result.report.rows_total, 1u);
  EXPECT_EQ(result.report.rows_skipped, 0u);
  EXPECT_EQ(result.trace.job_count(), 1u);
}

}  // namespace
}  // namespace cloudcr::ingest
