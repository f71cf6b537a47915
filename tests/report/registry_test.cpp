// The experiment registry: structural invariants (unique sorted ids,
// complete descriptions, registry-valid scenario specs), agreement with the
// checked-in expected-value document, an end-to-end run of the cheap
// model-only entries through the report runner, and thread-count
// invariance of a mixed trace-only + replay subset.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/scenario.hpp"
#include "report/compare.hpp"
#include "report/registry.hpp"
#include "report/render.hpp"
#include "report/runner.hpp"
#include "sched/registry.hpp"

namespace cloudcr {
namespace {

const report::ExperimentRegistry& registry() {
  return report::ExperimentRegistry::instance();
}

TEST(ExperimentRegistry, IdsAreUniqueSortedAndFindable) {
  const auto ids = registry().ids();
  ASSERT_FALSE(ids.empty());
  std::set<std::string> seen;
  for (const auto& id : ids) {
    EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    const auto* e = registry().find(id);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->id, id);
  }
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LT(ids[i - 1], ids[i]) << "ids not in paper order";
  }
  EXPECT_EQ(registry().find("no_such_experiment"), nullptr);
}

TEST(ExperimentRegistry, CoversThePaperMatrix) {
  // The paper's reproduced figures and tables, one entry each, plus the
  // repo's scheduling-stage extension entries.
  for (const char* id :
       {"fig04", "fig05", "fig07", "fig08", "fig09", "fig10", "fig11",
        "fig12", "fig13", "fig14", "sched01", "sched02", "tab02", "tab03",
        "tab04", "tab05", "tab06", "tab07"}) {
    EXPECT_NE(registry().find(id), nullptr) << "missing entry " << id;
  }
  EXPECT_EQ(registry().entries().size(), 18u);
}

TEST(ExperimentRegistry, EntriesAreSelfDescribing) {
  for (const auto& e : registry().entries()) {
    EXPECT_FALSE(e.title.empty()) << e.id;
    EXPECT_FALSE(e.paper_ref.empty()) << e.id;
    EXPECT_FALSE(e.paper_claim.empty()) << e.id;
    EXPECT_FALSE(e.model_notes.empty()) << e.id;
    EXPECT_TRUE(static_cast<bool>(e.evaluate)) << e.id;
    // Every entry consumes *something*: scenarios or raw traces, except the
    // pure cost-model tables which consume neither but must then be fast.
    if (e.specs.empty() && e.traces.empty()) {
      EXPECT_TRUE(e.fast) << e.id << " runs nothing yet is not fast";
    }
  }
}

TEST(ExperimentRegistry, ScenarioSpecsAreValidAndRoundTrip) {
  const auto& policies = api::PolicyRegistry::instance();
  const auto& predictors = api::PredictorRegistry::instance();
  const auto& schedulers = sched::SchedulerRegistry::instance();
  std::set<std::string> names;
  for (const auto& e : registry().entries()) {
    for (const auto& spec : e.specs) {
      EXPECT_TRUE(names.insert(spec.name).second)
          << "duplicate scenario name " << spec.name;
      // Registry keys resolve (split off any :arg).
      EXPECT_TRUE(policies.contains(api::split_key(spec.policy).name))
          << spec.name << " policy " << spec.policy;
      EXPECT_TRUE(predictors.contains(api::split_key(spec.predictor).name))
          << spec.name << " predictor " << spec.predictor;
      EXPECT_TRUE(schedulers.contains(api::split_key(spec.sched).name))
          << spec.name << " sched " << spec.sched;
      // Specs are serializable (artifacts must be self-reproducing).
      EXPECT_EQ(api::parse_scenario(api::serialize(spec)), spec)
          << spec.name;
    }
  }
}

TEST(ExperimentRegistry, FastSubsetIsNonTrivial) {
  report::ReportOptions options;
  options.fast_only = true;
  const auto fast = report::select_experiments(options);
  EXPECT_GE(fast.size(), 5u);
  for (const auto* e : fast) EXPECT_TRUE(e->fast);
}

TEST(ExperimentRegistry, SelectRejectsUnknownIds) {
  report::ReportOptions options;
  options.only = {"fig09", "bogus"};
  EXPECT_THROW(report::select_experiments(options), std::invalid_argument);
}

TEST(ExperimentRegistry, ExperimentsDocListsEveryEntry) {
  std::ostringstream os;
  report::write_experiments_doc(os);
  const auto doc = os.str();
  for (const auto& e : registry().entries()) {
    EXPECT_NE(doc.find("## " + e.id), std::string::npos)
        << "docs drift: missing section for " << e.id;
  }
}

#ifdef CLOUDCR_REPRO_EXPECTED_PATH
TEST(ExperimentRegistry, CheckedInExpectationsCoverEveryEntry) {
  // The expected-value document and the registry must not drift: an entry
  // without expectations silently escapes the gate, and an expectation for
  // a removed entry means the gate checks nothing.
  const auto doc = report::read_expected_file(CLOUDCR_REPRO_EXPECTED_PATH);
  for (const auto& e : registry().entries()) {
    const auto* expected = doc.find(e.id);
    ASSERT_NE(expected, nullptr) << "no expected values for " << e.id
                                 << " (repro_report --update-expected)";
    EXPECT_FALSE(expected->metrics.empty()) << e.id;
  }
  for (const auto& entry : doc.entries) {
    EXPECT_NE(registry().find(entry.id), nullptr)
        << "expectations for unknown experiment " << entry.id;
  }
}
#endif

TEST(ReportRunner, ModelOnlyEntriesRunAndMatchExpectations) {
  // The storage-model entries are cheap enough for a unit test and cover
  // the full runner path (selection, evaluation, comparison).
  report::ReportOptions options;
  options.only = {"tab04", "tab05"};
  const auto result = report::run_report(options);
  ASSERT_EQ(result.entries.size(), 2u);
  for (const auto& entry : result.entries) {
    EXPECT_FALSE(entry.metrics.empty()) << entry.experiment->id;
    EXPECT_TRUE(entry.artifacts.empty()) << entry.experiment->id;
  }
#ifdef CLOUDCR_REPRO_EXPECTED_PATH
  const auto doc = report::read_expected_file(CLOUDCR_REPRO_EXPECTED_PATH);
  for (const auto& entry : result.entries) {
    const auto* expected = doc.find(entry.experiment->id);
    ASSERT_NE(expected, nullptr);
    const auto comparisons = report::compare_entry(*expected, entry.metrics);
    EXPECT_TRUE(report::all_pass(comparisons)) << entry.experiment->id;
  }
#endif
}

TEST(ReportRunner, EvaluationIsDeterministic) {
  report::ReportOptions options;
  options.only = {"tab02"};
  const auto a = report::run_report(options);
  const auto b = report::run_report(options);
  ASSERT_EQ(a.entries.size(), 1u);
  ASSERT_EQ(b.entries.size(), 1u);
  ASSERT_EQ(a.entries[0].metrics.size(), b.entries[0].metrics.size());
  for (std::size_t i = 0; i < a.entries[0].metrics.size(); ++i) {
    EXPECT_EQ(a.entries[0].metrics[i].name, b.entries[0].metrics[i].name);
    EXPECT_EQ(a.entries[0].metrics[i].value, b.entries[0].metrics[i].value);
  }
}

TEST(ReportRunner, MixedSubsetIsThreadCountInvariant) {
  // Trace-only entries run as evaluation items on the batch pool, next to
  // a replay entry and to each other; dispatch order depends on trace size,
  // not selection order. None of that may reach the results: metrics, human
  // text, and entry order must match the single-threaded run exactly.
  const std::vector<std::string> only = {"fig05", "fig08", "sched01",
                                         "tab07"};
  auto run = [&only](std::size_t threads, std::string& human) {
    std::ostringstream out;
    report::ReportOptions options;
    options.only = only;
    options.threads = threads;
    options.human = &out;
    options.trace_override = [](api::TraceSpec& t) {
      t.horizon_s = 4.0 * 3600.0;
    };
    auto result = report::run_report(options);
    human = out.str();
    return result;
  };
  std::string serial_human, parallel_human;
  const auto serial = run(1, serial_human);
  const auto parallel = run(4, parallel_human);
  ASSERT_EQ(serial.entries.size(), only.size());
  ASSERT_EQ(parallel.entries.size(), only.size());
  EXPECT_FALSE(serial_human.empty());
  EXPECT_EQ(serial_human, parallel_human);
  for (std::size_t i = 0; i < only.size(); ++i) {
    const auto& a = serial.entries[i];
    const auto& b = parallel.entries[i];
    EXPECT_EQ(a.experiment->id, only[i]);
    EXPECT_EQ(b.experiment->id, only[i]);
    EXPECT_FALSE(a.metrics.empty()) << only[i];
    ASSERT_EQ(a.metrics.size(), b.metrics.size()) << only[i];
    for (std::size_t m = 0; m < a.metrics.size(); ++m) {
      EXPECT_EQ(a.metrics[m].name, b.metrics[m].name);
      EXPECT_EQ(a.metrics[m].value, b.metrics[m].value)
          << only[i] << "/" << a.metrics[m].name;
    }
    EXPECT_EQ(a.artifacts.size(), b.artifacts.size()) << only[i];
  }
}

}  // namespace
}  // namespace cloudcr
