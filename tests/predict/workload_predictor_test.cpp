#include "predict/workload_predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/generator.hpp"

namespace cloudcr::predict {
namespace {

trace::TaskRecord make_task(double length, double input = 0.0,
                            int priority = 2) {
  trace::TaskRecord t;
  t.length_s = length;
  t.input_size = input;
  t.priority = priority;
  return t;
}

TEST(LengthModel, DefaultAndExactReturnTrueLength) {
  const LengthModel def;
  EXPECT_TRUE(def.exact());
  EXPECT_DOUBLE_EQ(def.predict(make_task(420.0)), 420.0);
  const LengthModel exact = LengthModel::parse("exact");
  EXPECT_TRUE(exact.exact());
  EXPECT_FALSE(exact.learns());
  EXPECT_DOUBLE_EQ(exact.predict(make_task(420.0)), 420.0);
}

TEST(LengthModel, BiasScalesByFactor) {
  EXPECT_DOUBLE_EQ(LengthModel::parse("bias:0.5").predict(make_task(420.0)),
                   210.0);
  EXPECT_DOUBLE_EQ(LengthModel::parse("bias:2").predict(make_task(420.0)),
                   840.0);
}

TEST(LengthModel, RejectsOutOfDomainValues) {
  for (const std::string bad :
       {"bias:0", "bias:-1", "bias:inf", "bias:nan", "bias:x", "bias",
        "noise:-0.1", "noise:inf", "noise:nan", "noise", "regression:2",
        "history:1", "exact:1", "", "bogus", "Bias:2"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)LengthModel::parse(bad), std::invalid_argument);
  }
  EXPECT_NO_THROW((void)LengthModel::parse("noise:0"));
}

TEST(LengthModel, NoiseIsUnbiasedInLogSpace) {
  const LengthModel p = LengthModel::parse("noise:0.3", 17);
  double log_acc = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    trace::TaskRecord task = make_task(1000.0);
    task.job_id = static_cast<std::uint64_t>(i / 4);
    task.index_in_job = static_cast<std::uint32_t>(i % 4);
    log_acc += std::log(p.predict(task));
  }
  EXPECT_NEAR(log_acc / kN, std::log(1000.0), 0.01);
}

TEST(LengthModel, NoiseIsAPureFunctionOfSeedAndTask) {
  // The same task gets the same prediction on every call and from every
  // instance with the same seed, so the scheduler's estimate and the
  // planner's length agree, and a resumed snapshot draws what a replay
  // from zero draws.
  trace::TaskRecord task = make_task(600.0);
  task.job_id = 99;
  task.index_in_job = 3;
  const LengthModel a = LengthModel::parse("noise:0.5", 0x5eed);
  const LengthModel b = LengthModel::parse("noise:0.5", 0x5eed);
  const double first = a.predict(task);
  EXPECT_NE(first, 600.0);
  EXPECT_EQ(a.predict(task), first);
  EXPECT_EQ(b.predict(task), first);
  // Another task, or another seed, draws differently.
  trace::TaskRecord sibling = task;
  sibling.index_in_job = 4;
  EXPECT_NE(a.predict(sibling), first);
  EXPECT_NE(LengthModel::parse("noise:0.5", 1).predict(task), first);
  // Zero sigma is exact.
  EXPECT_DOUBLE_EQ(LengthModel::parse("noise:0", 1).predict(task), 600.0);
}

TEST(LengthModel, HistoryLearnsPerPriorityMeans) {
  LengthModel p = LengthModel::parse("history");
  EXPECT_TRUE(p.learns());
  // Nothing observed: the default.
  EXPECT_DOUBLE_EQ(p.predict(make_task(999.0, 0.0, 5)),
                   LengthModel::kHistoryDefaultS);
  p.observe(make_task(200.0, 0.0, 5));
  p.observe(make_task(400.0, 0.0, 5));
  p.finalize();
  EXPECT_DOUBLE_EQ(p.predict(make_task(999.0, 0.0, 5)), 300.0);
  // An unseen priority falls back to the global mean.
  EXPECT_DOUBLE_EQ(p.predict(make_task(999.0, 0.0, 9)), 300.0);
  p.observe(make_task(1000.0, 0.0, 9));
  EXPECT_DOUBLE_EQ(p.predict(make_task(1.0, 0.0, 9)), 1000.0);
}

TEST(LengthModel, RegressionLearnsInputLengthRelation) {
  // Training data follows the generator's law: input = length^0.75, i.e.
  // length = input^(4/3).
  LengthModel p = LengthModel::parse("regression");
  EXPECT_TRUE(p.learns());
  for (double len = 50.0; len <= 5000.0; len += 50.0) {
    p.observe(make_task(len, std::pow(len, 0.75)));
  }
  EXPECT_THROW((void)p.predict(make_task(0.0, 1.0)), std::logic_error);
  p.finalize();
  // Interpolated prediction within a few percent.
  EXPECT_NEAR(p.predict(make_task(0.0, std::pow(1234.0, 0.75))), 1234.0,
              60.0);
}

TEST(LengthModel, RegressionNeedsThreeObservations) {
  LengthModel p = LengthModel::parse("regression");
  p.observe(make_task(10.0, 1.0));
  p.observe(make_task(20.0, 2.0));
  EXPECT_THROW(p.finalize(), std::invalid_argument);
}

TEST(LengthModel, RegressionEndToEndOnGeneratedTrace) {
  // Train on one trace, predict on another: median relative error must be
  // small (the generator's input/length coupling has ~15% noise).
  trace::GeneratorConfig cfg;
  cfg.seed = 31;
  cfg.horizon_s = 43200.0;
  cfg.arrival_rate = 0.05;
  cfg.sample_job_filter = false;
  cfg.workload.long_service_fraction = 0.0;
  const auto train = trace::TraceGenerator(cfg).generate();
  cfg.seed = 32;
  const auto test = trace::TraceGenerator(cfg).generate();

  LengthModel p = LengthModel::parse("regression");
  for (const auto& job : train.jobs) {
    for (const auto& task : job.tasks) p.observe(task);
  }
  p.finalize();

  std::vector<double> rel_errors;
  for (const auto& job : test.jobs) {
    for (const auto& task : job.tasks) {
      rel_errors.push_back(std::abs(p.predict(task) - task.length_s) /
                           task.length_s);
    }
  }
  ASSERT_FALSE(rel_errors.empty());
  std::nth_element(rel_errors.begin(),
                   rel_errors.begin() + static_cast<std::ptrdiff_t>(
                                            rel_errors.size() / 2),
                   rel_errors.end());
  const double median = rel_errors[rel_errors.size() / 2];
  EXPECT_LT(median, 0.30);
}

}  // namespace
}  // namespace cloudcr::predict
