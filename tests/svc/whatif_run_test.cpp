// A what-if base run is an api::PreparedRun run — the same path as
// api::ScenarioRunner::run — so it honours the base spec's obs= value
// (trace file, api.* timers) and banks an artifact whose host fields are
// filled like any other run's. A resume from the parked snapshot is
// untraced: it writes no file of its own and never re-writes the base's.
// Non-finite or negative what-if knobs are rejected before any run starts,
// and a base run that throws gives its parked-engine slot back.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "api/scenario.hpp"
#include "obs/stats.hpp"
#include "svc/service.hpp"

namespace cloudcr::svc {
namespace {

api::ScenarioSpec base_spec(const std::string& name) {
  api::ScenarioSpec spec;
  spec.name = name;
  spec.policy = "formula3";
  spec.predictor = "grouped";
  spec.trace.seed = 17;
  spec.trace.horizon_s = 1800.0;
  spec.trace.arrival_rate = 0.08;
  return spec;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

WhatIfRequest whatif_of(const api::ScenarioSpec& base, const char* policy) {
  WhatIfRequest request;
  request.base = base;
  request.fork_at = 900.0;
  request.policy = policy;
  return request;
}

TEST(WhatIfRun, BaseRunWritesTheObsTraceFile) {
  api::ScenarioSpec spec = base_spec("whatif_traced");
  spec.obs.trace_path = testing::TempDir() + "{name}.trace.json";
  const std::string path = testing::TempDir() + "whatif_traced.trace.json";
  std::remove(path.c_str());

  SimService service;
  (void)service.whatif(whatif_of(spec, "young"));
  ASSERT_TRUE(file_exists(path));
  // The estimation pass is part of the base run, as in ScenarioRunner::run.
  EXPECT_NE(read_file(path).find("\"estimation\""), std::string::npos);
}

TEST(WhatIfRun, ResumeWritesNoTrace) {
  api::ScenarioSpec spec = base_spec("whatif_resume_untraced");
  spec.obs.trace_path = testing::TempDir() + "{name}.trace.json";
  const std::string path =
      testing::TempDir() + "whatif_resume_untraced.trace.json";

  SimService service;
  (void)service.whatif(whatif_of(spec, "young"));
  ASSERT_TRUE(file_exists(path));
  std::remove(path.c_str());

  // A second override at the same fork resumes the parked engine only.
  (void)service.whatif(whatif_of(spec, "daly"));
  EXPECT_EQ(service.stats().snapshot_captures, 1u);
  EXPECT_EQ(service.stats().snapshot_resumes, 2u);
  EXPECT_FALSE(file_exists(path));
}

TEST(WhatIfRun, BankedBaseArtifactCarriesEstimationTime) {
  const api::ScenarioSpec spec = base_spec("whatif_banked");
  SimService service;
  (void)service.whatif(whatif_of(spec, "young"));

  const ServiceReply reply = service.run(spec);
  EXPECT_TRUE(reply.cached);
  EXPECT_GT(reply.artifact->estimation_wall_s, 0.0);
  EXPECT_GT(reply.artifact->wall_time_s, 0.0);
}

TEST(WhatIfRun, StatsSpecFlushesApiTimers) {
  api::ScenarioSpec spec = base_spec("whatif_stats");
  spec.obs.stats = true;
  obs::reset_stats();

  SimService service;
  (void)service.whatif(whatif_of(spec, "young"));
  std::uint64_t estimation_ns = 0;
  for (const obs::StatValue& v : obs::stats_snapshot()) {
    if (v.name == "api.estimation_ns") estimation_ns = v.value;
  }
  EXPECT_GT(estimation_ns, 0u);
}

TEST(WhatIfRun, RejectsNonFiniteOrNegativeDetectionDelay) {
  SimService service;
  WhatIfRequest request = whatif_of(base_spec("whatif_inf"), "");
  for (const double delay : {std::numeric_limits<double>::infinity(), -3.0}) {
    request.detection_delay_s = delay;
    EXPECT_THROW((void)service.whatif(request), std::invalid_argument);
  }
  EXPECT_EQ(service.stats().snapshot_captures, 0u);
}

// A base run that throws leaves no empty fork slot behind: with room for two
// parked engines, the failed request must not evict the first fork.
TEST(WhatIfRun, FailedBaseRunFreesItsForkSlot) {
  ServiceOptions options;
  options.snapshot_capacity = 2;
  SimService service(options);
  auto request = [](double horizon_s, const char* base_policy,
                    const char* policy) {
    WhatIfRequest r;
    r.base.trace.horizon_s = horizon_s;
    r.base.policy = base_policy;
    r.fork_at = 300.0;
    r.policy = policy;
    return r;
  };
  (void)service.whatif(request(600.0, "formula3", "young"));
  EXPECT_THROW((void)service.whatif(request(600.0, "bogus", "young")),
               std::invalid_argument);
  (void)service.whatif(request(700.0, "formula3", "young"));
  (void)service.whatif(request(600.0, "formula3", "daly"));
  EXPECT_EQ(service.stats().snapshot_captures, 2u);
}

}  // namespace
}  // namespace cloudcr::svc
