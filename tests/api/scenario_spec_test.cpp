// ScenarioSpec: serialization round trip, parse diagnostics, and the
// lowering into trace-generator / simulator configs.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "api/scenario.hpp"

namespace cloudcr::api {
namespace {

ScenarioSpec exotic_spec() {
  ScenarioSpec spec;
  spec.name = "fig14_dynamic";
  spec.trace.seed = 20130917;
  spec.trace.horizon_s = 7.0 * 86400.0;
  spec.trace.arrival_rate = 0.116;
  spec.trace.max_jobs = 12345;
  spec.trace.sample_job_filter = false;
  spec.trace.priority_change_midway = true;
  spec.trace.long_service_fraction = 0.07;
  spec.trace.replay_max_task_length_s = 21600.0;
  spec.policy = "fixed:45.5";
  spec.predictor = "grouped:1000";
  spec.estimation = EstimationSource::kHistory;
  spec.history.seed = 99;
  spec.history.horizon_s = 86400.0;
  spec.history.replay_max_task_length_s = 4000.0;
  spec.placement = sim::PlacementMode::kForceLocal;
  spec.adaptation = core::AdaptationMode::kStatic;
  spec.shared_device = storage::DeviceKind::kSharedNfs;
  spec.storage_noise = 0.1;
  spec.sim_seed = 0xabcdef;
  spec.detection_delay_s = 2.5;
  spec.cluster.hosts = 16;
  spec.cluster.vms_per_host = 4;
  spec.cluster.vm_memory_mb = 2048.0;
  return spec;
}

TEST(ScenarioSerialization, RoundTripsDefaults) {
  const ScenarioSpec spec;
  EXPECT_EQ(parse_scenario(serialize(spec)), spec);
}

TEST(ScenarioSerialization, RoundTripsEveryField) {
  const auto spec = exotic_spec();
  const auto parsed = parse_scenario(serialize(spec));
  EXPECT_EQ(parsed, spec);
  // Spot-check a few fields directly so a broken operator== cannot give a
  // vacuous pass.
  EXPECT_EQ(parsed.name, "fig14_dynamic");
  EXPECT_EQ(parsed.policy, "fixed:45.5");
  EXPECT_EQ(parsed.estimation, EstimationSource::kHistory);
  EXPECT_EQ(parsed.history.seed, 99u);
  EXPECT_DOUBLE_EQ(parsed.history.replay_max_task_length_s, 4000.0);
  EXPECT_EQ(parsed.placement, sim::PlacementMode::kForceLocal);
  EXPECT_EQ(parsed.cluster.hosts, 16u);
}

TEST(ScenarioSerialization, RoundTripsTraceSource) {
  ScenarioSpec spec;
  spec.trace.source = "google:/logs/task_events.csv?memory_scale_mb=2048";
  spec.history.source = "csv:/data/history.csv?time_unit=ms";
  const auto parsed = parse_scenario(serialize(spec));
  EXPECT_EQ(parsed, spec);
  EXPECT_EQ(parsed.trace.source, spec.trace.source);
  EXPECT_EQ(parsed.history.source, spec.history.source);
  // Paths with escape-worthy characters survive too.
  ScenarioSpec awkward;
  awkward.trace.source = "csv:/data/with\\backslash\nand newline";
  EXPECT_EQ(parse_scenario(serialize(awkward)).trace.source,
            awkward.trace.source);
}

TEST(ScenarioSerialization, RoundTripsInfinityAndAwkwardDoubles) {
  ScenarioSpec spec;
  spec.trace.replay_max_task_length_s =
      std::numeric_limits<double>::infinity();
  spec.trace.arrival_rate = 0.1 + 0.2;  // 0.30000000000000004
  spec.detection_delay_s = 1e-17;
  const auto parsed = parse_scenario(serialize(spec));
  EXPECT_TRUE(std::isinf(parsed.trace.replay_max_task_length_s));
  EXPECT_EQ(parsed.trace.arrival_rate, spec.trace.arrival_rate);
  EXPECT_EQ(parsed.detection_delay_s, spec.detection_delay_s);
}

TEST(ScenarioSerialization, RoundTripsAwkwardStrings) {
  ScenarioSpec spec;
  spec.name = "line one\nline two\\with backslash";
  spec.policy = "fixed:45";
  const auto parsed = parse_scenario(serialize(spec));
  EXPECT_EQ(parsed, spec);
  EXPECT_EQ(parsed.name, spec.name);
  // A crafted name cannot smuggle a key=value line into the document.
  ScenarioSpec inject;
  inject.name = "x\ntrace.seed=123";
  EXPECT_EQ(parse_scenario(serialize(inject)).trace.seed, TraceSpec{}.seed);
}

TEST(ScenarioSerialization, IgnoresCommentsAndBlankLines) {
  const auto spec = parse_scenario("# a comment\n\nname=x\npolicy=young\n");
  EXPECT_EQ(spec.name, "x");
  EXPECT_EQ(spec.policy, "young");
  // Unlisted fields keep their defaults.
  EXPECT_EQ(spec.predictor, "grouped");
}

TEST(ScenarioSerialization, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_scenario("no_equals_sign"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("unknown_key=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("trace.unknown=1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("trace.seed=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("trace.seed=-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("storage_noise=lots"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("placement=sideways"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("estimation=guesswork"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("shared_device=floppy"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("trace.sample_job_filter=maybe"),
               std::invalid_argument);
}

// strtod reads "nan" in many spellings; a NaN spec value once answered a
// service request with zero completed jobs (cluster.vm_memory_mb) or an
// internal engine error (storage_noise). The parser rejects them all,
// naming the key and the value.
TEST(ScenarioSerialization, RejectsNaNNamingKeyAndValue) {
  for (const std::string key : {"cluster.vm_memory_mb", "storage_noise"}) {
    for (const std::string value :
         {"nan", "NaN", "-nan", "+NAN", "nan(0x7ff)", " nan"}) {
      SCOPED_TRACE(key + "=" + value);
      try {
        (void)parse_scenario(key + "=" + value + "\n");
        ADD_FAILURE() << "NaN was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("scenario key '" + key +
                                             "' = '" + value + "'"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(EnumTokens, RoundTrip) {
  for (const auto mode :
       {sim::PlacementMode::kAutoSelect, sim::PlacementMode::kForceLocal,
        sim::PlacementMode::kForceShared}) {
    EXPECT_EQ(parse_placement(placement_token(mode)), mode);
  }
  for (const auto mode :
       {core::AdaptationMode::kAdaptive, core::AdaptationMode::kStatic}) {
    EXPECT_EQ(parse_adaptation(adaptation_token(mode)), mode);
  }
  for (const auto kind :
       {storage::DeviceKind::kLocalRamdisk, storage::DeviceKind::kSharedNfs,
        storage::DeviceKind::kDmNfs}) {
    EXPECT_EQ(parse_device(device_token(kind)), kind);
  }
  for (const auto source :
       {EstimationSource::kReplay, EstimationSource::kFull,
        EstimationSource::kHistory}) {
    EXPECT_EQ(parse_estimation(estimation_token(source)), source);
  }
}

TEST(ScenarioLowering, GeneratorConfigCarriesTraceFields) {
  const auto spec = exotic_spec();
  const auto cfg = to_generator_config(spec.trace);
  EXPECT_EQ(cfg.seed, spec.trace.seed);
  EXPECT_DOUBLE_EQ(cfg.horizon_s, spec.trace.horizon_s);
  EXPECT_DOUBLE_EQ(cfg.arrival_rate, spec.trace.arrival_rate);
  EXPECT_EQ(cfg.max_jobs, spec.trace.max_jobs);
  EXPECT_FALSE(cfg.sample_job_filter);
  EXPECT_TRUE(cfg.priority_change_midway);
  EXPECT_DOUBLE_EQ(cfg.workload.long_service_fraction, 0.07);
}

TEST(ScenarioLowering, NegativeServiceFractionKeepsModelDefault) {
  TraceSpec trace;
  trace.long_service_fraction = -1.0;
  const auto cfg = to_generator_config(trace);
  EXPECT_DOUBLE_EQ(cfg.workload.long_service_fraction,
                   trace::WorkloadConfig{}.long_service_fraction);
}

TEST(ScenarioLowering, SimConfigCarriesRunFields) {
  const auto spec = exotic_spec();
  const auto cfg = to_sim_config(spec);
  EXPECT_EQ(cfg.placement, spec.placement);
  EXPECT_EQ(cfg.adaptation, spec.adaptation);
  EXPECT_EQ(cfg.shared_kind, spec.shared_device);
  EXPECT_DOUBLE_EQ(cfg.storage_noise, spec.storage_noise);
  EXPECT_EQ(cfg.seed, spec.sim_seed);
  EXPECT_DOUBLE_EQ(cfg.detection_delay_s, spec.detection_delay_s);
  EXPECT_EQ(cfg.cluster.hosts, spec.cluster.hosts);
  EXPECT_EQ(cfg.cluster.vms_per_host, spec.cluster.vms_per_host);
}

}  // namespace
}  // namespace cloudcr::api
