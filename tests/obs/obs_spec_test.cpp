// ObsSpec: the obs= value grammar — serialize/parse round trips, parse
// diagnostics, and the integration with the ScenarioSpec key-context error
// shape ("scenario key '<key>' = '<value>': ...") the CLI surfaces pin.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "api/scenario.hpp"
#include "obs/spec.hpp"

namespace cloudcr::obs {
namespace {

ObsSpec full_spec() {
  ObsSpec spec;
  spec.stats = true;
  spec.probe_interval_s = 3600.5;
  spec.trace_path = "out/{name}.trace.json";
  spec.trace_window_begin_s = 86400.0;
  spec.trace_window_end_s = 172800.25;
  spec.trace_categories = "job|vm";
  spec.trace_ring = 4096;
  return spec;
}

TEST(ObsSpec, DefaultSerializesEmptyAndIsDisabled) {
  const ObsSpec spec;
  EXPECT_EQ(serialize_obs(spec), "");
  EXPECT_EQ(parse_obs(""), spec);
  EXPECT_FALSE(enabled(spec));
}

TEST(ObsSpec, RoundTripsEveryField) {
  const ObsSpec spec = full_spec();
  EXPECT_TRUE(enabled(spec));
  const ObsSpec parsed = parse_obs(serialize_obs(spec));
  EXPECT_EQ(parsed, spec);
  // Spot-check against a vacuous operator==.
  EXPECT_TRUE(parsed.stats);
  EXPECT_DOUBLE_EQ(parsed.probe_interval_s, 3600.5);
  EXPECT_EQ(parsed.trace_path, "out/{name}.trace.json");
  EXPECT_EQ(parsed.trace_categories, "job|vm");
  EXPECT_EQ(parsed.trace_ring, 4096u);
}

TEST(ObsSpec, RoundTripsInfiniteWindowEnd) {
  ObsSpec spec;
  spec.trace_path = "t.json";
  spec.trace_window_begin_s = 100.0;
  // End stays the default infinity: serialized as "window:100-inf".
  const std::string text = serialize_obs(spec);
  EXPECT_NE(text.find("window:100-inf"), std::string::npos);
  const ObsSpec parsed = parse_obs(text);
  EXPECT_EQ(parsed, spec);
  EXPECT_TRUE(std::isinf(parsed.trace_window_end_s));
}

TEST(ObsSpec, RoundTripsExponentBounds) {
  // max_digits10 text puts small and large bounds in exponent form; neither
  // the exponent's '-' nor its '+' may split the value.
  for (const double begin : {1e-05, 1.5e-300, 0.0}) {
    for (const double end : {2e-05, 1e20, 3.25e300}) {
      SCOPED_TRACE(std::to_string(begin) + "-" + std::to_string(end));
      ObsSpec spec;
      spec.probe_interval_s = end;
      spec.trace_path = "t.json";
      spec.trace_window_begin_s = begin;
      spec.trace_window_end_s = end;
      EXPECT_EQ(parse_obs(serialize_obs(spec)), spec) << serialize_obs(spec);
    }
  }
  const ObsSpec parsed = parse_obs("window:1e-3-10");
  EXPECT_DOUBLE_EQ(parsed.trace_window_begin_s, 1e-3);
  EXPECT_DOUBLE_EQ(parsed.trace_window_end_s, 10.0);
  const ObsSpec upper = parse_obs("window:2E-3-1E-2");
  EXPECT_DOUBLE_EQ(upper.trace_window_begin_s, 2e-3);
  EXPECT_DOUBLE_EQ(upper.trace_window_end_s, 1e-2);
}

TEST(ObsSpec, RejectsNaNBounds) {
  for (const std::string text :
       {"window:nan-10", "window:0-nan", "window:NaN-inf", "window:-nan-5",
        "probe:nan", "probe:NAN"}) {
    SCOPED_TRACE(text);
    try {
      (void)parse_obs(text);
      ADD_FAILURE() << "NaN was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("not a number"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ObsSpec, ParsesEachFeatureIndependently) {
  EXPECT_TRUE(parse_obs("stats").stats);
  EXPECT_DOUBLE_EQ(parse_obs("probe:60").probe_interval_s, 60.0);
  EXPECT_EQ(parse_obs("trace:a.json").trace_path, "a.json");
  EXPECT_EQ(parse_obs("ring:8").trace_ring, 8u);
  const ObsSpec windowed = parse_obs("window:5-10");
  EXPECT_DOUBLE_EQ(windowed.trace_window_begin_s, 5.0);
  EXPECT_DOUBLE_EQ(windowed.trace_window_end_s, 10.0);
}

TEST(ObsSpec, RejectsMalformedValues) {
  EXPECT_THROW(parse_obs("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_obs("stats+bogus:1"), std::invalid_argument);
  EXPECT_THROW(parse_obs("probe:abc"), std::invalid_argument);
  EXPECT_THROW(parse_obs("probe:0"), std::invalid_argument);
  EXPECT_THROW(parse_obs("probe:-5"), std::invalid_argument);
  EXPECT_THROW(parse_obs("trace:"), std::invalid_argument);
  EXPECT_THROW(parse_obs("window:10"), std::invalid_argument);
  EXPECT_THROW(parse_obs("window:10-5"), std::invalid_argument);
  EXPECT_THROW(parse_obs("cats:job|bogus"), std::invalid_argument);
  EXPECT_THROW(parse_obs("ring:0"), std::invalid_argument);
  EXPECT_THROW(parse_obs("ring:1.5"), std::invalid_argument);
  // Unknown features name themselves and list the known grammar.
  try {
    parse_obs("stats+bogus:1");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'bogus:1'"), std::string::npos);
    EXPECT_NE(what.find("stats, probe:<s>"), std::string::npos);
  }
}

TEST(ObsSpec, ScenarioSpecCarriesAndRoundTripsObs) {
  api::ScenarioSpec spec;
  spec.name = "obs_roundtrip";
  spec.obs = full_spec();
  const api::ScenarioSpec parsed = api::parse_scenario(api::serialize(spec));
  EXPECT_EQ(parsed, spec);
  EXPECT_EQ(parsed.obs, spec.obs);
}

TEST(ObsSpec, ScenarioParseErrorNamesKeyAndValue) {
  // The registry error-context contract: a bad obs= value reports the
  // scenario key AND the offending value, then the underlying diagnostic.
  try {
    api::parse_scenario("obs=probe:never\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scenario key 'obs' = 'probe:never':"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("malformed number 'never'"), std::string::npos)
        << what;
  }
}

TEST(ObsSpec, ObsIsLoweredIntoSimConfig) {
  api::ScenarioSpec spec;
  spec.obs.stats = true;
  spec.obs.probe_interval_s = 120.0;
  const sim::SimConfig cfg = api::to_sim_config(spec);
  EXPECT_TRUE(cfg.collect_stats);
  EXPECT_DOUBLE_EQ(cfg.probe_interval_s, 120.0);
}

}  // namespace
}  // namespace cloudcr::obs
