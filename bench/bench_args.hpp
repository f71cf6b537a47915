#pragma once

/// \file bench_args.hpp
/// \brief repro_report's CLI helpers: checked flag values, the trace-input
/// overrides (--seed/--horizon/--jobs/--trace), and the artifact exports
/// (--artifacts-json/--artifacts-csv).

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/artifact_io.hpp"
#include "api/scenario.hpp"
#include "ingest/registry.hpp"

namespace cloudcr::bench {

/// The value of flag argv[i] (advancing i past it); exits 2 when missing.
inline std::string flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::cerr << argv[0] << ": " << argv[i] << " needs a value\n";
    std::exit(2);
  }
  ++i;
  return argv[i];
}

/// Checked numeric flag values; a malformed one exits 2 naming the flag.
inline std::uint64_t u64_flag(int argc, char** argv, int& i) {
  const std::string flag = argv[i];
  try {
    return api::parse_checked_u64(flag, flag_value(argc, argv, i));
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    std::exit(2);
  }
}

inline double double_flag(int argc, char** argv, int& i) {
  const std::string flag = argv[i];
  try {
    return api::parse_checked_double(flag, flag_value(argc, argv, i));
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    std::exit(2);
  }
}

/// The trace-input overrides (--seed/--horizon/--jobs/--trace).
struct TraceOverrides {
  std::optional<std::uint64_t> seed;
  std::optional<double> horizon_s;
  std::optional<std::size_t> jobs;
  std::optional<std::string> source;

  [[nodiscard]] bool any() const {
    return seed || horizon_s || jobs || source;
  }

  /// Applies the overrides to a TraceSpec.
  void apply(api::TraceSpec& spec) const {
    if (seed) spec.seed = *seed;
    if (horizon_s) spec.horizon_s = *horizon_s;
    if (jobs) spec.max_jobs = *jobs;
    if (source) spec.source = *source;
  }

  /// Consumes argv[i] and its value when it is one of the four flags
  /// (exiting 2 on a malformed value); returns false for any other flag.
  bool parse_flag(int argc, char** argv, int& i) {
    const std::string flag = argv[i];
    if (flag == "--seed") {
      seed = u64_flag(argc, argv, i);
    } else if (flag == "--horizon") {
      horizon_s = double_flag(argc, argv, i);
    } else if (flag == "--jobs") {
      jobs = static_cast<std::size_t>(u64_flag(argc, argv, i));
    } else if (flag == "--trace") {
      source = flag_value(argc, argv, i);
      try {
        // Validates the scheme/mapping and — via probe() — that a
        // file-backed source's input actually opens, so a typo'd path
        // fails here instead of aborting mid-run.
        ingest::TraceSourceRegistry::instance().make(*source)->probe();
      } catch (const std::exception& e) {
        std::cerr << argv[0] << ": --trace: " << e.what() << "\n";
        std::exit(2);
      }
    } else {
      return false;
    }
    return true;
  }
};

/// Writes artifacts as JSON and/or CSV summary rows (an empty path skips
/// that format) and prints where they went. Returns false (after reporting
/// to stderr) when a requested export could not be written, so main() can
/// exit nonzero.
[[nodiscard]] inline bool export_artifacts(
    const std::string& json_path, const std::string& csv_path,
    const std::vector<api::RunArtifact>& artifacts) {
  bool ok = true;
  if (!json_path.empty()) {
    if (api::write_artifacts_json_file(json_path, artifacts)) {
      std::cout << "# artifacts: " << json_path << " (JSON, "
                << artifacts.size() << " runs)\n";
    } else {
      std::cerr << "cannot write " << json_path << "\n";
      ok = false;
    }
  }
  if (!csv_path.empty()) {
    if (api::write_artifacts_csv_file(csv_path, artifacts)) {
      std::cout << "# artifacts: " << csv_path << " (CSV summary)\n";
    } else {
      std::cerr << "cannot write " << csv_path << "\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace cloudcr::bench
