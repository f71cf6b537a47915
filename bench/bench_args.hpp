#pragma once

/// \file bench_args.hpp
/// \brief Shared CLI flags for the hand-rolled bench binaries (the
/// ablations; the paper's figures and tables run through repro_report,
/// which takes the same trace and obs flags).
///
/// Every such bench accepts the same overrides instead of per-binary
/// constants:
///   --seed N        trace seed
///   --horizon S     trace horizon in seconds
///   --jobs N        cap on generated jobs (0 = unlimited)
///   --trace SPEC    trace source ("synthetic", "csv:<path>",
///                   "google:<path>"); replays an ingested workload instead
///                   of the synthetic generator
///   --threads N     BatchRunner worker threads (0 = hardware)
///   --json PATH     export RunArtifacts as JSON
///   --csv PATH      export RunArtifact summary rows as CSV
///   --stats         collect + print the obs counter registry
///   --probe-interval S  sample a time-series probe every S simulated
///                   seconds into each artifact
///   --trace-out PATH  write a Chrome trace-event JSON per scenario
///                   ("{name}" expands to the scenario name)
///   -h / --help     usage
///
/// Flags the binary does not consult are still parsed (so `--threads 8`
/// never errors); each bench applies the subset that makes sense via the
/// apply()/ *_or() helpers.

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
#include "obs/stats.hpp"

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

/// The trace-input overrides (--seed/--horizon/--jobs/--trace), shared by
/// the ablations and repro_report.
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

struct BenchArgs {
  TraceOverrides trace;
  std::optional<std::size_t> threads;
  std::string json_path;
  std::string csv_path;

  // Observability (all off by default; purely additive to results).
  bool stats = false;
  double probe_interval_s = 0.0;
  std::string trace_out;

  [[nodiscard]] std::size_t threads_or(std::size_t fallback) const {
    return threads.value_or(fallback);
  }

  /// Lowers the obs flags into a scenario's ObsSpec (additive: fields the
  /// flags don't cover keep whatever the spec already carried).
  void apply_obs(api::ScenarioSpec& spec) const {
    if (stats) spec.obs.stats = true;
    if (probe_interval_s > 0.0) spec.obs.probe_interval_s = probe_interval_s;
    if (!trace_out.empty()) spec.obs.trace_path = trace_out;
  }

  [[nodiscard]] bool obs_enabled() const {
    return stats || probe_interval_s > 0.0 || !trace_out.empty();
  }

  /// Prints the merged counter registry to stderr when --stats was given
  /// (text form, timers included).
  void print_stats() const {
    if (!stats) return;
    std::cerr << "# obs stats (merged registry):\n";
    obs::write_stats_text(std::cerr);
  }

  /// Parses argv; prints usage and exits on -h/--help or malformed input.
  /// Benches that produce no RunArtifacts pass `exports = false`: --json and
  /// --csv are then rejected (instead of silently dropped) and left out of
  /// the usage text.
  static BenchArgs parse(int argc, char** argv, bool exports = true) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "-h" || flag == "--help") {
        std::cout << "usage: " << argv[0]
                  << " [--seed N] [--horizon S] [--jobs N] [--trace SPEC]"
                  << " [--threads N]"
                  << (exports ? " [--json PATH] [--csv PATH]" : "")
                  << " [--stats] [--probe-interval S] [--trace-out PATH]"
                  << "\n";
        std::exit(0);
      } else if ((flag == "--json" || flag == "--csv") && !exports) {
        std::cerr << argv[0] << ": " << flag
                  << " is not supported (this bench produces no artifacts)\n";
        std::exit(2);
      } else if (args.trace.parse_flag(argc, argv, i)) {
        continue;
      } else if (flag == "--threads") {
        args.threads = static_cast<std::size_t>(u64_flag(argc, argv, i));
      } else if (flag == "--json") {
        args.json_path = flag_value(argc, argv, i);
      } else if (flag == "--csv") {
        args.csv_path = flag_value(argc, argv, i);
      } else if (flag == "--stats") {
        args.stats = true;
      } else if (flag == "--probe-interval") {
        args.probe_interval_s = double_flag(argc, argv, i);
        if (!(args.probe_interval_s > 0.0)) {
          std::cerr << argv[0] << ": --probe-interval must be > 0\n";
          std::exit(2);
        }
      } else if (flag == "--trace-out") {
        args.trace_out = flag_value(argc, argv, i);
      } else {
        std::cerr << argv[0] << ": unknown flag '" << flag
                  << "' (try --help)\n";
        std::exit(2);
      }
    }
    return args;
  }
};

}  // namespace cloudcr::bench
