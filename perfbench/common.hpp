#pragma once

// Shared pieces of the perfbench binary: options, timing, output digests,
// percentiles, and the result record every workload fills in.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/runner.hpp"
#include "layers.hpp"

namespace perfbench {

namespace api = cloudcr::api;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Where runs write spans and fixtures, relative to the working directory
/// (the checkout root) so file specs, and with them the digests, do not
/// depend on where the checkout lives.
inline constexpr const char* kOutDir = ".bench_out";

/// Digest of an artifact: its summary JSON with the host-side fields (wall
/// times, peak RSS) zeroed, then every field of every per-job outcome row in
/// binary — so any moved simulated statistic changes it, and nothing else
/// does. (Hashing the outcome rows as JSON text would take as long as a
/// month replay itself.)
std::uint64_t artifact_digest(const api::RunArtifact& artifact);

/// Canonical JSON text (host fields zeroed), for byte-for-byte compares.
std::string canonical_json(api::RunArtifact artifact);

/// Order-dependent combination of digests.
inline std::uint64_t mix(std::uint64_t acc, std::uint64_t v) noexcept {
  acc ^= v + 0x9e3779b97f4a7c15ull + (acc << 6) + (acc >> 2);
  return acc;
}

std::string hex64(std::uint64_t v);

/// Nearest-rank percentile (p in [0,100]) of an unsorted sample; 0 when
/// empty.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// One named number of a run.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What a workload hands back to main(): correctness accounting, the
/// end-to-end metrics (untraced runs), the per-layer metrics (traced runs),
/// the workload's own named metrics, and its output digest.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  std::vector<Metric> end_to_end;  ///< names listed in BENCHMARK.json
  std::vector<Metric> named;       ///< the workload's own metric names
  std::vector<Metric> layers;      ///< per-layer metrics (traced runs)

  std::string digest;              ///< output digest (hex)
  std::vector<std::string> notes;  ///< extra human-readable lines

  void fail(const std::string& what);
  void set_layer(const std::string& name, double value, const std::string& unit,
                 std::size_t samples = 1);
};

/// Fills every metric of the BENCHMARK.json per-layer list with 0 so a
/// workload only sets the layers it crosses (the untouched ones then read
/// as a measured zero, e.g. svc.hits on month_replay); host.nproc is set.
void init_layer_metrics(Result& result);

/// Sums over one operation's artifacts of the fields the layer metrics read.
struct RunTotals {
  double run_s = 0.0;  ///< estimation + replay wall
  double estimation_s = 0.0;
  double replay_s = 0.0;
  double tasks = 0.0;
  double trace_reads = 0.0;
  double rows_read = 0.0;
  double events = 0.0;
  double checkpoints = 0.0;
  double failures = 0.0;
  double backfilled = 0.0;
  double preempted = 0.0;

  void add(const api::RunArtifact& artifact);
};

/// Field-wise medians over operations. The counts repeat exactly from one
/// operation to the next, so only the times are really medians.
RunTotals median_of(const std::vector<RunTotals>& ops);
layers::Tally median_of(const std::vector<layers::Tally>& ops);

/// Sets the api, ingest, estimate, core, sched and sim layer metrics of an
/// operation from its artifact totals and its layer tally. sim.self_s is
/// the replay wall minus the time inside the policy and scheduler calls.
void set_run_layers(Result& result, const RunTotals& totals,
                    const layers::Tally& tally, std::size_t samples);

/// Path under kOutDir (created on demand).
std::string out_path(const std::string& file);

}  // namespace perfbench
