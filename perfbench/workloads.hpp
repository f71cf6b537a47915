#pragma once

#include "common.hpp"

namespace perfbench {

/// One streamed ScenarioRunner::run of the synthetic Google-like month.
Result run_month_replay(const Options& options);

/// report::run_report over every registry entry, gated against the
/// checked-in expected values.
Result run_repro_matrix(const Options& options);

/// Two closed-loop clients driving an in-process SimService through the
/// NDJSON protocol functions with a hit / miss / what-if request mix.
Result run_service_mixed(const Options& options);

/// 64-bit mix of a seed and a stream label (splitmix64 finalizer), so each
/// workload derives independent inputs from the one --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
