#pragma once

/// \file fingerprint.hpp
/// \brief Canonical workload fingerprints and spec-keyed cache keys.
///
/// A *trace fingerprint* names the workload a TraceSpec denotes, not the
/// spec text that denotes it: two specs that differ only in key order (or
/// in generator-only fields a file-backed source ignores) fingerprint
/// identically, while the same spec pointed at a log that changed on disk
/// fingerprints differently. File-backed schemes (csv:/google:/slurm:)
/// contribute the resolved path plus nanosecond mtime, size, and inode;
/// synthesizing schemes contribute the full generation tuple (seed,
/// horizon, arrival rate, ...).
///
/// BatchRunner keys its shared trace cache by fingerprint, and SimService
/// keys its artifact LRU by spec hash + fingerprint, so both layers agree
/// on when two requests may share one cursor or one memoized result.

#include <cstdint>
#include <string>
#include <string_view>

#include "api/scenario.hpp"

namespace cloudcr::api {

/// FNV-1a 64-bit hash; stable across runs, platforms, and builds.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s) noexcept;

/// Canonical fingerprint of the workload `spec` denotes. With `restricted`
/// the replay length limit participates (the post-ingestion restriction
/// shapes the replayed trace); without it the limit is normalized away so
/// specs differing only in the limit share one generated/parsed trace.
[[nodiscard]] std::string trace_fingerprint(const TraceSpec& spec,
                                            bool restricted);

/// Cache key for a whole scenario: hash of the canonical serialization
/// plus the fingerprints of every trace the run will read (replay, and the
/// history trace when estimation == history). Key-order variants of the
/// same spec map to one key; an edited source log maps to a fresh one.
[[nodiscard]] std::string scenario_cache_key(const ScenarioSpec& spec);

}  // namespace cloudcr::api
