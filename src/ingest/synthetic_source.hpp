#pragma once

/// \file synthetic_source.hpp
/// \brief TraceSource adapter over the synthetic trace generator.
///
/// Wraps trace::TraceGenerator so the existing modeled workload plugs into
/// the same TraceSource seam as external logs: registry spec "synthetic",
/// with the generation parameters supplied by the caller (api::make_trace
/// lowers them from the owning TraceSpec).

#include <string>

#include "ingest/source.hpp"
#include "trace/generator.hpp"

namespace cloudcr::ingest {

class SyntheticSource final : public TraceSource {
 public:
  explicit SyntheticSource(trace::GeneratorConfig config)
      : config_(config) {}

  [[nodiscard]] const trace::GeneratorConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] std::string describe() const override;

  /// Pull stream straight off the generator's RNG cursor: jobs are
  /// produced on demand, so a month-scale trace never becomes resident.
  /// The report counts one "row" per generated task (nothing is ever
  /// skipped — the generator only emits valid records).
  [[nodiscard]] StreamPtr open_stream() const override;

  /// drain(*open_stream()).
  [[nodiscard]] IngestResult load() const override;

  /// Generation is incremental: memory is bounded by the pull batch size.
  [[nodiscard]] bool streams_lazily() const override { return true; }

 private:
  trace::GeneratorConfig config_;
};

}  // namespace cloudcr::ingest
