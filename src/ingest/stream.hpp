#pragma once

/// \file stream.hpp
/// \brief TaskStream: the chunked pull interface of the streaming trace
/// pipeline.
///
/// The paper replays a one-month cluster trace; at production scale such
/// workloads do not fit resident. A TaskStream turns ingestion inside out:
/// instead of a source materializing a full trace::Trace, consumers *pull*
/// arrival-ordered job chunks on demand, so the replay engine can admit
/// work lazily and keep memory bounded by the active set
/// (sim::Simulation::run), not the trace.
///
/// The TaskStream contract:
///   - next_batch(n, out) appends up to n jobs to `out` and returns the
///     number appended; 0 means the stream is exhausted (and exhausted()
///     turns true). Jobs come in non-decreasing arrival order, each with
///     its complete TaskRecord span (records never split across chunks).
///   - A stream is single-use and forward-only; open a fresh stream from
///     the source for another pass.
///   - report() exposes the incremental IngestReport: counters cover the
///     rows consumed so far and equal the load() report once exhausted.
///   - horizon_s() is the trace horizon; it is final once exhausted() (a
///     lazily generating source may know it up front).
///   - Determinism: draining a stream yields exactly the trace the owning
///     source's load() returns — drain(*source.open_stream()) == load(),
///     pinned by tests/ingest/stream_test.cpp.
///
/// Whether streaming also bounds *ingestion* memory depends on the format
/// (TraceSource::streams_lazily): the synthetic generator yields jobs
/// straight out of its RNG cursor, while event logs (csv/google) must
/// aggregate the whole input before any job is complete — their streams
/// chunk the materialized result, releasing each consumed job's storage.

#include <cstddef>
#include <memory>
#include <vector>

#include "ingest/source.hpp"
#include "trace/records.hpp"

namespace cloudcr::ingest {

/// Pull cursor over an arrival-ordered job sequence (contract above).
class TaskStream {
 public:
  virtual ~TaskStream() = default;

  TaskStream() = default;
  TaskStream(const TaskStream&) = delete;
  TaskStream& operator=(const TaskStream&) = delete;

  /// Appends up to `max_jobs` (> 0) jobs to `out` (which is not cleared).
  /// Returns the number appended; 0 <=> exhausted.
  virtual std::size_t next_batch(std::size_t max_jobs,
                                 std::vector<trace::JobRecord>& out) = 0;

  /// True once every job has been yielded.
  [[nodiscard]] virtual bool exhausted() const = 0;

  /// Trace horizon (s); final once exhausted().
  [[nodiscard]] virtual double horizon_s() const = 0;

  /// Incremental row accounting (final once exhausted()).
  [[nodiscard]] virtual const IngestReport& report() const = 0;
};

/// Stream over an already-materialized ingestion result — the chunking
/// fallback for formats that need whole-input aggregation (event logs).
/// Yields the result's jobs in order, releasing each consumed job's task
/// storage, so downstream memory still shrinks as the replay progresses.
class ChunkedTraceStream final : public TaskStream {
 public:
  explicit ChunkedTraceStream(IngestResult result)
      : result_(std::move(result)) {}

  std::size_t next_batch(std::size_t max_jobs,
                         std::vector<trace::JobRecord>& out) override;

  [[nodiscard]] bool exhausted() const override {
    return next_ >= result_.trace.jobs.size();
  }

  [[nodiscard]] double horizon_s() const override {
    return result_.trace.horizon_s;
  }

  [[nodiscard]] const IngestReport& report() const override {
    return result_.report;
  }

 private:
  IngestResult result_;
  std::size_t next_ = 0;
};

/// Materializes a stream: pulls until exhaustion and reassembles the
/// IngestResult. For any TraceSource, drain(*open_stream()) == load().
IngestResult drain(TaskStream& stream);

}  // namespace cloudcr::ingest
