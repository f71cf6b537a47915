#pragma once

/// \file batch.hpp
/// \brief Parallel execution of a vector of ScenarioSpecs, plus evaluation
/// items that read whole traces, on one work queue.
///
/// The experiment grids behind the paper's figures are embarrassingly
/// parallel: every spec is self-contained (its own trace seed, sim seed, and
/// registry names), so the batch result is a pure function of the spec
/// vector. BatchRunner exploits that with a std::thread pool while keeping
/// the output *bit-identical* to a serial loop: artifacts land at the index
/// of their spec, and nothing a worker does depends on scheduling (the
/// property test in tests/api/batch_runner_test.cpp pins this guarantee).
///
/// Identical TraceSpecs across a batch (the common "same trace, N policies"
/// paired-comparison shape) generate their trace once via a memoizing
/// TraceCache; generation is deterministic, so sharing cannot change
/// results, only wall time. The cache counts every planned use before
/// dispatch and drops a trace when its last user finishes, and the pool
/// dispatches the largest expected trace first, so the longest runs start
/// early instead of forming a tail.

#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/runner.hpp"

namespace cloudcr::api {

struct BatchOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t threads = 0;

  /// Optional progress callback, invoked once per finished artifact (in
  /// completion order, under an internal mutex — callers need no locking)
  /// with the artifact, the number finished so far, and the batch size.
  /// Purely observational: artifacts and their order are unaffected. Keep it
  /// cheap — every worker serializes through it.
  std::function<void(const RunArtifact&, std::size_t done, std::size_t total)>
      progress;
};

/// A whole trace an evaluation item reads: the unrestricted trace
/// (make_trace), or with `replay_view` the replay set (make_replay_trace).
struct TraceRequest {
  TraceSpec spec;
  bool replay_view = false;
};

/// Memoizing, use-counted trace store shared by one batch. The first worker
/// to request a key generates the trace (outside the lock, via a
/// shared_future, so other keys proceed concurrently); later workers block
/// on the same future. Traces are immutable after generation and safely
/// shared across threads. Keys are trace fingerprints (api/fingerprint.hpp),
/// so key-order variants of one spec share one trace while an edited log
/// file keys a fresh one.
class TraceCache {
 public:
  /// Same trace as make_trace(spec).
  std::shared_ptr<const trace::Trace> get_full(const TraceSpec& spec);

  /// Same trace as make_replay_trace(spec). A finite replay limit is cut
  /// from the cached full trace, so specs differing only in the limit pay
  /// generation once.
  std::shared_ptr<const trace::Trace> get_replay(const TraceSpec& spec);

 private:
  friend class BatchRunner;
  using TracePtr = std::shared_ptr<const trace::Trace>;

  /// The request's trace (get_replay or get_full).
  TracePtr get(const TraceRequest& request);

  /// Counts one planned use of `request` (calling thread, before dispatch).
  /// A restricted replay view also counts one use of the full trace it is
  /// cut from, consumed when the view is generated.
  void plan(const TraceRequest& request);

  /// Ends one planned use; the cache drops its reference at the last one
  /// (users still holding the trace keep it alive). Unplanned keys stay
  /// cached until the cache is destroyed.
  void release(const TraceRequest& request);

  template <typename Factory>
  TracePtr get(const std::string& key, Factory&& factory);

  // Guards both maps; plan() writes uses_ unlocked, before any worker starts.
  std::mutex mutex_;
  std::map<std::string, std::shared_future<TracePtr>> futures_;
  std::map<std::string, std::size_t> uses_;
};

/// Non-replay work run on the batch pool next to the specs (the report's
/// trace-statistics entries). `run` reads its traces from the batch's
/// cache; every trace it reads must be listed in `traces`, which is what
/// the cache counts uses by and what the dispatch order sizes the item by.
struct BatchItem {
  std::vector<TraceRequest> traces;
  std::function<void(TraceCache& cache)> run;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  /// Runs every spec and every item on one pool and returns artifacts in
  /// spec order. Parallel results are bit-identical to a serial run. The
  /// hooks (if any) apply to every spec, except RunHooks::workspace, which
  /// is replaced by a per-worker pool (a shared one would race). Work is
  /// dispatched largest expected trace first (horizon x arrival rate,
  /// capped by max_jobs; sources that are not synthetic sort as largest),
  /// stable in input order, items before specs on ties. The first
  /// exception, from a spec or an item, stops further dispatch and is
  /// rethrown on the calling thread.
  [[nodiscard]] std::vector<RunArtifact> run(
      const std::vector<ScenarioSpec>& specs, const RunHooks& hooks = {},
      const std::vector<BatchItem>& items = {}) const;

  [[nodiscard]] const BatchOptions& options() const noexcept {
    return options_;
  }

 private:
  BatchOptions options_;
};

}  // namespace cloudcr::api
