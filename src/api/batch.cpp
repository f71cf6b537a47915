#include "api/batch.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "api/fingerprint.hpp"
#include "api/registry.hpp"
#include "api/scenario.hpp"

namespace cloudcr::api {

namespace {

bool restricted(const TraceRequest& request) {
  return request.replay_view &&
         !std::isinf(request.spec.replay_max_task_length_s);
}

/// Cache key of a request: the canonical workload fingerprint, with the
/// replay limit participating only for a restricted view.
std::string trace_key(const TraceRequest& request) {
  return trace_fingerprint(request.spec, restricted(request));
}

/// Expected job count of a trace, read from its spec: horizon x arrival
/// rate, capped by max_jobs. Sources that are not synthetic size their
/// trace from the log, unknown here, so they sort as largest (and keep
/// their relative order). Non-finite or negative products sort as empty.
double expected_jobs(const TraceSpec& spec) {
  if (spec.source != "synthetic") return HUGE_VAL;
  double jobs = spec.horizon_s * spec.arrival_rate;
  if (spec.max_jobs > 0) {
    jobs = std::min(jobs, static_cast<double>(spec.max_jobs));
  }
  return jobs >= 0.0 && jobs < HUGE_VAL ? jobs : 0.0;
}

/// The cache reads one spec makes, decided once before dispatch so the
/// planned use counts and the worker's requests cannot disagree.
struct SpecReads {
  std::optional<TraceRequest> replay;
  std::optional<TraceRequest> estimation;
  bool estimate_on_replay = false;  ///< estimation_trace = replay_trace
};

SpecReads reads_of(const ScenarioSpec& spec, const RunHooks& hooks) {
  SpecReads reads;
  if (hooks.replay_trace == nullptr) {
    reads.replay = TraceRequest{spec.trace, /*replay_view=*/true};
  }
  // A predictor that wants no observations (oracle) needs no estimation
  // trace pinned — probing the builder is cheap and skips a whole cache
  // entry for kFull/kHistory specs.
  const bool wants_observations =
      !hooks.predictor_override && hooks.estimation_trace == nullptr &&
      with_key_context("predictor", spec.predictor, [&] {
        return PredictorRegistry::instance()
            .make_builder(spec.predictor)
            ->wants_observations();
      });
  if (!wants_observations) return reads;
  switch (spec.estimation) {
    case EstimationSource::kReplay:
      reads.estimate_on_replay = true;
      break;
    case EstimationSource::kFull:
      reads.estimation = TraceRequest{spec.trace, /*replay_view=*/false};
      break;
    case EstimationSource::kHistory:
      reads.estimation = TraceRequest{spec.history, /*replay_view=*/true};
      break;
  }
  return reads;
}

}  // namespace

template <typename Factory>
TraceCache::TracePtr TraceCache::get(const std::string& key,
                                     Factory&& factory) {
  std::promise<TracePtr> promise;
  std::shared_future<TracePtr> future;
  bool creator = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = futures_.find(key);
    if (it == futures_.end()) {
      future = promise.get_future().share();
      futures_.emplace(key, future);
      creator = true;
    } else {
      future = it->second;
    }
  }
  if (creator) {
    try {
      promise.set_value(std::make_shared<const trace::Trace>(factory()));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

std::shared_ptr<const trace::Trace> TraceCache::get_full(
    const TraceSpec& spec) {
  return get(TraceRequest{spec, /*replay_view=*/false});
}

std::shared_ptr<const trace::Trace> TraceCache::get_replay(
    const TraceSpec& spec) {
  return get(TraceRequest{spec, /*replay_view=*/true});
}

TraceCache::TracePtr TraceCache::get(const TraceRequest& request) {
  if (!restricted(request)) {
    return get(trace_key(request), [&] { return make_trace(request.spec); });
  }
  // Restrict the (shared) full trace rather than regenerating it, so specs
  // differing only in the replay limit pay generation once.
  return get(trace_key(request), [&] {
    const TraceRequest full{request.spec, /*replay_view=*/false};
    trace::Trace view = trace::restrict_length(
        *get(full), request.spec.replay_max_task_length_s);
    release(full);
    return view;
  });
}

void TraceCache::plan(const TraceRequest& request) {
  if (uses_[trace_key(request)]++ == 0 && restricted(request)) {
    ++uses_[trace_key(TraceRequest{request.spec, /*replay_view=*/false})];
  }
}

void TraceCache::release(const TraceRequest& request) {
  const std::string key = trace_key(request);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = uses_.find(key);
  if (it == uses_.end() || --it->second > 0) return;
  uses_.erase(it);
  futures_.erase(key);
}

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {}

std::vector<RunArtifact> BatchRunner::run(
    const std::vector<ScenarioSpec>& specs, const RunHooks& hooks,
    const std::vector<BatchItem>& items) const {
  std::vector<RunArtifact> artifacts(specs.size());
  const std::size_t work = items.size() + specs.size();
  if (work == 0) return artifacts;

  std::size_t threads = options_.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (threads > work) threads = work;

  // Plan: what every spec reads, the use count of every cache key, and the
  // dispatch order. Work index w < items.size() is item w, the rest spec
  // w - items.size(), so the stable sort puts items first on ties.
  TraceCache cache;
  std::vector<SpecReads> reads;
  reads.reserve(specs.size());
  std::vector<double> size(work, 0.0);
  for (std::size_t k = 0; k < items.size(); ++k) {
    for (const TraceRequest& request : items[k].traces) {
      cache.plan(request);
      size[k] = std::max(size[k], expected_jobs(request.spec));
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    reads.push_back(reads_of(specs[i], hooks));
    if (reads.back().replay) cache.plan(*reads.back().replay);
    if (reads.back().estimation) cache.plan(*reads.back().estimation);
    size[items.size() + i] = expected_jobs(specs[i].trace);
  }
  std::vector<std::size_t> order(work);
  for (std::size_t w = 0; w < work; ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(),
                   [&size](std::size_t a, std::size_t b) {
                     return size[a] > size[b];
                   });

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  // Progress reporting: completion count + callback serialization. Purely
  // observational; artifact content and placement stay schedule-independent
  // (per-run obs counters merge into the process registry as order-free
  // sums/maxes, so even the merged registry is serial == threaded).
  std::mutex progress_mutex;
  std::size_t done = 0;
  auto report_progress = [&](const RunArtifact& artifact) {
    if (!options_.progress) return;
    const std::lock_guard<std::mutex> lock(progress_mutex);
    options_.progress(artifact, ++done, specs.size());
  };

  // Pins the cached traces one spec reads for the duration of its run.
  auto run_spec = [&](std::size_t i, sim::ReplayWorkspace& workspace) {
    const SpecReads& r = reads[i];
    RunHooks run_hooks = hooks;
    // Always the worker's own pool: a caller-supplied workspace would be
    // shared across workers and race.
    run_hooks.workspace = &workspace;
    std::shared_ptr<const trace::Trace> replay, estimation;
    if (r.replay) {
      replay = cache.get(*r.replay);
      run_hooks.replay_trace = replay.get();
    }
    if (r.estimate_on_replay) {
      run_hooks.estimation_trace = run_hooks.replay_trace;
    }
    if (r.estimation) {
      estimation = cache.get(*r.estimation);
      run_hooks.estimation_trace = estimation.get();
    }
    artifacts[i] = ScenarioRunner(specs[i]).run(run_hooks);
    if (r.replay) cache.release(*r.replay);
    if (r.estimation) cache.release(*r.estimation);
  };

  auto worker = [&] {
    // Pooled replay buffers, reused across every spec this worker runs (the
    // big simulation tables and the event-queue slab). Reuse is reset-exact,
    // so artifacts stay bit-identical to unpooled runs.
    sim::ReplayWorkspace workspace;
    while (true) {
      // Fail fast: once any spec or item has thrown, the batch outcome is
      // decided — don't run the remaining (potentially long) work.
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t n = next.fetch_add(1, std::memory_order_relaxed);
      if (n >= work) return;
      const std::size_t w = order[n];
      try {
        if (w < items.size()) {
          items[w].run(cache);
          for (const TraceRequest& request : items[w].traces) {
            cache.release(request);
          }
        } else {
          run_spec(w - items.size(), workspace);
          report_progress(artifacts[w - items.size()]);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return artifacts;
}

}  // namespace cloudcr::api
