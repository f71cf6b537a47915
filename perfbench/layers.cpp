#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "api/registry.hpp"
#include "ingest/registry.hpp"
#include "ingest/stream.hpp"
#include "metrics/export.hpp"
#include "sched/registry.hpp"

namespace perfbench::layers {
namespace {

using SteadyClock = std::chrono::steady_clock;

std::uint64_t ticks() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now().time_since_epoch())
          .count());
}

// -- per-thread tallies -------------------------------------------------------

struct ThreadTally;

struct TallyRegistry {
  std::mutex mu;
  std::vector<ThreadTally*> live;
  Tally retired;  ///< folded-in totals of threads that have exited
};

TallyRegistry& registry() {
  static TallyRegistry* r = new TallyRegistry;  // outlives thread_locals
  return *r;
}

struct ThreadTally {
  std::array<std::atomic<std::uint64_t>, kSlots> v{};

  ThreadTally() {
    const std::lock_guard<std::mutex> lock(registry().mu);
    registry().live.push_back(this);
  }
  ~ThreadTally() {
    TallyRegistry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.retired += read();
    r.live.erase(std::find(r.live.begin(), r.live.end(), this));
  }
  ThreadTally(const ThreadTally&) = delete;
  ThreadTally& operator=(const ThreadTally&) = delete;

  [[nodiscard]] Tally read() const {
    Tally t;
    for (std::size_t i = 0; i < kSlots; ++i) {
      t.v[i] = v[i].load(std::memory_order_relaxed);
    }
    return t;
  }
};

ThreadTally& tls() {
  thread_local ThreadTally tally;
  return tally;
}

/// Single-writer increment: a plain load/store pair, no locked instruction.
void add(Slot slot, std::uint64_t n) {
  auto& cell = tls().v[slot];
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

std::atomic<bool> g_enabled{false};

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

/// Times a scope into `slot`.
class ScopedNs {
 public:
  explicit ScopedNs(Slot slot) : slot_(slot), t0_(ticks()) {}
  ~ScopedNs() { add(slot_, ticks() - t0_); }
  ScopedNs(const ScopedNs&) = delete;
  ScopedNs& operator=(const ScopedNs&) = delete;

 private:
  Slot slot_;
  std::uint64_t t0_;
};

/// Globally unique span id (client threads keep their own logs).
std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// -- wrappers -----------------------------------------------------------------

class TracedPolicy final : public cloudcr::core::CheckpointPolicy {
 public:
  explicit TracedPolicy(cloudcr::core::PolicyPtr inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] double next_interval(
      const cloudcr::core::PolicyContext& ctx) const override {
    add(kIntervalCalls, 1);
    const ScopedNs timer(kIntervalNs);
    return inner_->next_interval(ctx);
  }

 private:
  cloudcr::core::PolicyPtr inner_;
};

class TracedScheduler final : public cloudcr::sched::SchedulerPolicy {
 public:
  explicit TracedScheduler(cloudcr::sched::SchedulerPtr inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool pass_through() const noexcept override {
    return inner_->pass_through();
  }
  [[nodiscard]] cloudcr::sched::PreemptMode preempt_mode()
      const noexcept override {
    return inner_->preempt_mode();
  }
  void decide(const cloudcr::sched::ResourceView& view,
              const std::vector<cloudcr::sched::PendingJob>& queue,
              const std::vector<cloudcr::sched::RunningJob>& running,
              cloudcr::sched::Decision& out) const override {
    add(kDecideCalls, 1);
    const ScopedNs timer(kDecideNs);
    inner_->decide(view, queue, running, out);
  }

 private:
  cloudcr::sched::SchedulerPtr inner_;
};

class TracedBuilder final : public cloudcr::api::PredictorBuilder {
 public:
  explicit TracedBuilder(cloudcr::api::PredictorBuilderPtr inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] bool wants_observations() const override {
    return inner_->wants_observations();
  }
  void observe_job(const cloudcr::trace::JobRecord& job) override {
    add(kTasksObserved, job.tasks.size());
    const ScopedNs timer(kObserveNs);
    inner_->observe_job(job);
  }
  void observe_task(const cloudcr::trace::TaskRecord& task) override {
    add(kTasksObserved, 1);
    const ScopedNs timer(kObserveNs);
    inner_->observe_task(task);
  }
  [[nodiscard]] cloudcr::sim::StatsPredictor finalize() override {
    cloudcr::sim::StatsPredictor predictor;
    add(kFinalizeCalls, 1);
    {
      const ScopedNs timer(kFinalizeNs);
      predictor = inner_->finalize();
    }
    // Counted on the querying thread: a parked what-if engine answers its
    // queries on whichever client thread resumes it.
    return [inner = std::move(predictor)](
               const cloudcr::trace::TaskRecord& task, int priority) {
      add(kQueries, 1);
      return inner(task, priority);
    };
  }

 private:
  cloudcr::api::PredictorBuilderPtr inner_;
};

class TracedStream final : public cloudcr::ingest::TaskStream {
 public:
  explicit TracedStream(cloudcr::ingest::StreamPtr inner)
      : inner_(std::move(inner)) {}
  ~TracedStream() override {
    add(kIngestRows, inner_->report().rows_total);
    add(kIngestSkipped, inner_->report().rows_skipped);
  }

  std::size_t next_batch(std::size_t max_jobs,
                         std::vector<cloudcr::trace::JobRecord>& out) override {
    add(kIngestCalls, 1);
    const ScopedNs timer(kIngestNs);
    return inner_->next_batch(max_jobs, out);
  }
  [[nodiscard]] bool exhausted() const override { return inner_->exhausted(); }
  [[nodiscard]] double horizon_s() const override {
    return inner_->horizon_s();
  }
  [[nodiscard]] const cloudcr::ingest::IngestReport& report() const override {
    return inner_->report();
  }

 private:
  cloudcr::ingest::StreamPtr inner_;
};

class TracedSource final : public cloudcr::ingest::TraceSource {
 public:
  explicit TracedSource(cloudcr::ingest::SourcePtr inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }
  [[nodiscard]] cloudcr::ingest::StreamPtr open_stream() const override {
    add(kIngestCalls, 1);
    const ScopedNs timer(kIngestNs);
    return std::make_unique<TracedStream>(inner_->open_stream());
  }
  [[nodiscard]] bool streams_lazily() const override {
    return inner_->streams_lazily();
  }
  [[nodiscard]] cloudcr::ingest::IngestResult load() const override {
    cloudcr::ingest::IngestResult result;
    add(kIngestCalls, 1);
    {
      const ScopedNs timer(kIngestNs);
      result = inner_->load();
    }
    add(kIngestRows, result.report.rows_total);
    add(kIngestSkipped, result.report.rows_skipped);
    return result;
  }
  void probe() const override { inner_->probe(); }

 private:
  cloudcr::ingest::SourcePtr inner_;
};

std::string registry_key(const std::string& name, const std::string& arg) {
  return arg.empty() ? name : name + ":" + arg;
}

// Display grammars of the built-ins, re-registered unchanged so error
// listings stay identical (api/registry.cpp).
const std::map<std::string, std::string>& policy_grammars() {
  static const std::map<std::string, std::string> g = {
      {"formula3", "formula3[:exact]"}, {"young", ""}, {"daly", ""},
      {"none", ""}, {"fixed", "fixed:<interval_s>"}};
  return g;
}
const std::map<std::string, std::string>& predictor_grammars() {
  static const std::map<std::string, std::string> g = {
      {"oracle", ""},
      {"grouped", "grouped[:max_len_s]"},
      {"submission", "submission[:max_len_s]"}};
  return g;
}

}  // namespace

void install() {
  static std::once_flag once;
  std::call_once(once, [] {
    using namespace cloudcr;
    // Built-in registries, kept for the life of the process: the wrappers
    // build the real objects through them.
    static const api::PolicyRegistry policies =
        api::PolicyRegistry::with_builtins();
    static const api::PredictorRegistry predictors =
        api::PredictorRegistry::with_builtins();
    static const sched::SchedulerRegistry schedulers =
        sched::SchedulerRegistry::with_builtins();
    static const ingest::TraceSourceRegistry sources =
        ingest::TraceSourceRegistry::with_builtins();

    for (const std::string& name : policies.names()) {
      const auto it = policy_grammars().find(name);
      api::PolicyRegistry::instance().add(
          name,
          [name](const std::string& arg) -> core::PolicyPtr {
            core::PolicyPtr p = policies.make(registry_key(name, arg));
            if (!enabled()) return p;
            return std::make_unique<TracedPolicy>(std::move(p));
          },
          it == policy_grammars().end() ? std::string() : it->second);
    }
    for (const std::string& name : predictors.names()) {
      const auto it = predictor_grammars().find(name);
      api::PredictorRegistry::instance().add(
          name,
          [name](const std::string& arg) -> api::PredictorBuilderPtr {
            api::PredictorBuilderPtr b =
                predictors.make_builder(registry_key(name, arg));
            if (!enabled()) return b;
            return std::make_unique<TracedBuilder>(std::move(b));
          },
          it == predictor_grammars().end() ? std::string() : it->second);
    }
    for (const std::string& name : schedulers.names()) {
      sched::SchedulerRegistry::instance().add(
          name, [name](const std::string& arg) -> sched::SchedulerPtr {
            sched::SchedulerPtr s = schedulers.make(registry_key(name, arg));
            if (!enabled()) return s;
            return std::make_unique<TracedScheduler>(std::move(s));
          });
    }
    // The synthetic source never goes through the registry (api::make_trace
    // and api::open_trace_stream call the generator directly), so only the
    // file-backed schemes are wrapped.
    for (const std::string& scheme : sources.names()) {
      if (scheme == "synthetic") continue;
      ingest::TraceSourceRegistry::instance().add(
          scheme,
          [scheme](const std::string& arg,
                   const ingest::SourceEnv& env) -> ingest::SourcePtr {
            ingest::SourcePtr s = sources.make(registry_key(scheme, arg), env);
            if (!enabled()) return s;
            return std::make_unique<TracedSource>(std::move(s));
          });
    }
  });
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Tally this_thread() { return tls().read(); }

Tally totals() {
  TallyRegistry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  Tally sum = r.retired;
  for (const ThreadTally* t : r.live) sum += t->read();
  return sum;
}

// -- spans --------------------------------------------------------------------

double now_s() {
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return std::chrono::duration<double>(SteadyClock::now() - epoch).count();
}

std::uint64_t SpanLog::add(std::uint64_t parent, std::string name,
                           std::string op, double start_s, double end_s) {
  Span s;
  s.id = next_span_id();
  s.parent = parent;
  s.name = std::move(name);
  s.op = std::move(op);
  s.start_s = start_s;
  s.end_s = end_s;
  s.busy_s = end_s - start_s;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::add_aggregate(std::uint64_t parent, std::string name,
                            std::string op, double start_s, double end_s,
                            std::uint64_t calls, double busy_s) {
  if (calls == 0) return;
  Span s;
  s.id = next_span_id();
  s.parent = parent;
  s.name = std::move(name);
  s.op = std::move(op);
  s.start_s = start_s;
  s.end_s = end_s;
  s.calls = calls;
  s.busy_s = busy_s;
  spans_.push_back(std::move(s));
}

void SpanLog::add_estimation(std::uint64_t parent, const std::string& op,
                             double start_s, double end_s, const Tally& d) {
  // The call count of estimate.observe is the number of tasks observed.
  add_aggregate(parent, "estimate.observe", op, start_s, end_s,
                d[kTasksObserved], ns_to_s(d[kObserveNs]));
  add_aggregate(parent, "estimate.finalize", op, start_s, end_s,
                d[kFinalizeCalls], ns_to_s(d[kFinalizeNs]));
}

void SpanLog::add_replay(std::uint64_t parent, const std::string& op,
                         double start_s, double end_s, const Tally& d) {
  add_aggregate(parent, "core.next_interval", op, start_s, end_s,
                d[kIntervalCalls], ns_to_s(d[kIntervalNs]));
  add_aggregate(parent, "sched.decide", op, start_s, end_s, d[kDecideCalls],
                ns_to_s(d[kDecideNs]));
  add_aggregate(parent, "estimate.queries", op, start_s, end_s, d[kQueries],
                0.0);
}

void SpanLog::add_ingest(std::uint64_t parent, const std::string& op,
                         double start_s, double end_s, const Tally& d) {
  add_aggregate(parent, "ingest.file", op, start_s, end_s, d[kIngestCalls],
                ns_to_s(d[kIngestNs]));
}

void SpanLog::merge(SpanLog&& other) {
  spans_.insert(spans_.end(), std::make_move_iterator(other.spans_.begin()),
                std::make_move_iterator(other.spans_.end()));
  other.spans_.clear();
}

bool SpanLog::write_jsonl(const std::string& path) const {
  // Self time: duration minus the part the direct children cover — the
  // union of plain children's intervals plus aggregate children's busy time.
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) children[s.parent].push_back(&s);
  std::ofstream os(path);
  if (!os) return false;
  for (const Span& s : spans_) {
    double covered = 0.0;
    if (const auto it = children.find(s.id); it != children.end()) {
      std::vector<std::pair<double, double>> intervals;
      for (const Span* c : it->second) {
        if (c->calls > 0) {
          covered += c->busy_s;
        } else {
          intervals.emplace_back(c->start_s, c->end_s);
        }
      }
      std::sort(intervals.begin(), intervals.end());
      double cur_start = 0.0;
      double cur_end = -1.0;
      for (const auto& [a, b] : intervals) {
        if (a > cur_end) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
    }
    const double self = std::max(0.0, s.busy_s - covered);
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"name\":" << cloudcr::metrics::json_quote(s.name)
       << ",\"op\":" << cloudcr::metrics::json_quote(s.op)
       << ",\"start_s\":" << cloudcr::metrics::json_double(s.start_s)
       << ",\"end_s\":" << cloudcr::metrics::json_double(s.end_s)
       << ",\"calls\":" << s.calls
       << ",\"busy_s\":" << cloudcr::metrics::json_double(s.busy_s)
       << ",\"self_s\":" << cloudcr::metrics::json_double(self) << "}\n";
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench::layers
