// month_replay: the paper's experiment at full scale — one streamed
// ScenarioRunner::run of the synthetic Google-like month under Formula 3,
// grouped estimation and the pass-through fcfs scheduler.

#include "api/runner.hpp"
#include "api/stream.hpp"
#include "layers.hpp"
#include "obs/probe.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using cloudcr::api::RunArtifact;
using cloudcr::api::ScenarioRunner;
using cloudcr::api::ScenarioSpec;

/// perf_baseline's month-scale trace settings (30 days, arrival_rate 0.116,
/// no sample-job filter, no long-service tail) with the seed drawn from
/// --seed.
ScenarioSpec month_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "perfbench_month";
  spec.trace.seed = derive_seed(seed, 1);
  spec.trace.horizon_s = 30.0 * 86400.0;
  spec.trace.arrival_rate = 0.116;
  spec.trace.sample_job_filter = false;
  spec.trace.long_service_fraction = 0.0;
  spec.policy = "formula3";
  spec.predictor = "grouped";
  spec.sched = "fcfs";
  return spec;
}

struct Op {
  bool traced = false;
  double wall_s = 0.0;
  RunTotals totals;
  layers::Tally tally;
};

}  // namespace

Result run_month_replay(const Options& options) {
  Result result;
  const ScenarioSpec spec = month_spec(options.seed);
  layers::SpanLog spans;

  // Set-up, three times: a one-day replay of the same spec warms code,
  // allocator and page cache before anything is timed.
  std::vector<double> setup;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    ScenarioSpec warm = spec;
    warm.trace.horizon_s = 86400.0;
    const RunArtifact a = ScenarioRunner(warm).run();
    if (a.trace_jobs == 0) result.fail("set-up replay produced no jobs");
    setup.push_back(seconds_since(t0));
  }

  const ScenarioRunner runner(spec);
  std::vector<Op> ops;
  std::uint64_t first_digest = 0;
  std::size_t untraced = 0;
  std::size_t traced = 0;
  double rss = 0.0;  ///< peak RSS after set-up and the first operation
  const auto phase_start = Clock::now();
  while (ops.empty() || seconds_since(phase_start) < options.seconds ||
         (options.trace && (untraced == 0 || traced == 0))) {
    Op op;
    // Traced runs alternate untraced and traced replays so the overhead is
    // a paired comparison under the same machine conditions.
    op.traced = options.trace && (ops.size() % 2 == 1);
    layers::set_enabled(op.traced);
    const layers::Tally before = layers::this_thread();
    const double span_t0 = layers::now_s();
    const auto t0 = Clock::now();
    const RunArtifact artifact = runner.run();
    op.wall_s = seconds_since(t0);
    const double span_t1 = layers::now_s();
    op.tally = layers::this_thread() - before;
    layers::set_enabled(false);
    op.totals.add(artifact);

    // Output checks (outside the replay's clock).
    const auto d0 = Clock::now();
    const std::uint64_t digest = artifact_digest(artifact);
    const double digest_s = seconds_since(d0);
    ++result.attempted;
    const std::string id = "replay-" + std::to_string(ops.size());
    const auto& r = artifact.result;
    if (r.outcomes.size() + r.incomplete_jobs != artifact.trace_jobs) {
      result.fail(id + ": completed + incomplete != trace_jobs");
    } else if (artifact.trace_reads != 2) {
      result.fail(id + ": trace_reads " +
                  std::to_string(artifact.trace_reads) + " != 2");
    } else if (op.traced && op.tally[layers::kDecideCalls] != 0) {
      result.fail(id + ": fcfs replay called decide()");
    } else if (!ops.empty() && digest != first_digest) {
      result.fail(id + ": output digest differs from the first replay");
    }
    if (ops.empty()) first_digest = digest;

    if (options.trace) {
      const std::uint64_t run = spans.add(
          0, op.traced ? "api.run" : "api.run.untraced", id, span_t0, span_t1);
      if (op.traced) {
        const double est_end = span_t0 + artifact.estimation_wall_s;
        const std::uint64_t est =
            spans.add(run, "api.estimation", id, span_t0, est_end);
        spans.add_estimation(est, id, span_t0, est_end, op.tally);
        const std::uint64_t replay =
            spans.add(run, "sim.replay", id, est_end, span_t1);
        spans.add_replay(replay, id, est_end, span_t1, op.tally);
      }
      spans.add(0, "check.digest", id, span_t1, span_t1 + digest_s);
    }
    // Peak RSS is read once the first replay is done: later ones only
    // add allocator retention, which would tie the figure to how many
    // replays fit in --seconds.
    if (ops.empty()) rss = cloudcr::obs::peak_rss_mb();
    (op.traced ? traced : untraced) += 1;
    ops.push_back(op);
  }

  // End-to-end metrics come from the untraced replays.
  std::vector<double> walls;
  std::vector<double> rates;
  double wall_sum = 0.0;
  std::string wall_list = "replay walls (s):";
  for (const Op& op : ops) {
    wall_list += " " + std::to_string(op.wall_s) + (op.traced ? "t" : "");
    if (op.traced) continue;
    walls.push_back(op.wall_s);
    rates.push_back(op.totals.tasks / op.wall_s);
    wall_sum += op.wall_s;
  }
  const double setup_s = median(setup);
  result.end_to_end = {
      {"setup_s", setup_s, "s", setup.size()},
      {"peak_rss_mb", rss, "MB", 1},
      {"tasks_per_s", median(rates), "tasks/s", rates.size()},
      {"ops_per_s", static_cast<double>(walls.size()) / wall_sum, "1/s",
       walls.size()},
      {"op_p50_ms", median(walls) * 1e3, "ms", walls.size()},
  };
  result.named = {
      {"replay_tasks_per_s", median(rates), "tasks/s", rates.size()},
      {"replay_wall_s", median(walls), "s", walls.size()},
  };
  result.digest = hex64(first_digest);
  result.notes.push_back(wall_list);
  result.notes.push_back(
      "input: " + std::to_string(static_cast<std::uint64_t>(ops[0].totals.tasks)) +
      " tasks, " +
      std::to_string(static_cast<std::uint64_t>(ops[0].totals.events)) +
      " events, trace.seed=" + std::to_string(spec.trace.seed));

  if (!options.trace) return result;

  init_layer_metrics(result);
  std::vector<RunTotals> totals;
  std::vector<layers::Tally> tallies;
  std::vector<double> traced_walls;
  for (const Op& op : ops) {
    if (!op.traced) continue;
    totals.push_back(op.totals);
    tallies.push_back(op.tally);
    traced_walls.push_back(op.wall_s);
  }
  set_run_layers(result, median_of(totals), median_of(tallies), traced);
  // Here the benchmark calls ScenarioRunner::run itself, so api.run_s is
  // that call's wall rather than the artifact's estimation + replay.
  const double run_s = median(traced_walls);
  result.set_layer("api.run_s", run_s, "s", traced);
  result.set_layer("trace.overhead_ratio", run_s / median(walls), "ratio",
                   traced);

  // Generation is not a registry source, so it is measured beside the run:
  // one drain of the same replay view, outside the replays above.
  const double gen_t0 = layers::now_s();
  const auto g0 = Clock::now();
  auto stream = cloudcr::api::open_trace_stream(spec.trace, true);
  std::vector<cloudcr::trace::JobRecord> batch;
  double gen_tasks = 0.0;
  while (stream->next_batch(1024, batch) > 0) {
    for (const auto& job : batch) {
      gen_tasks += static_cast<double>(job.tasks.size());
    }
    batch.clear();
  }
  const double gen_s = seconds_since(g0);
  spans.add(0, "ingest.gen (beside the run)", "gen", gen_t0, gen_t0 + gen_s);
  result.set_layer("ingest.gen_s", gen_s, "s", 1);
  if (gen_tasks != ops[0].totals.tasks) {
    result.fail("the generated replay view and the replay differ in tasks");
  }

  const std::string path = out_path(
      "spans-month_replay-seed" + std::to_string(options.seed) + ".jsonl");
  if (!spans.write_jsonl(path)) result.fail("cannot write " + path);
  result.notes.push_back("spans: " + path);
  return result;
}

}  // namespace perfbench
