// repro_matrix: "reproduce the paper" — report::run_report over every
// registry entry through one BatchRunner at threads = nproc, each entry
// gated against the checked-in expected values (read only).

#include <algorithm>
#include <cstdio>
#include <thread>

#include "api/fingerprint.hpp"
#include "layers.hpp"
#include "obs/probe.hpp"
#include "report/compare.hpp"
#include "report/registry.hpp"
#include "report/runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace report = cloudcr::report;

constexpr std::size_t kEntries = 18;

struct Op {
  bool traced = false;
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  RunTotals totals;
  double critical_path_s = 0.0;  ///< longest single artifact
  std::size_t gate_failures = 0;  ///< failing metric comparisons
  std::size_t failing_entries = 0;
  std::vector<std::pair<std::string, double>> entry_s;
  layers::Tally tally;
};

std::size_t threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Gates every entry of one matrix against the expected values and digests
/// everything it computed.
void check(const report::ReportResult& rr, const report::ExpectedDoc& expected,
           const std::string& id, Op& op, Result& result) {
  if (rr.entries.size() != kEntries) {
    result.fail(id + ": ran " + std::to_string(rr.entries.size()) +
                " entries");
  }
  for (const report::EntryResult& e : rr.entries) {
    ++result.attempted;
    const std::string& eid = e.experiment->id;
    std::size_t bad = 1;  // a missing expectation fails the entry
    if (const report::EntryExpectations* exp = expected.find(eid)) {
      bad = 0;
      for (const auto& c : report::compare_entry(*exp, e.metrics)) {
        bad += c.fails() ? 1 : 0;
      }
    }
    if (bad > 0) {
      ++op.failing_entries;
      result.fail(id + "/" + eid + ": " + std::to_string(bad) +
                  " metric(s) fail the expected-value gate");
    }
    op.gate_failures += bad;
    op.entry_s.emplace_back(eid, e.wall_s);
    op.digest = mix(op.digest, cloudcr::api::fnv1a64(eid));
    for (const auto& m : e.metrics) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      op.digest = mix(op.digest, cloudcr::api::fnv1a64(m.name + "=" + buf));
    }
    for (const auto& a : e.artifacts) {
      op.digest = mix(op.digest, artifact_digest(a));
      op.totals.add(a);
      op.critical_path_s = std::max(op.critical_path_s,
                                    a.estimation_wall_s + a.wall_time_s);
    }
  }
}

}  // namespace

Result run_repro_matrix(const Options& options) {
  Result result;
  layers::SpanLog spans;

  // Set-up, three times: read the expected-value document and run the
  // matrix's fast subset once to warm everything.
  std::vector<double> setup;
  report::ExpectedDoc expected;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    const std::string path = report::default_expected_path();
    if (path.empty()) throw std::runtime_error("no expected-value document");
    expected = report::read_expected_file(path);
    report::ReportOptions warm;
    warm.fast_only = true;
    warm.threads = threads();
    if (report::run_report(warm).entries.empty()) {
      result.fail("set-up: empty fast subset");
    }
    setup.push_back(seconds_since(t0));
  }

  std::vector<Op> ops;
  std::size_t untraced = 0;
  std::size_t traced = 0;
  double rss = 0.0;  ///< peak RSS after set-up and the first operation
  const auto phase_start = Clock::now();
  while (ops.empty() || seconds_since(phase_start) < options.seconds ||
         (options.trace && (untraced == 0 || traced == 0))) {
    Op op;
    op.traced = options.trace && (ops.size() % 2 == 1);
    const std::string id = "matrix-" + std::to_string(ops.size());

    struct Done {
      std::string name;
      double end_s;
      double run_s;
    };
    std::vector<Done> done;  // appended under BatchRunner's progress mutex
    report::ReportOptions ro;
    ro.threads = threads();
    if (options.trace) {
      ro.progress = [&done](const cloudcr::api::RunArtifact& a, std::size_t,
                            std::size_t) {
        done.push_back({a.spec.name, layers::now_s(),
                        a.estimation_wall_s + a.wall_time_s});
      };
    }

    layers::set_enabled(op.traced);
    const layers::Tally before = layers::totals();
    const double span_t0 = layers::now_s();
    const auto t0 = Clock::now();
    const report::ReportResult rr = report::run_report(ro);
    op.wall_s = seconds_since(t0);
    const double span_t1 = layers::now_s();
    layers::set_enabled(false);
    op.tally = layers::totals() - before;

    const auto d0 = Clock::now();
    check(rr, expected, id, op, result);
    const double digest_s = seconds_since(d0);
    if (!ops.empty() && op.digest != ops.front().digest) {
      result.fail(id + ": output digest differs from the first matrix");
    }

    if (options.trace) {
      const std::uint64_t m = spans.add(
          0, op.traced ? "report.matrix" : "report.matrix.untraced", id,
          span_t0, span_t1);
      for (const Done& d : done) {
        spans.add(m, "api.run", id + "/" + d.name,
                  std::max(span_t0, d.end_s - d.run_s), d.end_s);
      }
      spans.add(0, "check.digest", id, span_t1, span_t1 + digest_s);
    }
    // Peak RSS is read once the first matrix is done: later ones only
    // add allocator retention, which would tie the figure to how many
    // matrixs fit in --seconds.
    if (ops.empty()) rss = cloudcr::obs::peak_rss_mb();
    (op.traced ? traced : untraced) += 1;
    ops.push_back(std::move(op));
  }

  std::vector<double> walls;
  std::vector<double> rates;
  double wall_sum = 0.0;
  std::size_t failing_entries = 0;
  std::string wall_list = "matrix walls (s):";
  for (const Op& op : ops) {
    failing_entries += op.failing_entries;
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
      {"matrix_wall_s", median(walls), "s", walls.size()},
  };
  result.digest = hex64(ops.front().digest);
  result.notes.push_back(wall_list);
  result.notes.push_back(
      "gate: " + std::to_string(result.attempted - failing_entries) + "/" +
      std::to_string(result.attempted) + " entry checks passing over " +
      std::to_string(ops.size()) + " matrices (" + std::to_string(kEntries) +
      " entries each, threads=" + std::to_string(threads()) + ")");
  result.notes.push_back(
      "input: " + std::to_string(static_cast<std::uint64_t>(ops[0].totals.tasks)) +
      " replayed tasks, " +
      std::to_string(static_cast<std::uint64_t>(ops[0].totals.events)) +
      " events per matrix");

  if (!options.trace) return result;

  init_layer_metrics(result);
  std::vector<const Op*> tr;
  std::vector<RunTotals> totals;
  std::vector<layers::Tally> tallies;
  for (const Op& op : ops) {
    if (!op.traced) continue;
    tr.push_back(&op);
    totals.push_back(op.totals);
    tallies.push_back(op.tally);
  }
  const std::size_t n = tr.size();
  auto med = [&tr](auto f) {
    std::vector<double> v;
    for (const Op* op : tr) v.push_back(static_cast<double>(f(*op)));
    return median(std::move(v));
  };
  const RunTotals t = median_of(totals);
  set_run_layers(result, t, median_of(tallies), n);
  const double wall = med([](const Op& o) { return o.wall_s; });
  result.set_layer("batch.busy_s", t.run_s, "s", n);
  result.set_layer("batch.efficiency",
                   t.run_s / (static_cast<double>(threads()) * wall), "ratio",
                   n);
  result.set_layer("batch.critical_path_s",
                   med([](const Op& o) { return o.critical_path_s; }), "s", n);
  for (std::size_t i = 0; i < tr.front()->entry_s.size(); ++i) {
    result.set_layer("report.entry_s." + tr.front()->entry_s[i].first,
                     med([i](const Op& o) { return o.entry_s[i].second; }),
                     "s", n);
  }
  result.set_layer("report.gate_failures",
                   med([](const Op& o) { return o.gate_failures; }), "count",
                   n);
  result.set_layer("trace.overhead_ratio", wall / median(walls), "ratio", n);

  const std::string path = out_path(
      "spans-repro_matrix-seed" + std::to_string(options.seed) + ".jsonl");
  if (!spans.write_jsonl(path)) result.fail("cannot write " + path);
  result.notes.push_back("spans: " + path);
  return result;
}

}  // namespace perfbench
