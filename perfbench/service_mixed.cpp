// service_mixed: an in-process SimService driven the way cloudcr_serve
// drives it — svc::parse_request, the service op, svc::write_reply into a
// string — by two closed-loop clients over a seeded request mix:
//
//   70%  run hits on a hot set warmed during set-up;
//   20%  run cold misses, each with a unique cache key: quarter-day to
//        one-day scenarios over formula3|young|daly x fcfs|backfill:easy|
//        preempt:ckpt, a quarter of them reading google:/csv:/slurm: files
//        the set-up writes from the seed;
//   10%  what-if resumes at four parked forks, each with unique overrides.
//
// Request counts are fixed by --seed and --seconds (kRequestsPerSecond per
// client per second), so every count the service reports repeats exactly
// for one seed; the timed phase lasts about --seconds on the reference
// host.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "api/fingerprint.hpp"
#include "api/scenario.hpp"
#include "ingest/google_source.hpp"
#include "layers.hpp"
#include "obs/probe.hpp"
#include "metrics/export.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace api = cloudcr::api;
namespace svc = cloudcr::svc;

constexpr std::size_t kClients = 2;
constexpr double kRequestsPerSecond = 25.0;  ///< per client
constexpr std::size_t kHotSet = 16;
constexpr std::size_t kForkBases = 2;
constexpr std::size_t kForksPerBase = 2;

enum class Kind { kHit, kMiss, kWhatIf };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kHit:
      return "hit";
    case Kind::kMiss:
      return "miss";
    case Kind::kWhatIf:
      return "whatif";
  }
  return "?";
}

struct Request {
  Kind kind = Kind::kHit;
  std::string line;          ///< the NDJSON request
  std::size_t hot = 0;       ///< hot-set index (hits)
  bool outcomes = false;
  api::ScenarioSpec spec;    ///< the miss spec (misses)
};

struct Reply {
  double latency_s = 0.0;
  double parse_s = 0.0;
  double op_s = 0.0;
  double serialize_s = 0.0;
  std::size_t bytes = 0;
  bool ok = false;
  bool cached = false;
  std::shared_ptr<const api::RunArtifact> artifact;
};

/// Everything set-up produces and the timed phase reads.
struct Fixture {
  std::unique_ptr<svc::SimService> service;
  std::vector<api::ScenarioSpec> hot;
  /// Reference reply lines of the hot set: [hot index][outcomes].
  std::vector<std::array<std::string, 2>> hot_reply;
  std::vector<api::ScenarioSpec> fork_base;
  std::vector<double> fork_at;  ///< kForkBases x kForksPerBase
  std::vector<std::string> sources;  ///< google:, csv:, slurm: specs
};

std::string quote(const std::string& s) { return cloudcr::metrics::json_quote(s); }

std::string run_line(const api::ScenarioSpec& spec, bool outcomes) {
  return "{\"op\":\"run\",\"spec\":" + quote(api::serialize(spec)) +
         (outcomes ? ",\"outcomes\":true}" : "}");
}

std::string whatif_line(const api::ScenarioSpec& base, double fork_at,
                        const std::string& policy, double detection,
                        bool outcomes) {
  std::string line = "{\"op\":\"whatif\",\"spec\":" + quote(api::serialize(base)) +
                     ",\"fork_at\":" + cloudcr::metrics::json_double(fork_at);
  if (!policy.empty()) line += ",\"policy\":" + quote(policy);
  line += ",\"detection_delay_s\":" + cloudcr::metrics::json_double(detection);
  line += outcomes ? ",\"outcomes\":true}" : "}";
  return line;
}

/// The service op behind one parsed request, as cloudcr_serve's loop runs
/// it (svc::serve), minus the batch and stats ops this mix never sends.
svc::ServiceReply dispatch(svc::SimService& service,
                           const svc::Request& request) {
  switch (request.op) {
    case svc::Request::Op::kRun:
      return service.run(api::parse_scenario(request.spec));
    case svc::Request::Op::kWhatIf: {
      svc::WhatIfRequest whatif;
      whatif.base = api::parse_scenario(request.spec);
      whatif.fork_at = request.fork_at;
      whatif.policy = request.policy;
      whatif.detection_delay_s = request.detection_delay_s;
      return service.whatif(whatif);
    }
    default:
      throw std::invalid_argument("unexpected op in the request mix");
  }
}

/// Serves one request line into `out`, timing each stage.
Reply serve_one(svc::SimService& service, const std::string& line,
                std::string& out) {
  Reply r;
  const auto t0 = Clock::now();
  std::ostringstream os;
  auto t1 = t0;
  auto t2 = t0;
  try {
    const svc::Request request = svc::parse_request(line);
    t1 = Clock::now();
    svc::ServiceReply reply = dispatch(service, request);
    t2 = Clock::now();
    svc::write_reply(os, reply, request.outcomes);
    r.ok = true;
    r.cached = reply.cached;
    r.artifact = std::move(reply.artifact);
  } catch (const std::exception& e) {
    if (t1 == t0) t1 = Clock::now();
    t2 = Clock::now();
    svc::write_error_reply(os, e.what());
  }
  out = os.str();
  const auto t3 = Clock::now();
  r.latency_s = seconds_between(t0, t3);
  r.parse_s = seconds_between(t0, t1);
  r.op_s = seconds_between(t1, t2);
  r.serialize_s = seconds_between(t2, t3);
  r.bytes = out.size();
  return r;
}

// -- fixtures -----------------------------------------------------------------

cloudcr::trace::Trace fixture_trace(std::uint64_t seed, double horizon_s) {
  cloudcr::trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.horizon_s = horizon_s;
  cfg.arrival_rate = 0.1;
  cfg.sample_job_filter = false;
  cfg.workload.long_service_fraction = 0.0;
  return cloudcr::trace::TraceGenerator(cfg).generate();
}

/// Writes the google/csv/slurm inputs for --seed under the output
/// directory; paths stay relative so specs (and digests) do not depend on
/// where the checkout lives.
std::vector<std::string> write_fixtures(const Options& options) {
  const std::filesystem::path dir =
      std::filesystem::path(kOutDir) /
      ("fixtures-seed" + std::to_string(options.seed));
  std::filesystem::create_directories(dir);
  const std::string google = (dir / "task_events.csv").string();
  const std::string csv = (dir / "trace.csv").string();
  const std::string slurm = (dir / "jobs.slurm").string();
  {
    std::ofstream os(google);
    cloudcr::ingest::write_task_events(
        os, fixture_trace(derive_seed(options.seed, 11), 6 * 3600.0));
    if (!os) throw std::runtime_error("cannot write " + google);
  }
  cloudcr::trace::write_csv_file(
      csv, fixture_trace(derive_seed(options.seed, 12), 8 * 3600.0));
  {
    std::mt19937_64 rng(derive_seed(options.seed, 13));
    std::uniform_real_distribution<double> gap(10.0, 90.0);
    std::uniform_real_distribution<double> duration(60.0, 7200.0);
    std::uniform_int_distribution<int> nodes(1, 4);
    std::uniform_int_distribution<int> mem(128, 1024);
    std::uniform_int_distribution<int> priority(1, 12);
    std::ofstream os(slurm);
    os << "JOBID SUBMIT DURATION NODES MEM_MB PRIORITY\n";
    double t = 0.0;
    for (int i = 0; i < 600; ++i) {
      t += gap(rng);
      os << (1000 + i) << ' ' << t << ' ' << duration(rng) << ' '
         << nodes(rng) << ' ' << mem(rng) << ' ' << priority(rng) << '\n';
    }
    if (!os) throw std::runtime_error("cannot write " + slurm);
  }
  return {"google:" + google, "csv:" + csv, "slurm:" + slurm};
}

api::ScenarioSpec hot_spec(std::uint64_t seed, std::size_t i) {
  static const char* const kPolicies[] = {"formula3", "young", "daly"};
  api::ScenarioSpec spec;
  spec.name = "hot_" + std::to_string(i);
  spec.policy = kPolicies[i % 3];
  spec.trace.seed = derive_seed(seed, 100 + i);
  spec.trace.horizon_s = 1800.0 * static_cast<double>(1 + i % 3);
  spec.trace.arrival_rate = 0.08;
  return spec;
}

api::ScenarioSpec fork_base_spec(std::uint64_t seed, std::size_t i) {
  api::ScenarioSpec spec;
  spec.name = "fork_base_" + std::to_string(i);
  spec.trace.seed = derive_seed(seed, 200 + i);
  spec.trace.horizon_s = 21600.0;
  spec.sched = i % 2 == 0 ? "fcfs" : "backfill:easy";
  if (spec.sched != "fcfs") {
    spec.cluster.hosts = 6;
  }
  return spec;
}

/// One set-up: fixtures, a fresh service, the hot set warmed (a miss, then
/// the two reference hits), and every fork captured.
Fixture set_up(const Options& options, Result& result) {
  Fixture f;
  f.sources = write_fixtures(options);
  svc::ServiceOptions so;
  so.cache_capacity = 1u << 20;  // no evictions: hits stay hits
  so.snapshot_capacity = kForkBases * kForksPerBase;
  so.threads = 1;
  f.service = std::make_unique<svc::SimService>(so);

  std::string out;
  for (std::size_t i = 0; i < kHotSet; ++i) {
    f.hot.push_back(hot_spec(options.seed, i));
    std::array<std::string, 2> ref;
    serve_one(*f.service, run_line(f.hot.back(), false), out);
    for (int outcomes = 0; outcomes < 2; ++outcomes) {
      const Reply r =
          serve_one(*f.service, run_line(f.hot.back(), outcomes == 1), out);
      if (!r.ok || !r.cached) result.fail("set-up: hot spec did not warm");
      ref[outcomes] = out;
    }
    f.hot_reply.push_back(std::move(ref));
  }
  std::mt19937_64 rng(derive_seed(options.seed, 300));
  std::uniform_real_distribution<double> frac(0.3, 0.7);
  for (std::size_t b = 0; b < kForkBases; ++b) {
    f.fork_base.push_back(fork_base_spec(options.seed, b));
    for (std::size_t k = 0; k < kForksPerBase; ++k) {
      const double at = frac(rng) * f.fork_base.back().trace.horizon_s;
      f.fork_at.push_back(at);
      // Capture with an override the timed mix never sends.
      const Reply r = serve_one(
          *f.service, whatif_line(f.fork_base.back(), at, "", 0.125, false),
          out);
      if (!r.ok) result.fail("set-up: fork capture failed: " + out);
    }
  }
  return f;
}

// -- request mix --------------------------------------------------------------

std::vector<Request> client_requests(const Options& options,
                                     const Fixture& f, std::size_t client,
                                     std::size_t n) {
  static const char* const kPolicies[] = {"formula3", "young", "daly"};
  static const char* const kScheds[] = {"fcfs", "backfill:easy",
                                        "preempt:ckpt"};
  static const char* const kOverrides[] = {"", "formula3", "young", "daly"};
  std::mt19937_64 rng(derive_seed(options.seed, 1000 + client));
  // Exact class counts, shuffled: 70% hits, 20% misses, 10% what-ifs.
  const std::size_t misses = n / 5;
  const std::size_t whatifs = n / 10;
  std::vector<Kind> kinds(n, Kind::kHit);
  std::fill(kinds.begin(), kinds.begin() + static_cast<long>(misses),
            Kind::kMiss);
  std::fill(kinds.begin() + static_cast<long>(misses),
            kinds.begin() + static_cast<long>(misses + whatifs), Kind::kWhatIf);
  std::shuffle(kinds.begin(), kinds.end(), rng);

  // Only the order, the trace seeds and the file contents come from the
  // seed. Each class walks a fixed ladder of parameters, so the total work
  // of a run hardly depends on the seed.
  std::uniform_int_distribution<std::size_t> pick_hot(0, kHotSet - 1);
  std::array<std::size_t, 3> seen{};  // per-class request counters
  std::vector<Request> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request req;
    req.kind = kinds[i];
    const std::size_t k = seen[static_cast<std::size_t>(req.kind)]++;
    req.outcomes = k % 5 == 0;
    const std::uint64_t uid = (static_cast<std::uint64_t>(client) << 32) | i;
    switch (req.kind) {
      case Kind::kHit:
        req.hot = pick_hot(rng);
        req.line = run_line(f.hot[req.hot], req.outcomes);
        break;
      case Kind::kMiss: {
        api::ScenarioSpec& s = req.spec;
        s.name = "miss_" + std::to_string(client) + "_" + std::to_string(i);
        s.policy = kPolicies[k % 3];
        s.sched = kScheds[(k / 3) % 3];
        // A smaller cluster, so the non-fcfs schedulers hold, backfill and
        // preempt work.
        if (s.sched != "fcfs") s.cluster.hosts = 6;
        s.sim_seed = derive_seed(options.seed, 0x5000000000ull + uid);
        if (k % 4 == 3) {
          s.trace.source = f.sources[(k / 4) % f.sources.size()];
        } else {
          s.trace.seed = derive_seed(options.seed, 0x4000000000ull + uid);
          s.trace.horizon_s =
              86400.0 * (0.25 + 0.75 * static_cast<double>((k * 7) % 16) / 15.0);
        }
        req.line = run_line(s, req.outcomes);
        break;
      }
      case Kind::kWhatIf: {
        const std::size_t fork = k % f.fork_at.size();
        const std::string policy = kOverrides[(k / f.fork_at.size()) % 4];
        // Unique per request, so every what-if resumes instead of hitting.
        const double detection =
            1.0 + static_cast<double>(client * 100000 + i) * 1e-3;
        req.line = whatif_line(f.fork_base[fork / kForksPerBase],
                               f.fork_at[fork], policy, detection,
                               req.outcomes);
        break;
      }
    }
    out.push_back(std::move(req));
  }
  return out;
}

// -- one timed phase ----------------------------------------------------------

struct Phase {
  double wall_s = 0.0;
  std::vector<std::vector<Reply>> replies;  ///< [client][request]
  svc::ServiceStats stats;                  ///< delta over the phase
  std::uint64_t snapshot_bytes = 0;
  layers::Tally tally;
  layers::SpanLog spans;
  std::size_t errors = 0;
};

Phase run_phase(Fixture& f, const std::vector<std::vector<Request>>& requests,
                bool traced, const std::string& tag, Result& result) {
  Phase p;
  p.replies.resize(kClients);
  std::vector<layers::SpanLog> logs(kClients);
  std::vector<std::vector<std::string>> bad(kClients);
  const svc::ServiceStats before = f.service->stats();
  const layers::Tally tally_before = layers::totals();
  std::latch start(static_cast<std::ptrdiff_t>(kClients) + 1);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<Reply>& replies = p.replies[c];
      replies.reserve(requests[c].size());
      std::string out;
      start.arrive_and_wait();
      for (std::size_t i = 0; i < requests[c].size(); ++i) {
        const Request& req = requests[c][i];
        const layers::Tally t0 = layers::this_thread();
        const double s0 = layers::now_s();
        Reply r = serve_one(*f.service, req.line, out);
        const double s1 = layers::now_s();
        // Checks, after the request's clock stopped.
        const std::string id = tag + "req-" + std::to_string(c) + "-" +
                               std::to_string(i);
        if (!r.ok) {
          bad[c].push_back(id + ": " + out.substr(0, 200));
        } else if (req.kind == Kind::kHit) {
          if (!r.cached || out != f.hot_reply[req.hot][req.outcomes ? 1 : 0]) {
            bad[c].push_back(id + ": hit reply differs from its first reply");
          }
        } else if (r.cached) {
          bad[c].push_back(id + ": " + kind_name(req.kind) +
                           " was answered from the cache");
        }
        if (traced) {
          const layers::Tally d = layers::this_thread() - t0;
          layers::SpanLog& log = logs[c];
          const std::uint64_t root = log.add(0, "svc.request", id, s0, s1);
          const double p1 = s0 + r.parse_s;
          const double p2 = p1 + r.op_s;
          log.add(root, "svc.parse", id, s0, p1);
          const std::uint64_t op = log.add(
              root, std::string("svc.") + kind_name(req.kind), id, p1, p2);
          log.add_ingest(op, id, p1, p2, d);
          log.add_estimation(op, id, p1, p2, d);
          log.add_replay(op, id, p1, p2, d);
          log.add(root, "metrics.serialize", id, p2, s1);
        }
        replies.push_back(std::move(r));
      }
    });
  }
  const auto t0 = Clock::now();
  start.arrive_and_wait();
  for (std::thread& t : clients) t.join();
  p.wall_s = seconds_since(t0);
  p.tally = layers::totals() - tally_before;
  const svc::ServiceStats after = f.service->stats();
  p.stats.cache_hits = after.cache_hits - before.cache_hits;
  p.stats.cache_misses = after.cache_misses - before.cache_misses;
  p.stats.snapshot_captures = after.snapshot_captures - before.snapshot_captures;
  p.stats.snapshot_resumes = after.snapshot_resumes - before.snapshot_resumes;
  p.stats.evictions = after.evictions - before.evictions;
  p.snapshot_bytes = after.snapshot_bytes;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (const std::string& b : bad[c]) result.fail(b);
    p.errors += bad[c].size();
    result.attempted += requests[c].size();
    p.spans.merge(std::move(logs[c]));
  }
  return p;
}

// -- checks outside the timed phase -------------------------------------------

/// Runs `work(i)` for i in [0, n) on nproc threads.
template <typename F>
void parallel_for(std::size_t n, F work) {
  const std::size_t threads =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   n, std::thread::hardware_concurrency()));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        work(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

/// The output digest of a phase: the canonical JSON of every reply's
/// artifact, in request order. With `check_misses`, also every miss against
/// api::run_scenario of its spec, byte for byte.
std::uint64_t digest_phase(const Phase& p,
                           const std::vector<std::vector<Request>>& reqs,
                           bool check_misses, Result& result) {
  struct Item {
    const Request* req;
    const Reply* reply;
    std::uint64_t hash = 0;
    std::string error;
  };
  std::vector<Item> items;
  std::map<const api::RunArtifact*, std::size_t> first;  // distinct artifacts
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < p.replies[c].size(); ++i) {
      const Reply& r = p.replies[c][i];
      if (!r.artifact) continue;
      if (first.emplace(r.artifact.get(), items.size()).second) {
        items.push_back({&reqs[c][i], &r});
      }
    }
  }
  std::atomic<std::size_t> checked{0};
  parallel_for(items.size(), [&](std::size_t k) {
    Item& it = items[k];
    const std::string served = canonical_json(*it.reply->artifact);
    it.hash = cloudcr::api::fnv1a64(served);
    if (!check_misses || it.req->kind != Kind::kMiss) return;
    checked.fetch_add(1);
    try {
      if (canonical_json(api::run_scenario(it.req->spec)) != served) {
        it.error = it.req->spec.name + ": miss differs from api::run_scenario";
      }
    } catch (const std::exception& e) {
      it.error = it.req->spec.name + ": api::run_scenario threw: " + e.what();
    }
  });
  for (const Item& it : items) {
    if (!it.error.empty()) result.fail(it.error);
  }
  if (check_misses) {
    result.notes.push_back("checked " + std::to_string(checked.load()) +
                           " misses against api::run_scenario");
  }
  std::uint64_t digest = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < p.replies[c].size(); ++i) {
      const Reply& r = p.replies[c][i];
      digest = mix(digest, static_cast<std::uint64_t>(reqs[c][i].kind) * 2 +
                               (r.cached ? 1 : 0));
      if (r.artifact) digest = mix(digest, items[first[r.artifact.get()]].hash);
    }
  }
  return digest;
}

/// A seeded sample of empty-override what-ifs (fresh fork points on the
/// fork bases) against a replay from zero.
void check_identity_whatifs(Fixture& f, const Options& options,
                            Result& result) {
  std::mt19937_64 rng(derive_seed(options.seed, 400));
  std::uniform_real_distribution<double> frac(0.05, 0.95);
  for (const api::ScenarioSpec& base : f.fork_base) {
    const std::string reference = canonical_json(api::run_scenario(base));
    for (int k = 0; k < 2; ++k) {
      svc::WhatIfRequest w;
      w.base = base;
      w.fork_at = frac(rng) * base.trace.horizon_s;
      ++result.attempted;
      const svc::ServiceReply reply = f.service->whatif(w);
      if (canonical_json(*reply.artifact) != reference) {
        result.fail(base.name + ": empty-override what-if at " +
                    std::to_string(w.fork_at) + " differs from a replay");
      }
    }
  }
}

}  // namespace

Result run_service_mixed(const Options& options) {
  Result result;
  const std::size_t per_client = static_cast<std::size_t>(
      std::ceil(options.seconds * kRequestsPerSecond));

  // Set-up, three times; the last fixture serves the timed phase.
  std::vector<double> setup;
  Fixture f;
  for (int i = 0; i < 3; ++i) {
    f = Fixture{};  // tear the previous service down before timing
    const auto t0 = Clock::now();
    f = set_up(options, result);
    setup.push_back(seconds_since(t0));
  }
  std::vector<std::vector<Request>> requests;
  for (std::size_t c = 0; c < kClients; ++c) {
    requests.push_back(client_requests(options, f, c, per_client));
  }

  Phase phase = run_phase(f, requests, false, "", result);
  Phase traced_phase;
  if (options.trace) {
    // A fresh service for the traced phase, so its requests meet the same
    // cache state the untraced ones did.
    f = Fixture{};
    layers::set_enabled(true);
    f = set_up(options, result);
    traced_phase = run_phase(f, requests, true, "traced-", result);
    layers::set_enabled(false);
  }
  const Phase& checked = options.trace ? traced_phase : phase;
  const std::uint64_t digest = digest_phase(checked, requests, true, result);
  if (options.trace) {
    // The untraced phase's artifacts must digest the same.
    if (digest_phase(phase, requests, false, result) != digest) {
      result.fail("traced phase output digest differs from the untraced one");
    }
  }
  check_identity_whatifs(f, options, result);
  result.digest = hex64(digest);

  // Latencies by class (untraced phase).
  std::map<Kind, std::vector<double>> lat;
  std::vector<double> all;
  double tasks = 0.0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < phase.replies[c].size(); ++i) {
      const Reply& r = phase.replies[c][i];
      const Kind k = requests[c][i].kind;
      lat[k].push_back(r.latency_s);
      all.push_back(r.latency_s);
      if (k != Kind::kHit && r.artifact) tasks += r.artifact->trace_tasks;
    }
  }
  const std::size_t total = all.size();
  const double setup_s = median(setup);
  const double rss = cloudcr::obs::peak_rss_mb();
  result.end_to_end = {
      {"setup_s", setup_s, "s", setup.size()},
      {"peak_rss_mb", rss, "MB", 1},
      {"tasks_per_s", tasks / phase.wall_s, "tasks/s", total},
      {"ops_per_s", static_cast<double>(total) / phase.wall_s, "1/s", total},
      {"op_p50_ms", median(all) * 1e3, "ms", total},
  };
  const auto& hits = lat[Kind::kHit];
  const auto& misses = lat[Kind::kMiss];
  const auto& whatifs = lat[Kind::kWhatIf];
  result.named = {
      {"hit_p50_us", percentile(hits, 50) * 1e6, "us", hits.size()},
      {"hit_p99_us", percentile(hits, 99) * 1e6, "us", hits.size()},
      {"miss_p50_ms", percentile(misses, 50) * 1e3, "ms", misses.size()},
      {"miss_p90_ms", percentile(misses, 90) * 1e3, "ms", misses.size()},
      {"whatif_p50_ms", percentile(whatifs, 50) * 1e3, "ms", whatifs.size()},
      {"whatif_p90_ms", percentile(whatifs, 90) * 1e3, "ms", whatifs.size()},
      {"service_rps", static_cast<double>(total) / phase.wall_s, "req/s",
       total},
  };
  result.notes.push_back(
      "mix: " + std::to_string(kClients) + " closed-loop clients x " +
      std::to_string(per_client) + " requests: " +
      std::to_string(hits.size()) + " hits, " + std::to_string(misses.size()) +
      " misses, " + std::to_string(whatifs.size()) + " what-ifs; phase " +
      std::to_string(phase.wall_s) + " s");

  if (!options.trace) return result;

  init_layer_metrics(result);
  const Phase& t = traced_phase;
  RunTotals totals;  // the runs the service executed: misses and resumes
  double parse_s = 0.0;
  double ser_s = 0.0;
  double bytes = 0.0;
  std::map<Kind, double> op_s;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < t.replies[c].size(); ++i) {
      const Reply& r = t.replies[c][i];
      const Kind k = requests[c][i].kind;
      parse_s += r.parse_s;
      ser_s += r.serialize_s;
      bytes += static_cast<double>(r.bytes);
      op_s[k] += r.op_s;
      if (k != Kind::kHit && r.artifact) totals.add(*r.artifact);
    }
  }
  const std::size_t n = total;
  set_run_layers(result, totals, t.tally, n);
  result.set_layer("metrics.serialize_s", ser_s, "s", n);
  result.set_layer("metrics.bytes", bytes, "bytes", n);
  result.set_layer("svc.parse_s", parse_s, "s", n);
  result.set_layer("svc.hit_s", op_s[Kind::kHit], "s", n);
  result.set_layer("svc.miss_s", op_s[Kind::kMiss], "s", n);
  result.set_layer("svc.whatif_s", op_s[Kind::kWhatIf], "s", n);
  result.set_layer("svc.hits", static_cast<double>(t.stats.cache_hits), "count", n);
  result.set_layer("svc.misses", static_cast<double>(t.stats.cache_misses), "count", n);
  result.set_layer("svc.captures", static_cast<double>(t.stats.snapshot_captures), "count", n);
  result.set_layer("svc.resumes", static_cast<double>(t.stats.snapshot_resumes), "count", n);
  result.set_layer("svc.evictions", static_cast<double>(t.stats.evictions), "count", n);
  const double lookups =
      static_cast<double>(t.stats.cache_hits + t.stats.cache_misses);
  result.set_layer("svc.hit_ratio",
                   lookups > 0 ? static_cast<double>(t.stats.cache_hits) / lookups
                               : 0.0,
                   "ratio", n);
  result.set_layer("svc.snapshot_bytes", static_cast<double>(t.snapshot_bytes), "bytes", 1);
  result.set_layer("svc.errors", static_cast<double>(t.errors + phase.errors), "count", n);
  result.set_layer("trace.overhead_ratio", t.wall_s / phase.wall_s, "ratio", 1);

  const std::string path = out_path(
      "spans-service_mixed-seed" + std::to_string(options.seed) + ".jsonl");
  if (!t.spans.write_jsonl(path)) result.fail("cannot write " + path);
  result.notes.push_back("spans: " + path);
  return result;
}

}  // namespace perfbench
