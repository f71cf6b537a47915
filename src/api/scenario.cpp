#include "api/scenario.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <locale>
#include <sstream>
#include <stdexcept>

#include "trace/csv.hpp"

namespace cloudcr::api {

namespace {

std::string format_double(double v) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

double parse_double(const std::string& key, const std::string& value) {
  return parse_checked_double("scenario key '" + key + "'", value);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  return parse_checked_u64("scenario key '" + key + "'", value);
}

/// The serializer is line-oriented, so free-form string values (name,
/// policy, predictor) escape backslash and newline to keep the documented
/// parse(serialize(s)) round-trip exact for every field.
std::string escape_string(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_string(const std::string& key, const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (i + 1 >= s.size() || (s[i + 1] != '\\' && s[i + 1] != 'n')) {
      throw std::invalid_argument("scenario key '" + key +
                                  "': bad escape in '" + s + "'");
    }
    out += s[++i] == 'n' ? '\n' : '\\';
  }
  return out;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  throw std::invalid_argument("scenario key '" + key +
                              "': malformed bool '" + value + "'");
}

void serialize_trace(std::ostream& os, const std::string& prefix,
                     const TraceSpec& t) {
  os << prefix << "source=" << escape_string(t.source) << '\n'
     << prefix << "seed=" << t.seed << '\n'
     << prefix << "horizon_s=" << format_double(t.horizon_s) << '\n'
     << prefix << "arrival_rate=" << format_double(t.arrival_rate) << '\n'
     << prefix << "max_jobs=" << t.max_jobs << '\n'
     << prefix << "sample_job_filter="
     << (t.sample_job_filter ? "true" : "false")
     << '\n'
     << prefix << "priority_change_midway="
     << (t.priority_change_midway ? "true" : "false") << '\n'
     << prefix << "long_service_fraction="
     << format_double(t.long_service_fraction) << '\n'
     << prefix << "replay_max_task_length_s="
     << format_double(t.replay_max_task_length_s) << '\n';
}

/// Applies one `key=value` pair to a TraceSpec; returns false if the key is
/// not a TraceSpec field.
bool apply_trace_key(TraceSpec& t, const std::string& key,
                     const std::string& value) {
  if (key == "source") {
    t.source = unescape_string(key, value);
  } else if (key == "seed") {
    t.seed = parse_u64(key, value);
  } else if (key == "horizon_s") {
    t.horizon_s = parse_double(key, value);
  } else if (key == "arrival_rate") {
    t.arrival_rate = parse_double(key, value);
  } else if (key == "max_jobs") {
    t.max_jobs = static_cast<std::size_t>(parse_u64(key, value));
  } else if (key == "sample_job_filter") {
    t.sample_job_filter = parse_bool(key, value);
  } else if (key == "priority_change_midway") {
    t.priority_change_midway = parse_bool(key, value);
  } else if (key == "long_service_fraction") {
    t.long_service_fraction = parse_double(key, value);
  } else if (key == "replay_max_task_length_s") {
    t.replay_max_task_length_s = parse_double(key, value);
  } else {
    return false;
  }
  return true;
}

}  // namespace

// Both delegate to the shared trace::csv field parsers (line number 0 omits
// the line clause, so messages keep their historical shape), converting the
// reader-level runtime_error to this API's invalid_argument.

double parse_checked_double(const std::string& label,
                            const std::string& text) {
  try {
    return trace::csv::parse_double(label, text, 0);
  } catch (const std::runtime_error& e) {
    // A NaN names the key and its value, like the other spec errors.
    if (std::isnan(std::strtod(text.c_str(), nullptr))) {
      throw std::invalid_argument(label + " = '" + text + "': not a number");
    }
    throw std::invalid_argument(e.what());
  }
}

std::uint64_t parse_checked_u64(const std::string& label,
                                const std::string& text) {
  try {
    return trace::csv::parse_u64(label, text, 0);
  } catch (const std::runtime_error& e) {
    throw std::invalid_argument(e.what());
  }
}

const char* placement_token(sim::PlacementMode mode) noexcept {
  switch (mode) {
    case sim::PlacementMode::kForceLocal:
      return "local";
    case sim::PlacementMode::kForceShared:
      return "shared";
    case sim::PlacementMode::kAutoSelect:
      break;
  }
  return "auto";
}

sim::PlacementMode parse_placement(const std::string& token) {
  if (token == "auto") return sim::PlacementMode::kAutoSelect;
  if (token == "local") return sim::PlacementMode::kForceLocal;
  if (token == "shared") return sim::PlacementMode::kForceShared;
  throw std::invalid_argument("unknown placement '" + token +
                              "' (want auto|local|shared)");
}

const char* adaptation_token(core::AdaptationMode mode) noexcept {
  return mode == core::AdaptationMode::kStatic ? "static" : "adaptive";
}

core::AdaptationMode parse_adaptation(const std::string& token) {
  if (token == "adaptive") return core::AdaptationMode::kAdaptive;
  if (token == "static") return core::AdaptationMode::kStatic;
  throw std::invalid_argument("unknown adaptation '" + token +
                              "' (want adaptive|static)");
}

const char* device_token(storage::DeviceKind kind) noexcept {
  switch (kind) {
    case storage::DeviceKind::kLocalRamdisk:
      return "local_ramdisk";
    case storage::DeviceKind::kSharedNfs:
      return "shared_nfs";
    case storage::DeviceKind::kDmNfs:
      break;
  }
  return "dm_nfs";
}

storage::DeviceKind parse_device(const std::string& token) {
  if (token == "local_ramdisk") return storage::DeviceKind::kLocalRamdisk;
  if (token == "shared_nfs") return storage::DeviceKind::kSharedNfs;
  if (token == "dm_nfs") return storage::DeviceKind::kDmNfs;
  throw std::invalid_argument(
      "unknown device '" + token + "' (want local_ramdisk|shared_nfs|dm_nfs)");
}

const char* estimation_token(EstimationSource source) noexcept {
  switch (source) {
    case EstimationSource::kFull:
      return "full";
    case EstimationSource::kHistory:
      return "history";
    case EstimationSource::kReplay:
      break;
  }
  return "replay";
}

EstimationSource parse_estimation(const std::string& token) {
  if (token == "replay") return EstimationSource::kReplay;
  if (token == "full") return EstimationSource::kFull;
  if (token == "history") return EstimationSource::kHistory;
  throw std::invalid_argument("unknown estimation source '" + token +
                              "' (want replay|full|history)");
}

std::string serialize(const ScenarioSpec& spec) {
  std::ostringstream os;
  // The classic locale keeps integer output free of grouping separators
  // when the host program installed a named global locale.
  os.imbue(std::locale::classic());
  os << "name=" << escape_string(spec.name) << '\n';
  serialize_trace(os, "trace.", spec.trace);
  os << "policy=" << escape_string(spec.policy) << '\n'
     << "predictor=" << escape_string(spec.predictor) << '\n'
     << "sched=" << escape_string(spec.sched) << '\n'
     << "estimation=" << estimation_token(spec.estimation) << '\n';
  serialize_trace(os, "history.", spec.history);
  os << "placement=" << placement_token(spec.placement) << '\n'
     << "adaptation=" << adaptation_token(spec.adaptation) << '\n'
     << "shared_device=" << device_token(spec.shared_device) << '\n'
     << "storage_noise=" << format_double(spec.storage_noise) << '\n'
     << "sim_seed=" << spec.sim_seed << '\n'
     << "detection_delay_s=" << format_double(spec.detection_delay_s) << '\n'
     << "cluster.hosts=" << spec.cluster.hosts << '\n'
     << "cluster.vms_per_host=" << spec.cluster.vms_per_host << '\n'
     << "cluster.vm_memory_mb=" << format_double(spec.cluster.vm_memory_mb)
     << '\n'
     << "obs=" << escape_string(obs::serialize_obs(spec.obs)) << '\n';
  return os.str();
}

ScenarioSpec parse_scenario(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("scenario line without '=': '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);

    if (key.rfind("trace.", 0) == 0) {
      if (!apply_trace_key(spec.trace, key.substr(6), value)) {
        throw std::invalid_argument("unknown scenario key '" + key + "'");
      }
    } else if (key.rfind("history.", 0) == 0) {
      if (!apply_trace_key(spec.history, key.substr(8), value)) {
        throw std::invalid_argument("unknown scenario key '" + key + "'");
      }
    } else if (key == "name") {
      spec.name = unescape_string(key, value);
    } else if (key == "policy") {
      spec.policy = unescape_string(key, value);
    } else if (key == "predictor") {
      spec.predictor = unescape_string(key, value);
    } else if (key == "sched") {
      spec.sched = unescape_string(key, value);
    } else if (key == "estimation") {
      spec.estimation = with_key_context(
          "estimation", value, [&] { return parse_estimation(value); });
    } else if (key == "placement") {
      spec.placement = with_key_context(
          "placement", value, [&] { return parse_placement(value); });
    } else if (key == "adaptation") {
      spec.adaptation = with_key_context(
          "adaptation", value, [&] { return parse_adaptation(value); });
    } else if (key == "shared_device") {
      spec.shared_device = with_key_context(
          "shared_device", value, [&] { return parse_device(value); });
    } else if (key == "storage_noise") {
      spec.storage_noise = parse_double(key, value);
    } else if (key == "sim_seed") {
      spec.sim_seed = parse_u64(key, value);
    } else if (key == "detection_delay_s") {
      spec.detection_delay_s = parse_double(key, value);
    } else if (key == "cluster.hosts") {
      spec.cluster.hosts = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "cluster.vms_per_host") {
      spec.cluster.vms_per_host =
          static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "cluster.vm_memory_mb") {
      spec.cluster.vm_memory_mb = parse_double(key, value);
    } else if (key == "obs") {
      const std::string raw = unescape_string(key, value);
      spec.obs =
          with_key_context("obs", raw, [&] { return obs::parse_obs(raw); });
    } else {
      throw std::invalid_argument("unknown scenario key '" + key + "'");
    }
  }
  return spec;
}

bool operator==(const TraceSpec& a, const TraceSpec& b) noexcept {
  return a.source == b.source && a.seed == b.seed &&
         a.horizon_s == b.horizon_s &&
         a.arrival_rate == b.arrival_rate && a.max_jobs == b.max_jobs &&
         a.sample_job_filter == b.sample_job_filter &&
         a.priority_change_midway == b.priority_change_midway &&
         a.long_service_fraction == b.long_service_fraction &&
         a.replay_max_task_length_s == b.replay_max_task_length_s;
}

bool operator==(const ScenarioSpec& a, const ScenarioSpec& b) noexcept {
  return a.name == b.name && a.trace == b.trace && a.policy == b.policy &&
         a.predictor == b.predictor && a.sched == b.sched &&
         a.estimation == b.estimation &&
         a.history == b.history && a.placement == b.placement &&
         a.adaptation == b.adaptation && a.shared_device == b.shared_device &&
         a.storage_noise == b.storage_noise && a.sim_seed == b.sim_seed &&
         a.detection_delay_s == b.detection_delay_s &&
         a.cluster.hosts == b.cluster.hosts &&
         a.cluster.vms_per_host == b.cluster.vms_per_host &&
         a.cluster.vm_memory_mb == b.cluster.vm_memory_mb && a.obs == b.obs;
}

trace::GeneratorConfig to_generator_config(const TraceSpec& spec) {
  trace::GeneratorConfig cfg;
  cfg.seed = spec.seed;
  cfg.horizon_s = spec.horizon_s;
  cfg.arrival_rate = spec.arrival_rate;
  cfg.max_jobs = spec.max_jobs;
  cfg.sample_job_filter = spec.sample_job_filter;
  cfg.priority_change_midway = spec.priority_change_midway;
  if (spec.long_service_fraction >= 0.0) {
    cfg.workload.long_service_fraction = spec.long_service_fraction;
  }
  return cfg;
}

sim::SimConfig to_sim_config(const ScenarioSpec& spec) {
  sim::SimConfig cfg;
  cfg.cluster = spec.cluster;
  cfg.shared_kind = spec.shared_device;
  cfg.placement = spec.placement;
  cfg.adaptation = spec.adaptation;
  cfg.storage_noise = spec.storage_noise;
  cfg.seed = spec.sim_seed;
  cfg.detection_delay_s = spec.detection_delay_s;
  cfg.probe_interval_s = spec.obs.probe_interval_s;
  cfg.collect_stats = spec.obs.stats;
  return cfg;
}

}  // namespace cloudcr::api
