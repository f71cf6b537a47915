#include "api/fingerprint.hpp"

#include <sys/stat.h>

#include <sstream>

#include "ingest/registry.hpp"
#include "trace/generator.hpp"

namespace cloudcr::api {

namespace {

/// File-backed built-in schemes: the log on disk decides the workload.
bool file_backed_scheme(const std::string& scheme) {
  return scheme == "csv" || scheme == "google" || scheme == "slurm";
}

/// Identity of the file a source spec points at: resolved path plus mtime
/// (to the nanosecond), size, and inode, so an edited log invalidates every
/// cache keyed on it — including a same-size rewrite within one second, or
/// a new file renamed over the old one. A
/// missing file fingerprints as absent — construction never touches the
/// filesystem, so the error surfaces later from load().
void append_file_identity(std::ostream& os, const std::string& arg) {
  const std::string path = arg.substr(0, arg.find('?'));
  os << "path=" << path;
  struct stat st = {};
  if (::stat(path.c_str(), &st) == 0) {
    os << "|mtime=" << static_cast<long long>(st.st_mtim.tv_sec) << '.'
       << static_cast<long long>(st.st_mtim.tv_nsec)
       << "|size=" << static_cast<long long>(st.st_size)
       << "|ino=" << static_cast<unsigned long long>(st.st_ino);
  } else {
    os << "|absent";
  }
}

/// The trace-shaping residue of `spec`, serialized canonically. Reuses the
/// scenario serializer so the fingerprint tracks the spec definition. For
/// file-backed built-ins the generator-only fields are normalized out (the
/// log decides the workload; sample_job_filter / max_jobs /
/// replay_max_task_length_s still apply on top of the ingested trace).
/// Custom registered schemes keep the full tuple — they may consume the
/// generator env.
std::string shaping_fields(const TraceSpec& spec, const std::string& scheme,
                           bool restricted) {
  ScenarioSpec probe;
  probe.trace = spec;
  if (!restricted) probe.trace.replay_max_task_length_s = trace::kNoLengthLimit;
  if (file_backed_scheme(scheme)) {
    const TraceSpec defaults;
    probe.trace.seed = defaults.seed;
    probe.trace.horizon_s = defaults.horizon_s;
    probe.trace.arrival_rate = defaults.arrival_rate;
    probe.trace.priority_change_midway = defaults.priority_change_midway;
    probe.trace.long_service_fraction = defaults.long_service_fraction;
  }
  return serialize(probe);
}

}  // namespace

std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string trace_fingerprint(const TraceSpec& spec, bool restricted) {
  const ingest::SourceSpec parts = ingest::split_source_spec(spec.source);
  std::ostringstream os;
  os << (restricted ? "replay|" : "full|") << parts.scheme << '|';
  if (file_backed_scheme(parts.scheme)) {
    append_file_identity(os, parts.arg);
    os << '|';
  }
  os << shaping_fields(spec, parts.scheme, restricted);
  return os.str();
}

std::string scenario_cache_key(const ScenarioSpec& spec) {
  std::ostringstream os;
  os << std::hex << fnv1a64(serialize(spec)) << std::dec << '|'
     << fnv1a64(trace_fingerprint(spec.trace, true));
  if (spec.estimation == EstimationSource::kFull) {
    os << '|' << fnv1a64(trace_fingerprint(spec.trace, false));
  } else if (spec.estimation == EstimationSource::kHistory) {
    os << '|' << fnv1a64(trace_fingerprint(spec.history, true));
  }
  return os.str();
}

}  // namespace cloudcr::api
