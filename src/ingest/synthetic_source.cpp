#include "ingest/synthetic_source.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "ingest/stream.hpp"

namespace cloudcr::ingest {

namespace {

/// Lazily generating stream: jobs come straight out of the generator's
/// cursor, one pull at a time. Draining it is bit-identical to
/// TraceGenerator::generate() (generate() is itself a drain of the same
/// cursor).
class SyntheticStream final : public TaskStream {
 public:
  SyntheticStream(trace::GeneratorConfig config, std::string source)
      : generator_(config), cursor_(generator_.stream()) {
    report_.source = std::move(source);
  }

  std::size_t next_batch(std::size_t max_jobs,
                         std::vector<trace::JobRecord>& out) override {
    std::size_t n = 0;
    while (n < max_jobs) {
      auto job = cursor_.next();
      if (!job) {
        exhausted_ = true;
        break;
      }
      report_.rows_total += job->tasks.size();
      report_.rows_used += job->tasks.size();
      out.push_back(std::move(*job));
      ++n;
    }
    return n;
  }

  [[nodiscard]] bool exhausted() const override { return exhausted_; }

  [[nodiscard]] double horizon_s() const override {
    return generator_.config().horizon_s;
  }

  [[nodiscard]] const IngestReport& report() const override {
    return report_;
  }

 private:
  trace::TraceGenerator generator_;
  trace::TraceGenerator::Cursor cursor_;  // holds a pointer to generator_
  IngestReport report_;
  bool exhausted_ = false;
};

}  // namespace

std::string SyntheticSource::describe() const {
  std::ostringstream os;
  os << "synthetic(seed=" << config_.seed << ",horizon_s=" << config_.horizon_s
     << ",arrival_rate=" << config_.arrival_rate << ")";
  return os.str();
}

StreamPtr SyntheticSource::open_stream() const {
  return std::make_unique<SyntheticStream>(config_, describe());
}

IngestResult SyntheticSource::load() const { return drain(*open_stream()); }

}  // namespace cloudcr::ingest
