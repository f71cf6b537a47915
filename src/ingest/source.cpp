#include "ingest/source.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "ingest/stream.hpp"
#include "trace/csv.hpp"

namespace cloudcr::ingest {

StreamPtr TraceSource::open_stream() const {
  // Default for formats that must aggregate the whole input first: chunk
  // the materialized result (incremental producers override this).
  return std::make_unique<ChunkedTraceStream>(load());
}

void IngestReport::skip(std::size_t line_number, std::string reason) {
  ++rows_skipped;
  if (skipped.size() < kMaxSkipSamples) {
    skipped.push_back({line_number, std::move(reason)});
  }
}

std::string IngestReport::summary() const {
  std::ostringstream os;
  os << source << ": " << rows_total << " rows, " << rows_used << " used, "
     << rows_skipped << " skipped";
  if (censored_tail_count > 0) {
    os << ", " << censored_tail_count << " censored tails";
  }
  if (rows_skipped > 0 && !skipped.empty()) {
    // Reasons come from trace::csv::field_error and already carry the line
    // number.
    os << " (first: " << skipped.front().reason << ")";
  }
  return os.str();
}

std::ifstream open_trace_file(const std::string& label,
                              const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error(label + ": cannot open " + path);
  return is;
}

void for_each_query_pair(
    const std::string& label, const std::string& text,
    const std::function<void(const std::string& key, const std::string& value)>&
        apply) {
  if (text.empty()) return;
  for (const auto& pair : trace::csv::split(text, ',')) {
    const auto eq = pair.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(label + " entry without '=': '" + pair +
                                  "'");
    }
    apply(pair.substr(0, eq), pair.substr(eq + 1));
  }
}

}  // namespace cloudcr::ingest
