#include "trace/csv.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace cloudcr::trace::csv {

bool LineReader::next(std::string& line) {
  if (!std::getline(is_, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  ++line_;
  return true;
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  if (line.empty()) return out;
  std::string::size_type start = 0;
  for (;;) {
    const auto pos = line.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

bool is_blank(const std::string& line) {
  return line.find_first_not_of(" \t") == std::string::npos;
}

std::runtime_error field_error(const std::string& label,
                               std::size_t line_number,
                               const std::string& problem,
                               const std::string& text) {
  std::ostringstream os;
  os << label << ": ";
  if (line_number > 0) os << "line " << line_number << ": ";
  os << problem << " '" << text << "'";
  return std::runtime_error(os.str());
}

double parse_double(const std::string& label, const std::string& text,
                    std::size_t line_number) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw field_error(label, line_number, "malformed number", text);
  }
  // "1e999" overflows to inf; an explicit "inf" token stays accepted and
  // underflow-to-subnormal is left alone (matches api::parse_checked_double).
  if (errno == ERANGE && std::isinf(v)) {
    throw field_error(label, line_number, "number out of range", text);
  }
  // strtod accepts "nan" in every spelling; no field means anything by it,
  // and a NaN slips past every later range comparison.
  if (std::isnan(v)) {
    throw field_error(label, line_number, "not a number", text);
  }
  return v;
}

std::uint64_t parse_u64(const std::string& label, const std::string& text,
                        std::size_t line_number) {
  // strtoull skips leading whitespace and wraps signed input, so require the
  // first meaningful character to be a digit.
  const auto first = text.find_first_not_of(" \t");
  if (first == std::string::npos || text[first] < '0' || text[first] > '9') {
    throw field_error(label, line_number, "malformed integer", text);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    throw field_error(label, line_number, "malformed integer", text);
  }
  if (errno == ERANGE) {
    throw field_error(label, line_number, "integer out of range", text);
  }
  return static_cast<std::uint64_t>(v);
}

int parse_int(const std::string& label, const std::string& text,
              std::size_t line_number) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    throw field_error(label, line_number, "malformed integer", text);
  }
  if (errno == ERANGE || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw field_error(label, line_number, "integer out of range", text);
  }
  return static_cast<int>(v);
}

}  // namespace cloudcr::trace::csv
