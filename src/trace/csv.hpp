#pragma once

/// \file csv.hpp
/// \brief Streaming CSV tokenization shared by trace IO and the ingest
/// readers.
///
/// Every CSV-shaped reader in the codebase (trace::read_csv, the ingest
/// sources under src/ingest/) tokenizes through this module so the edge
/// cases are handled once: CRLF line endings, trailing blank lines, and
/// malformed or out-of-range numeric fields — all reported with 1-based
/// line numbers.
///
/// The readers are deliberately line-at-a-time: a LineReader holds one line
/// of state regardless of file size, which is what keeps month-scale
/// multi-hundred-MB logs ingestible in bounded memory.

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

namespace cloudcr::trace::csv {

/// Reads lines from a stream, stripping a trailing '\r' (CRLF input) and
/// tracking the 1-based number of the line most recently returned.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Fetches the next line into `line`; returns false at end of input.
  bool next(std::string& line);

  /// 1-based number of the line last returned by next(); 0 before the
  /// first call.
  [[nodiscard]] std::size_t line_number() const noexcept { return line_; }

 private:
  std::istream& is_;
  std::size_t line_ = 0;
};

/// Splits a line on `sep`. A trailing separator yields a trailing empty
/// field ("a,b," -> {"a", "b", ""}); an empty line yields no fields.
std::vector<std::string> split(const std::string& line, char sep);

/// True if the line is empty or whitespace-only (a trailing blank line).
bool is_blank(const std::string& line);

// -- checked field parsing ---------------------------------------------------
// All throw std::runtime_error with a message of the form
//   "<label>: line <n>: <problem> '<text>'"
// so a reader's caller can pinpoint the offending row. A line_number of 0
// omits the line clause — for non-row contexts (mapping/option strings,
// api::parse_checked_* delegating here).

/// Parses a double, rejecting empty fields, trailing garbage, NaN in any
/// spelling, and values that overflow to infinity (an explicit "inf" token
/// is accepted).
double parse_double(const std::string& label, const std::string& text,
                    std::size_t line_number);

/// Parses an unsigned 64-bit integer, rejecting signs (no silent wraparound
/// of negative input), trailing garbage, and out-of-range values.
std::uint64_t parse_u64(const std::string& label, const std::string& text,
                        std::size_t line_number);

/// Parses a signed int, rejecting trailing garbage and out-of-range values.
int parse_int(const std::string& label, const std::string& text,
              std::size_t line_number);

/// Builds the error that the parsers above throw (exposed so readers can
/// report row-level problems in the same format).
std::runtime_error field_error(const std::string& label,
                               std::size_t line_number,
                               const std::string& problem,
                               const std::string& text);

}  // namespace cloudcr::trace::csv
