#include "obs/spec.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "obs/trace_writer.hpp"

namespace cloudcr::obs {

namespace {

// Local checked parsers (the api-layer helpers live above obs in the
// dependency order, so they cannot be reused here).
double parse_double(const std::string& label, const std::string& text) {
  if (text == "inf") return std::numeric_limits<double>::infinity();
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::invalid_argument("obs " + label + ": malformed number '" +
                                text + "'");
  }
  if (std::isnan(v)) {
    throw std::invalid_argument("obs " + label + ": not a number '" + text +
                                "'");
  }
  return v;
}

std::uint64_t parse_u64(const std::string& label, const std::string& text) {
  if (text.empty() || text[0] == '-' || text[0] == '+') {
    throw std::invalid_argument("obs " + label + ": malformed count '" +
                                text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::invalid_argument("obs " + label + ": malformed count '" +
                                text + "'");
  }
  return static_cast<std::uint64_t>(v);
}

/// Max-digits10 text without an exponent '+' (strtod reads "1e20" the
/// same), since '+' separates features.
std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  std::ostringstream os;
  os.precision(17);
  os << v;
  std::string text = os.str();
  if (const auto plus = text.find("e+"); plus != std::string::npos) {
    text.erase(plus + 1, 1);
  }
  return text;
}

/// Index of the '-' between the two window bounds: the first one that
/// neither leads the text nor follows an exponent marker ("1e-3-10").
std::size_t window_dash(const std::string& arg) {
  for (std::size_t i = 1; i < arg.size(); ++i) {
    if (arg[i] == '-' && arg[i - 1] != 'e' && arg[i - 1] != 'E') return i;
  }
  return std::string::npos;
}

}  // namespace

bool enabled(const ObsSpec& spec) noexcept {
  return spec.stats || spec.probe_interval_s > 0.0 ||
         !spec.trace_path.empty();
}

std::string serialize_obs(const ObsSpec& spec) {
  const ObsSpec defaults;
  std::ostringstream os;
  bool first = true;
  const auto sep = [&] {
    if (!first) os << '+';
    first = false;
  };
  if (spec.stats) {
    sep();
    os << "stats";
  }
  if (spec.probe_interval_s != defaults.probe_interval_s) {
    sep();
    os << "probe:" << format_double(spec.probe_interval_s);
  }
  if (!spec.trace_path.empty()) {
    sep();
    os << "trace:" << spec.trace_path;
  }
  if (spec.trace_window_begin_s != defaults.trace_window_begin_s ||
      spec.trace_window_end_s != defaults.trace_window_end_s) {
    sep();
    os << "window:" << format_double(spec.trace_window_begin_s) << '-'
       << format_double(spec.trace_window_end_s);
  }
  if (!spec.trace_categories.empty()) {
    sep();
    os << "cats:" << spec.trace_categories;
  }
  if (spec.trace_ring != defaults.trace_ring) {
    sep();
    os << "ring:" << spec.trace_ring;
  }
  return os.str();
}

ObsSpec parse_obs(const std::string& text) {
  ObsSpec spec;
  if (text.empty()) return spec;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t plus = text.find('+', pos);
    const std::string feature =
        text.substr(pos, plus == std::string::npos ? plus : plus - pos);
    const std::size_t colon = feature.find(':');
    const std::string key =
        colon == std::string::npos ? feature : feature.substr(0, colon);
    const std::string arg =
        colon == std::string::npos ? "" : feature.substr(colon + 1);
    if (key == "stats" && colon == std::string::npos) {
      spec.stats = true;
    } else if (key == "probe") {
      spec.probe_interval_s = parse_double("probe", arg);
      if (!(spec.probe_interval_s > 0.0)) {
        throw std::invalid_argument(
            "obs probe: interval must be > 0, got '" + arg + "'");
      }
    } else if (key == "trace") {
      if (arg.empty()) {
        throw std::invalid_argument("obs trace: a path is required");
      }
      spec.trace_path = arg;
    } else if (key == "window") {
      const std::size_t dash = window_dash(arg);
      if (dash == std::string::npos) {
        throw std::invalid_argument(
            "obs window: expected '<t0>-<t1>', got '" + arg + "'");
      }
      spec.trace_window_begin_s = parse_double("window", arg.substr(0, dash));
      spec.trace_window_end_s = parse_double("window", arg.substr(dash + 1));
      if (spec.trace_window_end_s < spec.trace_window_begin_s) {
        throw std::invalid_argument("obs window: end precedes begin in '" +
                                    arg + "'");
      }
    } else if (key == "cats") {
      (void)parse_trace_categories(arg);  // validate now, fail loudly
      spec.trace_categories = arg;
    } else if (key == "ring") {
      spec.trace_ring = parse_u64("ring", arg);
      if (spec.trace_ring == 0) {
        throw std::invalid_argument("obs ring: capacity must be > 0");
      }
    } else {
      throw std::invalid_argument(
          "unknown obs feature '" + feature +
          "' (known: stats, probe:<s>, trace:<path>, window:<t0>-<t1>, "
          "cats:<c1|c2>, ring:<n>)");
    }
    if (plus == std::string::npos) break;
    pos = plus + 1;
  }
  return spec;
}

bool operator==(const ObsSpec& a, const ObsSpec& b) noexcept {
  const auto bits = [](double v) {
    std::uint64_t u;
    static_assert(sizeof(u) == sizeof(v));
    __builtin_memcpy(&u, &v, sizeof(u));
    return u;
  };
  return a.stats == b.stats &&
         bits(a.probe_interval_s) == bits(b.probe_interval_s) &&
         a.trace_path == b.trace_path &&
         bits(a.trace_window_begin_s) == bits(b.trace_window_begin_s) &&
         bits(a.trace_window_end_s) == bits(b.trace_window_end_s) &&
         a.trace_categories == b.trace_categories &&
         a.trace_ring == b.trace_ring;
}

}  // namespace cloudcr::obs
