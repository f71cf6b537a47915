// perfbench — the repository benchmark binary.
//
//   perfbench --workload month_replay|repro_matrix|service_mixed
//             --seed N --seconds S --trace 0|1
//
// Prints the host stamp, every metric by name with its unit and sample
// count, the output digest and the correctness verdict, then — as the last
// line — one JSON object {"correct","attempted","failed","metrics"} whose
// metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1). Spans and fixtures go under .bench_out/. See README.md.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "layers.hpp"
#include "metrics/export.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

using cloudcr::metrics::json_double;
using cloudcr::metrics::json_quote;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload month_replay|repro_matrix|"
               "service_mixed --seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace wants 0 or 1");
        o.trace = value == "1";
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": '" + value + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
  return o;
}

void print_metric(std::ostream& os, const char* kind, const Metric& m) {
  os << kind << ' ' << m.name << " = " << json_double(m.value) << ' '
     << m.unit << " (n=" << m.samples << ")\n";
}

void write_metrics_json(std::ostream& os, const std::vector<Metric>& ms) {
  os << '{';
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) os << ',';
    os << json_quote(ms[i].name) << ":{\"value\":" << json_double(ms[i].value)
       << ",\"unit\":" << json_quote(ms[i].unit) << '}';
  }
  os << '}';
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string cpu = cpu_model();
  std::cout << "host: nproc=" << nproc << " cpu=\"" << cpu << "\"\n"
            << "workload: " << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n";

  if (options.trace) layers::install();

  Result result;
  try {
    if (options.workload == "month_replay") {
      result = run_month_replay(options);
    } else if (options.workload == "repro_matrix") {
      result = run_repro_matrix(options);
    } else if (options.workload == "service_mixed") {
      result = run_service_mixed(options);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  const double error_rate =
      result.attempted == 0
          ? 1.0
          : static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  for (const Metric& m : result.named) print_metric(std::cout, "metric", m);
  print_metric(std::cout, "metric",
               {"error_rate", error_rate, "ratio", result.attempted});
  for (const Metric& m : result.end_to_end) {
    print_metric(std::cout, "end_to_end", m);
  }
  for (const Metric& m : result.layers) print_metric(std::cout, "layer", m);
  for (const std::string& note : result.notes) std::cout << note << "\n";
  for (const std::string& f : result.failures) {
    std::cout << "FAILED: " << f << "\n";
  }
  std::cout << "digest: " << result.digest << "\n";

  const bool correct = result.failed == 0 && result.attempted > 0;
  const std::vector<Metric>& reported =
      options.trace ? result.layers : result.end_to_end;

  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":";
  write_metrics_json(std::cout, reported);
  std::cout << "}" << std::endl;
  return 0;
}
