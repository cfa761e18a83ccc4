// End-to-end benchmark entry point.
//
//   e2ebench --workload <sweep-grid|cell-capacity|live-fleet> --seed N
//            --seconds S --trace <0|1> [--threads T] [--spans-out FILE]
//
// Prints human-readable notes, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  README.md in
// this directory documents every metric.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: e2ebench --workload "
               "<sweep-grid|cell-capacity|live-fleet> --seed N --seconds S "
               "--trace <0|1> [--threads T] [--spans-out FILE]\n",
               why.c_str());
  std::exit(2);
}

long parse_int(const std::string& flag, const std::string& value, long lo,
               long hi) {
  std::size_t used = 0;
  long v = 0;
  try {
    v = std::stol(value, &used);
  } catch (const std::exception&) {
    usage(flag + " needs an integer, got '" + value + "'");
  }
  if (used != value.size() || v < lo || v > hi) {
    usage(flag + " must be an integer in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + value + "'");
  }
  return v;
}

e2e::Options parse(int argc, char** argv) {
  e2e::Options o;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  o.threads = std::min(4u, cores);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = static_cast<std::uint64_t>(
          parse_int(flag, value, 0, 1L << 62));
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_int(flag, value, 1, 600));
    } else if (flag == "--trace") {
      o.trace = parse_int(flag, value, 0, 1) == 1;
    } else if (flag == "--threads") {
      o.threads = static_cast<unsigned>(parse_int(flag, value, 1, 64));
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else {
      usage("unknown option " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Options options = parse(argc, argv);
  try {
    e2e::Report report;
    if (options.workload == "sweep-grid") {
      report = e2e::run_sweep_grid(options);
    } else if (options.workload == "cell-capacity") {
      report = e2e::run_cell_capacity(options);
    } else if (options.workload == "live-fleet") {
      report = e2e::run_live_fleet(options);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
    std::printf("e2ebench %s seed=%llu trace=%d threads=%u\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? 1 : 0, options.threads);
    for (const std::string& note : report.notes) {
      std::printf("  %s\n", note.c_str());
    }
    for (const e2e::Metric& m : report.metrics.items()) {
      std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("%s\n", e2e::result_json(report.failed == 0, report.attempted,
                                         report.failed, report.metrics)
                            .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
