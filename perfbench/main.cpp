// nsdc_perfbench: runs one benchmark workload and prints its metrics.
//
//   nsdc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Run from the repository root (it reads nsdc_charlib_cache.txt there and
// writes only under .bench_build/). The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics": {name: value}};
// perfbench/run.py attaches units and selects the metric set listed in
// BENCHMARK.json. Human-readable notes go to stderr. Exit 0 after a run
// (check "correct"), 2 on a usage error, 1 when the workload cannot run
// (set-up failure, guard refusal, lost daemon connection).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/threading.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "nsdc_perfbench: " << why
            << "\nusage: nsdc_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:";
  for (const auto& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    return false;
  }
  out = std::stoull(s);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, n)) return usage("bad --seed " + value);
      args.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 600) {
        return usage("bad --seconds " + value);
      }
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      args.trace = value == "1";
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload) return usage("--workload is required");
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return usage("unknown workload " + args.workload);
  }

  // Fix the lane count before anything touches the global pool, so the
  // figures do not depend on the host's core count.
  const unsigned lanes = perfbench::workload_lanes(args.workload);
  nsdc::set_default_threads(lanes);
  bool sanitized = false;
#ifdef NSDC_SANITIZED_BUILD
  sanitized = true;
#endif
  std::cerr << "host: nproc=" << std::thread::hardware_concurrency()
            << " lanes=" << lanes << " build=" << NSDC_PERFBENCH_BUILD_TYPE
            << (sanitized ? " SANITIZER BUILD: timings not comparable" : "")
            << "\n";
#ifndef NDEBUG
  std::cerr << "host: assertions enabled: timings not comparable\n";
#endif

  perfbench::SpanRecorder spans(args.trace);
  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(args, spans);
  } catch (const std::exception& e) {
    std::cerr << "nsdc_perfbench: " << args.workload
              << " failed: " << e.what() << "\n";
    return 1;
  }
  for (auto& [name, value] : out.metrics) {
    if (!std::isfinite(value)) {
      out.fail("metric " + name + " is not finite");
      value = 0.0;
    }
  }
  for (const auto& note : out.notes) std::cerr << "  " << note << "\n";

  if (args.trace) {
    std::filesystem::create_directories(".bench_build");
    const std::string path = ".bench_build/perfbench-trace-" + args.workload +
                             "-" + std::to_string(args.seed) + ".json";
    if (spans.write_chrome_json(path)) {
      std::cerr << "  spans: " << path << "\n";
    } else {
      std::cerr << "  spans: could not write " << path << "\n";
    }
  }

  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    std::cout << (first ? "" : ", ") << "\"" << name << "\": " << buf;
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
