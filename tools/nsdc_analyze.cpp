// nsdc_analyze: multi-pass static timing-graph analysis — certified
// interval delay bounds, charlib domain-coverage audit, SCC structural
// verification, and the optional cross-engine consistency gate — run
// WITHOUT sampling (the gate being the deliberate exception).
//
// Usage: nsdc_analyze (--bench F | --verilog F | --iscas NAME | --random N)
//                     [--spef F | --gen-spef]
//                     [--charlib F | --synthetic-charlib]
//                     [--json] [--threads N] [--zmax Z] [--epsilon E]
//                     [--verify] [--mc-samples N] [--seed S]
//                     [--disable PASS]... [--list-passes]
//
//   --synthetic-charlib use the closed-form synthetic library (no file)
//   --zmax Z            certificate level: bounds hold for |z| <= Z (def 6)
//   --epsilon E         near-boundary band of the domain audit (def 0.05)
//   --verify            run the cross-engine consistency gate (3 engines)
//   --mc-samples N      Monte-Carlo depth of the gate (default 2000;
//                       --verify-samples is an accepted alias)
//   --seed S            Monte-Carlo seed of the gate (default 777)
//   --list-passes       print the registered passes and exit
//
// design_loader.hpp documents the other flags and the exit status;
// --disable takes a pass id.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

#include "analysis/analysis.hpp"
#include "design_loader.hpp"
#include "util/argparse.hpp"
#include "util/errors.hpp"

using namespace nsdc;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--bench F | --verilog F | --iscas NAME | --random N)\n"
      "          [--spef F | --gen-spef] [--charlib F | --synthetic-charlib]\n"
      "          [--json] [--threads N] [--zmax Z] [--epsilon E]\n"
      "          [--verify] [--mc-samples N] [--seed S]\n"
      "          [--disable PASS]... [--list-passes]\n",
      argv0);
  return 3;
}

int list_passes() {
  for (const auto& pass : AnalysisRegistry::global().checks()) {
    std::printf("%-26s %s\n", pass.id.c_str(), pass.description.c_str());
  }
  return 0;
}

int tool_main(int argc, char** argv) {
  DesignFlags flags;
  AnalysisOptions options;
  for (int i = 1; i < argc; ++i) {
    auto arg_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* a = argv[i];
    const char* v = nullptr;
    if (std::strcmp(a, "--list-passes") == 0) return list_passes();
    if (flags.parse(argc, argv, i)) continue;
    if (std::strcmp(a, "--synthetic-charlib") == 0) {
      flags.synthetic_charlib = true;
    } else if (std::strcmp(a, "--verify") == 0) {
      options.verify_engines = true;
    } else if (std::strcmp(a, "--zmax") == 0 && (v = arg_value())) {
      options.z_max = require_real("--zmax", v, 1e-6, 100.0);
    } else if (std::strcmp(a, "--epsilon") == 0 && (v = arg_value())) {
      options.domain_epsilon = require_real("--epsilon", v, 0.0, 10.0);
    } else if ((std::strcmp(a, "--mc-samples") == 0 ||
                std::strcmp(a, "--verify-samples") == 0) &&
               (v = arg_value())) {
      options.verify_samples =
          static_cast<int>(require_integer(a, v, 1, 100'000'000));
    } else if (std::strcmp(a, "--seed") == 0 && (v = arg_value())) {
      options.verify_seed = static_cast<std::uint64_t>(require_integer(
          "--seed", v, 0, std::numeric_limits<long long>::max()));
    } else {
      return usage(argv[0]);
    }
  }
  if (!flags.one_source() || options.z_max <= 0.0 ||
      (flags.synthetic_charlib && !flags.charlib_path.empty())) {
    return usage(argv[0]);
  }

  LoadedDesign design;
  if (const int rc = load_design(flags, "nsdc_analyze", design)) return rc;
  options.exec.threads = flags.threads;
  options.disabled_passes = flags.disabled;
  AnalysisInput input = design_input<AnalysisInput>(design);
  if (design.wire_model) input.wire_model = &*design.wire_model;
  AnalysisReport report = run_analysis(input, options);
  return print_report(report, design, flags.json);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return tool_main(argc, argv);
  } catch (...) {
    return handle_tool_exception("nsdc_analyze");
  }
}
