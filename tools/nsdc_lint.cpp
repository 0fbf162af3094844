// nsdc_lint: static design lint — structural netlist checks, parasitic
// sanity, and charlib-domain analysis — run BEFORE STA / Monte-Carlo.
//
// Usage: nsdc_lint (--bench F | --verilog F | --iscas NAME | --random N)
//                  [--spef F | --gen-spef] [--charlib F]
//                  [--json] [--threads N] [--disable RULE]... [--list-rules]
//
//   --list-rules   print the registered rules and exit
//
// design_loader.hpp documents the other flags and the exit status:
// --spef / --gen-spef enable the parasitic rules, --charlib the domain
// rules, and --disable takes a rule id.
#include <cstdio>
#include <cstring>

#include "design_loader.hpp"
#include "lint/lint.hpp"
#include "util/errors.hpp"

using namespace nsdc;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--bench F | --verilog F | --iscas NAME | --random N)\n"
      "          [--spef F | --gen-spef] [--charlib F]\n"
      "          [--json] [--threads N] [--disable RULE]... [--list-rules]\n",
      argv0);
  return 3;
}

int list_rules() {
  for (const auto& rule : LintRegistry::global().checks()) {
    std::printf("%-26s %-10s %s\n", rule.id.c_str(), rule.layer.c_str(),
                rule.description.c_str());
  }
  return 0;
}

int tool_main(int argc, char** argv) {
  DesignFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-rules") == 0) return list_rules();
    if (!flags.parse(argc, argv, i)) return usage(argv[0]);
  }
  if (!flags.one_source()) return usage(argv[0]);

  LoadedDesign design;
  if (const int rc = load_design(flags, "nsdc_lint", design)) return rc;
  LintOptions options;
  options.exec.threads = flags.threads;
  options.disabled_rules = flags.disabled;
  LintReport report = run_lint(design_input<LintInput>(design), options);
  return print_report(report, design, flags.json);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return tool_main(argc, argv);
  } catch (...) {
    return handle_tool_exception("nsdc_lint");
  }
}
