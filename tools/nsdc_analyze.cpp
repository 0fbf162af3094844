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
//   --bench F           load an ISCAS-style .bench netlist
//   --verilog F         load a structural Verilog netlist
//   --iscas NAME        generate the ISCAS85-like synthetic design (C432...)
//   --random N          generate a seeded random mapped design of ~N cells
//   --spef F            load SPEF-lite parasitics
//   --gen-spef          generate seeded parasitics for the netlist instead
//   --charlib F         load a characterized library
//   --synthetic-charlib use the closed-form synthetic library (no file)
//   --json              machine-readable report on stdout (deterministic)
//   --threads N         worker lanes (reports are identical at any count)
//   --zmax Z            certificate level: bounds hold for |z| <= Z (def 6)
//   --epsilon E         near-boundary band of the domain audit (def 0.05)
//   --verify            run the cross-engine consistency gate (3 engines)
//   --mc-samples N      Monte-Carlo depth of the gate (default 2000;
//                       --verify-samples is an accepted alias)
//   --seed S            Monte-Carlo seed of the gate (default 777)
//   --disable P         skip pass id P (repeatable)
//   --list-passes       print the registered passes and exit
//
// Exit status: 0 clean/info, 1 warnings, 2 errors, 3 usage, invalid
// argument value, or load failure; typed failures map to the shared
// robustness codes (util/errors.hpp): 10 cancelled, 11 unrecoverable parse
// error, 12 I/O error, 13 internal error.
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "liberty/synthlib.hpp"
#include "netlist/benchio.hpp"
#include "netlist/designgen.hpp"
#include "netlist/verilogio.hpp"
#include "sta/annotate.hpp"
#include "util/argparse.hpp"
#include "util/errors.hpp"
#include "util/log.hpp"
#include "util/threading.hpp"

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
  for (const auto& pass : AnalysisRegistry::global().passes()) {
    std::printf("%-26s %s\n", pass.id.c_str(), pass.description.c_str());
  }
  return 0;
}

int tool_main(int argc, char** argv) {
  std::string bench_path, verilog_path, iscas_name, spef_path, charlib_path;
  int random_cells = 0;
  bool gen_spef = false, json = false, synthetic = false;
  AnalysisOptions options;

  for (int i = 1; i < argc; ++i) {
    auto arg_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* a = argv[i];
    const char* v = nullptr;
    if (std::strcmp(a, "--list-passes") == 0) return list_passes();
    if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else if (std::strcmp(a, "--gen-spef") == 0) {
      gen_spef = true;
    } else if (std::strcmp(a, "--synthetic-charlib") == 0) {
      synthetic = true;
    } else if (std::strcmp(a, "--verify") == 0) {
      options.verify_engines = true;
    } else if (std::strcmp(a, "--bench") == 0 && (v = arg_value())) {
      bench_path = v;
    } else if (std::strcmp(a, "--verilog") == 0 && (v = arg_value())) {
      verilog_path = v;
    } else if (std::strcmp(a, "--iscas") == 0 && (v = arg_value())) {
      iscas_name = v;
    } else if (std::strcmp(a, "--random") == 0 && (v = arg_value())) {
      random_cells =
          static_cast<int>(require_integer("--random", v, 1, 10'000'000));
    } else if (std::strcmp(a, "--spef") == 0 && (v = arg_value())) {
      spef_path = v;
    } else if (std::strcmp(a, "--charlib") == 0 && (v = arg_value())) {
      charlib_path = v;
    } else if (std::strcmp(a, "--threads") == 0 && (v = arg_value())) {
      options.exec.threads = require_unsigned("--threads", v, 1, 1024);
      set_default_threads(options.exec.threads);
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
    } else if (std::strcmp(a, "--disable") == 0 && (v = arg_value())) {
      options.disabled_passes.push_back(v);
    } else {
      return usage(argv[0]);
    }
  }
  const int sources = (bench_path.empty() ? 0 : 1) +
                      (verilog_path.empty() ? 0 : 1) +
                      (iscas_name.empty() ? 0 : 1) + (random_cells > 0 ? 1 : 0);
  if (sources != 1) return usage(argv[0]);
  if (!charlib_path.empty() && synthetic) return usage(argv[0]);
  if (options.z_max <= 0.0) return usage(argv[0]);
  set_log_level(LogLevel::kWarn);

  const TechParams tech = TechParams::nominal28();
  const CellLibrary cells = CellLibrary::standard();
  std::vector<Diagnostic> parse_diags;

  std::optional<GateNetlist> nl;
  try {
    if (!bench_path.empty()) {
      nl = load_bench(bench_path, cells, &parse_diags);
    } else if (!verilog_path.empty()) {
      nl = load_verilog(verilog_path, cells, &parse_diags);
    } else if (!iscas_name.empty()) {
      nl = generate_iscas_like(iscas_name, cells);
      finalize_design(*nl, cells, tech);
    } else {
      RandomNetlistSpec spec;
      spec.name = "random" + std::to_string(random_cells);
      spec.target_cells = random_cells;
      nl = generate_random_mapped(spec, cells);
      finalize_design(*nl, cells, tech);
    }
  } catch (const Error&) {
    throw;  // typed: the top-level handler maps it to its exit code
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nsdc_analyze: cannot load design: %s\n", e.what());
    return 3;
  }

  std::optional<ParasiticDb> spef;
  if (!spef_path.empty()) {
    spef = ParasiticDb::load(spef_path, &parse_diags);
    if (!spef) {
      std::fprintf(stderr, "nsdc_analyze: cannot open %s\n",
                   spef_path.c_str());
      return 3;
    }
  } else if (gen_spef) {
    spef = generate_parasitics(*nl, tech);
  }

  std::optional<CharLib> charlib;
  std::optional<NSigmaCellModel> cell_model;
  std::optional<NSigmaWireModel> wire_model;
  if (synthetic) {
    charlib = make_synthetic_charlib();
  } else if (!charlib_path.empty()) {
    charlib = CharLib::load(charlib_path);
    if (!charlib) {
      std::fprintf(stderr, "nsdc_analyze: cannot load charlib %s\n",
                   charlib_path.c_str());
      return 3;
    }
  }
  if (charlib) {
    try {
      cell_model = NSigmaCellModel::fit(*charlib);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nsdc_analyze: charlib cell-model fit failed: %s\n",
                   e.what());
      // Model passes skip themselves; the structural pass still runs.
    }
    try {
      wire_model = NSigmaWireModel::fit(*charlib, cells);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nsdc_analyze: charlib wire-model fit failed: %s\n",
                   e.what());
    }
  }

  AnalysisInput input;
  input.netlist = &*nl;
  if (spef) input.parasitics = &*spef;
  if (charlib) {
    input.charlib = &*charlib;
    input.tech = &charlib->tech();
  }
  if (cell_model) input.cell_model = &*cell_model;
  if (wire_model) input.wire_model = &*wire_model;
  if (input.tech == nullptr) input.tech = &tech;

  AnalysisReport report = run_analysis(input, options);
  report.merge(std::move(parse_diags));

  if (json) {
    std::fputs(report.to_json().c_str(), stdout);
  } else {
    std::fputs(report.to_text().c_str(), stdout);
  }
  return report.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return tool_main(argc, argv);
  } catch (...) {
    return handle_tool_exception("nsdc_analyze");
  }
}
