#pragma once
// The front end nsdc_lint and nsdc_analyze share, included by both: the
// design-source flags, the netlist / SPEF / charlib loads and model fits,
// and the report print.
//
//   --bench F      load an ISCAS-style .bench netlist
//   --verilog F    load a structural Verilog netlist
//   --iscas NAME   generate the ISCAS85-like synthetic design (e.g. C432)
//   --random N     generate a seeded random mapped design of ~N cells
//   --spef F       load SPEF-lite parasitics
//   --gen-spef     generate seeded parasitics for the netlist instead
//   --charlib F    load a characterized library
//   --json         machine-readable report on stdout (deterministic)
//   --threads N    worker lanes (reports are identical at any count)
//   --disable ID   skip rule / pass id ID (repeatable)
//
// Exactly one of --bench / --verilog / --iscas / --random names the
// design. Parser problems (malformed lines, undefined signals, negative
// RC, ...) are reported as parse.* diagnostics with source line numbers
// and merged into the report. Exit status: 0 clean/info, 1 warnings,
// 2 errors, 3 usage, invalid argument value, or load failure; typed
// failures map to the shared robustness codes (util/errors.hpp):
// 10 cancelled, 11 unrecoverable parse error, 12 I/O error, 13 internal
// error.
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "core/nsigma_cell.hpp"
#include "core/nsigma_wire.hpp"
#include "liberty/charlib.hpp"
#include "liberty/synthlib.hpp"
#include "netlist/benchio.hpp"
#include "netlist/designgen.hpp"
#include "netlist/verilogio.hpp"
#include "sta/annotate.hpp"
#include "util/argparse.hpp"
#include "util/errors.hpp"
#include "util/log.hpp"
#include "util/threading.hpp"

namespace nsdc {

/// The shared flags, as parsed.
struct DesignFlags {
  std::string bench_path, verilog_path, iscas_name, spef_path, charlib_path;
  int random_cells = 0;
  bool gen_spef = false, json = false;
  /// The closed-form synthetic library stands in for --charlib (set by
  /// nsdc_analyze's --synthetic-charlib).
  bool synthetic_charlib = false;
  unsigned threads = 0;  ///< 0 = the default lane count
  std::vector<std::string> disabled;

  /// Consumes argv[i], and its value when it takes one, if it is a shared
  /// flag; false for any other argument and for a missing value.
  bool parse(int argc, char** argv, int& i) {
    auto arg_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* a = argv[i];
    const char* v = nullptr;
    if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else if (std::strcmp(a, "--gen-spef") == 0) {
      gen_spef = true;
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
      threads = require_unsigned("--threads", v, 1, 1024);
      set_default_threads(threads);
    } else if (std::strcmp(a, "--disable") == 0 && (v = arg_value())) {
      disabled.push_back(v);
    } else {
      return false;
    }
    return true;
  }

  bool one_source() const {
    return (bench_path.empty() ? 0 : 1) + (verilog_path.empty() ? 0 : 1) +
               (iscas_name.empty() ? 0 : 1) + (random_cells > 0 ? 1 : 0) ==
           1;
  }
};

/// A loaded design, its parse diagnostics and the models fitted to its
/// charlib (filled by load_design).
struct LoadedDesign {
  CellLibrary cells = CellLibrary::standard();
  TechParams nominal_tech = TechParams::nominal28();
  std::optional<GateNetlist> netlist;
  std::optional<ParasiticDb> parasitics;
  std::optional<CharLib> charlib;
  std::optional<NSigmaCellModel> cell_model;
  std::optional<NSigmaWireModel> wire_model;
  std::vector<Diagnostic> parse_diags;
};

/// Loads the design `flags` name and fits the models to its charlib.
/// Returns 0, or 3 after printing "<tool>: cannot ..." when a load fails;
/// typed errors propagate. A failed model fit only warns: the checks that
/// need the model skip themselves.
inline int load_design(const DesignFlags& flags, const char* tool,
                       LoadedDesign& d) {
  set_log_level(LogLevel::kWarn);
  try {
    if (!flags.bench_path.empty()) {
      d.netlist = load_bench(flags.bench_path, d.cells, &d.parse_diags);
    } else if (!flags.verilog_path.empty()) {
      d.netlist = load_verilog(flags.verilog_path, d.cells, &d.parse_diags);
    } else if (!flags.iscas_name.empty()) {
      d.netlist = generate_iscas_like(flags.iscas_name, d.cells);
      finalize_design(*d.netlist, d.cells, d.nominal_tech);
    } else {
      RandomNetlistSpec spec;
      spec.name = "random" + std::to_string(flags.random_cells);
      spec.target_cells = flags.random_cells;
      d.netlist = generate_random_mapped(spec, d.cells);
      finalize_design(*d.netlist, d.cells, d.nominal_tech);
    }
  } catch (const Error&) {
    throw;  // typed: the top-level handler maps it to its exit code
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: cannot load design: %s\n", tool, e.what());
    return 3;
  }

  if (!flags.spef_path.empty()) {
    d.parasitics = ParasiticDb::load(flags.spef_path, &d.parse_diags);
    if (!d.parasitics) {
      std::fprintf(stderr, "%s: cannot open %s\n", tool,
                   flags.spef_path.c_str());
      return 3;
    }
  } else if (flags.gen_spef) {
    d.parasitics = generate_parasitics(*d.netlist, d.nominal_tech);
  }

  if (flags.synthetic_charlib) {
    d.charlib = make_synthetic_charlib();
  } else if (!flags.charlib_path.empty()) {
    d.charlib = CharLib::load(flags.charlib_path);
    if (!d.charlib) {
      std::fprintf(stderr, "%s: cannot load charlib %s\n", tool,
                   flags.charlib_path.c_str());
      return 3;
    }
  }
  if (d.charlib) {
    try {
      d.cell_model = NSigmaCellModel::fit(*d.charlib);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: charlib cell-model fit failed: %s\n", tool,
                   e.what());
    }
    try {
      d.wire_model = NSigmaWireModel::fit(*d.charlib, d.cells);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: charlib wire-model fit failed: %s\n", tool,
                   e.what());
    }
  }
  return 0;
}

/// A LintInput or AnalysisInput pointing at `d` (all but the wire model);
/// tech comes from the charlib when one is loaded.
template <class Input>
Input design_input(const LoadedDesign& d) {
  Input input;
  input.netlist = &*d.netlist;
  if (d.parasitics) input.parasitics = &*d.parasitics;
  if (d.charlib) input.charlib = &*d.charlib;
  if (d.cell_model) input.cell_model = &*d.cell_model;
  input.tech = d.charlib ? &d.charlib->tech() : &d.nominal_tech;
  return input;
}

/// Merges the parse diagnostics into `report`, prints it as text or JSON
/// and returns its exit code.
template <class Report>
int print_report(Report& report, LoadedDesign& d, bool json) {
  report.merge(std::move(d.parse_diags));
  std::fputs((json ? report.to_json() : report.to_text()).c_str(), stdout);
  return report.exit_code();
}

}  // namespace nsdc
