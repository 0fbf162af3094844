#pragma once
// nsdc_lint: rule-based static analysis of a loaded design, run BEFORE any
// STA or Monte-Carlo. The N-sigma flow silently produces garbage when its
// modeling assumptions are violated — slew/load outside the characterized
// calibration domain (Eq. 2-3 extrapolate), malformed RC trees (Elmore in
// Eq. 4 assumes a valid tree), combinational loops (levelized propagation
// assumes a DAG) — so this engine checks those assumptions statically and
// reports structured Diagnostics instead of letting the flow crash or,
// worse, answer confidently out of domain.
//
// Three rule layers:
//   structural  — netlist graph well-formedness (loops, multi-driver,
//                 floating/undriven nets, dangling outputs, pins)
//   parasitic   — RC-tree sanity and SPEF <-> netlist cross-checks
//   domain      — operating conditions vs. the charlib characterization
//                 grid, sigma-table monotonicity, Eq. 3 calibration fit,
//                 fanout vs. the Pelgrom/FO4 normalization basis
//
// Rules are registered in a pluggable registry and evaluated fanned out
// over the thread pool (ExecContext) by the check core shared with
// src/analysis (util/checks.hpp); every rule is deterministic and writes
// its own result slot, so reports are bit-identical at any thread count.
// Expensive shared facts (driver counts, cycle detection, a mean STA pass
// for propagated slews/loads) are computed once in LintPrep and shared
// read-only.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/nsigma_cell.hpp"
#include "liberty/charlib.hpp"
#include "netlist/netlist.hpp"
#include "parasitics/spef.hpp"
#include "pdk/cells.hpp"
#include "sta/engine.hpp"
#include "util/checks.hpp"
#include "util/diag.hpp"
#include "util/exec.hpp"

namespace nsdc {

/// Everything a rule may look at. `netlist` is required; the other inputs
/// are optional — rules needing an absent input are skipped (they emit
/// nothing), so the same registry serves netlist-only and full-flow runs.
struct LintInput {
  const GateNetlist* netlist = nullptr;
  const ParasiticDb* parasitics = nullptr;     ///< parasitic-layer rules
  const CharLib* charlib = nullptr;            ///< model-domain rules
  const NSigmaCellModel* cell_model = nullptr; ///< slew propagation (STA)
  const TechParams* tech = nullptr;            ///< pin-cap / load computation
};

struct LintOptions {
  /// Pool / lane count for the rule fan-out (and the internal STA pass).
  ExecContext exec{};
  /// Rule ids to skip.
  std::vector<std::string> disabled_rules;
  /// Fanout above which the Pelgrom/FO4-normalized wire model is outside
  /// its characterized basis (load grid tops out at wire + 8 sinks).
  int fanout_basis = 8;
  /// Relative tolerance for the Eq. 3 cubic calibration-surface residual
  /// (fraction of the measured gamma/kappa range across the grid). MC
  /// characterization noise alone reaches ~0.7 on real libraries, so only
  /// a miss larger than the whole measured range is flagged by default.
  double calib_rel_tol = 1.0;
  /// Relative margin applied to the characterization-grid bounds before a
  /// slew/load is reported out of domain.
  double domain_margin = 0.02;
};

/// Shared facts computed once per run_lint (read-only during rule fan-out).
struct LintPrep {
  /// Every cell fanin/output net index is in range (no unconnected pins).
  bool pins_ok = false;
  /// Kahn's algorithm consumed every cell (only meaningful when pins_ok).
  bool acyclic = false;
  /// Cells left unprocessed by Kahn — i.e. cells on or downstream-locked
  /// by a combinational cycle. Ascending cell index.
  std::vector<int> cycle_cells;
  /// Per net: number of actual drivers (cells whose out_net is the net,
  /// plus 1 if the net is a primary input).
  std::vector<int> driver_count;
  /// Mean STA result when the structure is clean and model/tech/parasitics
  /// are available; nullptr otherwise. Supplies propagated slews and
  /// annotated loads to the domain rules.
  const StaEngine::Result* sta = nullptr;
};

struct LintRule {
  std::string id;           ///< stable identifier, e.g. "net.comb-loop"
  std::string layer;        ///< "structural" | "parasitic" | "domain"
  std::string description;  ///< one-liner for --list-rules
  std::function<void(const LintInput&, const LintPrep&, const LintOptions&,
                     std::vector<Diagnostic>&)>
      check;
};

/// Pluggable rule registry. `global()` comes preloaded with the built-in
/// rule set (rules.cpp); embedders can add their own rules to a copy.
using LintRegistry = CheckRegistry<LintRule>;

/// Registers the built-in rules (called once by LintRegistry::global).
void register_builtins(LintRegistry& registry);

class LintReport : public DiagnosticReport {
 public:
  /// Human-readable report: one line per diagnostic plus a summary line.
  std::string to_text() const;
  /// Machine-readable report; deterministic (sorted diagnostics, stable
  /// key order, no floats) so output is byte-identical across thread
  /// counts.
  std::string to_json() const;

 private:
  friend LintReport run_lint(const LintInput&, const LintOptions&,
                             const LintRegistry&);
};

/// Evaluates every enabled rule against the input. Rules fan out over
/// `options.exec`; a rule that throws is converted into a "lint.internal"
/// error diagnostic rather than aborting the run.
LintReport run_lint(const LintInput& input, const LintOptions& options = {},
                    const LintRegistry& registry = LintRegistry::global());

}  // namespace nsdc
