#pragma once
// nsdc_analyze: multi-pass static analysis of a frozen design — netlist +
// parasitics + characterized library — run WITHOUT any sampling. Where
// src/lint checks modeling assumptions rule-by-rule, this framework
// derives certified facts about the timing graph itself:
//
//   analysis.intervals       monotone interval propagation. Every per-arc
//                            delay is enclosed in a [lo, hi] interval (the
//                            hull of the NLDM mean-table range and the
//                            sampled statistical delay range over
//                            |z| <= z_max; see interval.hpp) and pushed
//                            through the levelized graph with interval
//                            addition and the monotone interval max. The
//                            result: per-net per-edge arrival and slew
//                            bounds that every engine's answer must obey.
//   analysis.domain-coverage charlib domain audit. Flags every arc whose
//                            statically-bounded (slew, load) operating box
//                            leaves — or comes within epsilon of — the
//                            characterized table domain (the break-point
//                            hazard), with per-cell-type histograms.
//   analysis.structure       SCC-based structural verification:
//                            combinational cycles (Tarjan), undriven and
//                            dangling cones, and a levelization-cache
//                            cross-check against an independent
//                            longest-path computation.
//   analysis.verify-engines  cross-engine consistency gate (opt-in via
//                            AnalysisOptions::verify_engines): runs
//                            StaEngine, AnalyticSsta, and
//                            NetlistMonteCarlo and asserts nominal and
//                            mean arrivals lie inside the static
//                            intervals, reporting violations as error
//                            diagnostics.
//
// Passes fan out over ExecContext through the check core lint rules use
// (util/checks.hpp, util/diag); reports are byte-identical at any thread
// count (per-slot writes, fixed fold orders, no wall-clock values in the
// rendered output). Fault site "analyze.interval" (index = net id)
// lets NSDC_FAULTS poison a net's computed interval to prove the
// verify-engines gate fires.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/interval.hpp"
#include "core/nsigma_cell.hpp"
#include "core/nsigma_wire.hpp"
#include "liberty/charlib.hpp"
#include "netlist/netlist.hpp"
#include "parasitics/spef.hpp"
#include "pdk/cells.hpp"
#include "sta/engine.hpp"
#include "util/checks.hpp"
#include "util/diag.hpp"
#include "util/exec.hpp"

namespace nsdc {

/// Everything a pass may look at. `netlist` is required; passes needing an
/// absent optional input are skipped with an info diagnostic.
struct AnalysisInput {
  const GateNetlist* netlist = nullptr;
  const ParasiticDb* parasitics = nullptr;
  const CharLib* charlib = nullptr;
  const NSigmaCellModel* cell_model = nullptr;
  const NSigmaWireModel* wire_model = nullptr;
  const TechParams* tech = nullptr;
};

struct AnalysisOptions {
  /// Pool / lane count for the pass fan-out and the internal propagations.
  ExecContext exec{};
  /// Pass ids to skip.
  std::vector<std::string> disabled_passes;
  /// Certificate level: intervals bound every engine value produced from
  /// standard scores with |z| <= z_max per draw (Gauss-Hermite nodes of
  /// the analytic engine lie within +-4.7 at the orders used).
  double z_max = 6.0;
  /// Sigma multiplier, matched to the engines under comparison.
  double variation_scale = 1.0;
  /// Cornish-Fisher-shaped cell draws, matched to the engines.
  bool moment_shaping = true;
  /// Relative width of the near-boundary band (fraction of each table
  /// axis range) that the domain audit reports as a break-point hazard.
  double domain_epsilon = 0.05;
  /// Run the cross-engine consistency gate (expensive: runs all three
  /// engines).
  bool verify_engines = false;
  /// Monte-Carlo depth / seed of the gate's sampling run.
  int verify_samples = 2000;
  std::uint64_t verify_seed = 777;
  /// Die-to-die variance share handed to the statistical engines.
  double die_to_die_share = 0.5;
  /// Absolute slack (seconds) tolerated by the containment checks.
  double verify_tolerance = 1e-15;
};

/// Per-net interval state (index 0 = rising edge at the net).
struct NetBounds {
  std::array<analysis::Interval, 2> arrival{};
  /// Driver output slew bounds; hull over all fanin arcs, so it contains
  /// the nominal engine's winner-dependent slew whichever arc wins.
  std::array<analysis::Interval, 2> slew{
      analysis::Interval::point(10e-12), analysis::Interval::point(10e-12)};
  bool reachable = false;
};

/// Output of the interval propagation pass.
struct IntervalResult {
  std::vector<NetBounds> nets;  ///< indexed by net id
  std::vector<int> po_nets;     ///< reachable primary outputs, ascending
  /// Worst-edge arrival interval per po_nets entry (interval max of the
  /// rise/fall bounds — what the engines' worst-edge PO statistics obey).
  std::vector<analysis::Interval> po_bounds;
  analysis::Interval max_arrival;  ///< interval max over po_bounds
  int worst_po = -1;               ///< PO with the largest upper bound
  std::size_t levels = 0;
  double seconds = 0.0;  ///< propagation wall time (never rendered)
};

/// Structural facts (always computed; independent of models/parasitics).
struct StructureFacts {
  bool pins_ok = false;
  bool acyclic = false;
  /// Nontrivial SCCs of the cell graph, each ascending by cell id, listed
  /// ascending by smallest member.
  std::vector<std::vector<int>> cycles;
  /// Nets with sinks but no driver and no PI marking, ascending.
  std::vector<int> undriven_nets;
  /// Cells that no PI can reach (every path from them starts at an
  /// undriven net), ascending — the undriven cones.
  std::vector<int> undriven_cone_cells;
  /// Cells whose output cone reaches no primary output, ascending.
  std::vector<int> dangling_cells;
  /// Primary-output nets that are structurally unreachable, ascending.
  std::vector<int> unreachable_pos;
  /// Levelization-cache cross-check against an independent longest-path
  /// levelling (only meaningful when acyclic && pins_ok).
  bool levelization_ok = true;
  std::string levelization_note;
  std::size_t levels = 0;
};

/// One audited operating point of the domain-coverage pass.
struct DomainFinding {
  int cell = -1;
  int pin = 0;
  int edge = 0;       ///< 0 = output rise
  int axis = 0;       ///< 0 = slew, 1 = load
  int status = 0;     ///< 1 = within epsilon of a boundary, 2 = outside
  analysis::Interval operating;  ///< static bounds of the operating point
  double domain_lo = 0.0, domain_hi = 0.0;
};

/// Per-cell-type coverage histogram row.
struct CoverageRow {
  std::string cell_type;
  std::size_t arcs = 0;  ///< audited (instance, pin, edge) points
  std::size_t in = 0, near = 0, out = 0;
};

struct CoverageFacts {
  bool ran = false;
  std::vector<DomainFinding> findings;  ///< status != 0 points, stable order
  std::vector<CoverageRow> rows;        ///< ascending by cell_type
};

/// Result of the cross-engine consistency gate.
struct VerifyFacts {
  bool ran = false;
  std::size_t checks = 0;
  std::size_t violations = 0;
  /// Smallest distance from a checked value to its interval bounds, in
  /// seconds (negative = a violation's overshoot).
  double min_slack_lo = 0.0;
  double min_slack_hi = 0.0;
  std::vector<Diagnostic> diagnostics;
};

/// Shared facts computed once per run_analysis; passes read them only.
struct AnalysisPrep {
  StructureFacts structure;
  /// Annotated trees + loads (flat_kernel::flat_annotate_net); present
  /// when parasitics and tech are available.
  std::optional<StaEngine::Result> annotated;
  std::optional<IntervalResult> intervals;
  CoverageFacts coverage;
  /// Cross-engine gate result; computed in run_analysis before the pass
  /// fan-out (the gate parallelizes internally and must not nest inside a
  /// pool task). ran == false when the gate was not requested or could
  /// not run.
  VerifyFacts verify;
  /// Why intervals/coverage were skipped (empty when they ran).
  std::string interval_skip_reason;
};

struct AnalysisPass {
  std::string id;
  std::string description;
  std::function<void(const AnalysisInput&, const AnalysisPrep&,
                     const AnalysisOptions&, std::vector<Diagnostic>&)>
      check;
};

/// Pluggable pass registry. `global()` is preloaded with the built-in
/// passes (passes.cpp).
using AnalysisRegistry = CheckRegistry<AnalysisPass>;

/// Registers the built-in passes (called once by AnalysisRegistry::global).
void register_builtins(AnalysisRegistry& registry);

class AnalysisReport : public DiagnosticReport {
 public:
  struct IntervalSection {
    bool ran = false;
    std::size_t nets = 0, reachable = 0, levels = 0;
    int worst_po = -1;
    std::string worst_po_name;
    analysis::Interval worst_po_bounds;
    std::vector<std::pair<std::string, analysis::Interval>> po_lines;
  };
  struct StructureSection {
    bool ran = false;
    std::size_t sccs = 0, cycle_cells = 0, undriven_nets = 0;
    std::size_t undriven_cone_cells = 0, dangling_cells = 0;
    bool levelization_ok = true;
  };
  struct CoverageSection {
    bool ran = false;
    std::vector<CoverageRow> rows;
  };
  struct VerifySection {
    bool ran = false;
    std::size_t checks = 0, violations = 0;
    double min_slack_lo = 0.0, min_slack_hi = 0.0;
  };

  const IntervalSection& intervals() const { return intervals_; }
  const StructureSection& structure() const { return structure_; }
  const CoverageSection& coverage() const { return coverage_; }
  const VerifySection& verify() const { return verify_; }

  /// Human-readable report. Deterministic: no wall-clock values, fixed
  /// float formatting — byte-identical at any thread count.
  std::string to_text() const;
  /// Machine-readable report with a schema_version field; diagnostics
  /// stable-sorted by (rule, object, line). Deterministic like to_text.
  std::string to_json() const;

 private:
  friend AnalysisReport run_analysis(const AnalysisInput&,
                                     const AnalysisOptions&,
                                     const AnalysisRegistry&);
  IntervalSection intervals_;
  StructureSection structure_;
  CoverageSection coverage_;
  VerifySection verify_;
};

/// Computes the shared facts and evaluates every enabled pass. Parallel
/// passes fan out over `options.exec`; a pass that throws is converted
/// into an "analysis.internal" error diagnostic.
AnalysisReport run_analysis(const AnalysisInput& input,
                            const AnalysisOptions& options = {},
                            const AnalysisRegistry& registry =
                                AnalysisRegistry::global());

/// The interval propagation alone (the tentpole primitive; also reused by
/// bench_micro_perf). Requires netlist + parasitics + tech + cell_model +
/// wire_model and a clean structure — throws std::invalid_argument
/// otherwise. `graph` must be compiled from input.netlist and `annotated`
/// annotated on it (flat_annotate_net, or a full StaEngine run).
IntervalResult propagate_intervals(const AnalysisInput& input,
                                   const AnalysisOptions& options,
                                   const FlatTimingGraph& graph,
                                   const StaEngine::Result& annotated);

/// Structural facts (Tarjan SCCs, cones, levelization cross-check).
StructureFacts compute_structure(const GateNetlist& netlist);

/// Domain-coverage audit over the propagated slew bounds.
CoverageFacts compute_coverage(const AnalysisInput& input,
                               const AnalysisOptions& options,
                               const StaEngine::Result& annotated,
                               const IntervalResult& intervals);

/// Cross-engine consistency gate: runs the three engines and checks every
/// produced arrival against `intervals`.
VerifyFacts verify_engines(const AnalysisInput& input,
                           const AnalysisOptions& options,
                           const IntervalResult& intervals);

}  // namespace nsdc
