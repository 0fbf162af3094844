#pragma once
// The frozen statistical timing system both statistical engines model. A
// nominal StaEngine pass fixes every net's slews, loads and RC trees; each
// fanin arc of a reachable (cell, output-edge) pair is then frozen into one
// StatArc: the calibrated cell moments at the nominal operating point
// (Eq. 2-3), the arc's Elmore delay and its Eq. 7 wire variability X_w.
// NetlistMonteCarlo samples these records and AnalyticSsta integrates them,
// both through cell_stage_delay and wire_stage_delay (core/nsigma_wire.hpp),
// so a disagreement between the two is method error, never input skew.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/nsigma_cell.hpp"
#include "core/nsigma_wire.hpp"
#include "netlist/netlist.hpp"
#include "parasitics/spef.hpp"
#include "sta/engine.hpp"
#include "stats/moments.hpp"
#include "stats/quantiles.hpp"

namespace nsdc {

/// Model knobs of the statistical engines (AnalyticSsta,
/// NetlistMonteCarlo): one set, so a run of one can be compared 1:1
/// against the other.
struct StatModelOptions {
  /// Die-to-die share of every delay's variance:
  /// z = sqrt(rho)*z_global + sqrt(1-rho)*z_local.
  double die_to_die_share = 0.5;
  /// Multiplies every sigma (cell and wire). 0 collapses both engines
  /// onto the nominal mean engine exactly.
  double variation_scale = 1.0;
  /// Shape cell delays with the calibrated gamma/kappa through a
  /// Cornish-Fisher transform; false = Gaussian cell delays.
  bool moment_shaping = true;
  /// Engine policy for the nominal pre-pass and the levelized traversal.
  StaConfig sta{};
};

/// One fanin timing arc of a (cell, output-edge) pair.
struct StatArc {
  std::size_t src_slot = 0;  ///< fanin net * 2 + input edge
  int wire_z = -1;           ///< fanin net of the wire draw; -1 = no tree
  double mu = 0.0;
  double sigma = 0.0;  ///< calibrated sigma times the variation scale
  /// Cornish-Fisher coefficients, unclamped; all 0 without moment
  /// shaping, which makes shape() the identity.
  CornishFisher cf;
  double elmore = 0.0;
  double xw = 0.0;  ///< Eq. 7 X_w times the variation scale

  /// The cell half of a record: mu, sigma * scale and, when `shaping`,
  /// g6 = gamma/6, k24 = kappa/24, g36 = gamma^2/36 (no from_moments
  /// clamps).
  static StatArc cell(const Moments& m, double scale, bool shaping);
};

/// Cell delay of `arc` at standard score z: max(0, mu + sigma * shape(z)).
inline double cell_stage_delay(const StatArc& arc, double z) {
  double d = arc.mu + arc.sigma * arc.cf.shape(z);
  if (d < 0.0) d = 0.0;
  return d;
}

/// One (cell, output-edge) propagation step.
struct StatTask {
  std::size_t out_slot = 0;  ///< output net * 2 + output edge
  std::size_t cell = 0;      ///< instance index, for the local cell draw
  std::uint32_t first_arc = 0;
  std::uint32_t num_arcs = 0;
};

/// The frozen system of one netlist. Tasks run in levelized order, rise
/// before fall per cell, so every fanin slot is written before it is
/// read; each task's arcs keep the cell's pin order. A task exists for
/// each edge of every reachable cell and holds one arc per connected pin
/// whose fanin net is reachable, so both tasks of a cell cover the same
/// pins.
struct StatArcs {
  std::vector<StatArc> arcs;
  std::vector<StatTask> tasks;
  /// Per graph level: one past the index of its last task.
  std::vector<std::size_t> level_end;
  /// Per net: 1 when the nominal pass reaches it.
  std::vector<std::uint8_t> reachable;
  /// Reachable primary-output net ids, ascending.
  std::vector<int> po_nets;
};

/// Runs the nominal pre-pass (compile, StaEngine::run keeping the bound
/// arc records, bind_wire_xw) once and freezes its result. The nominal
/// result and its annotated trees are released before this returns.
StatArcs freeze_stat_arcs(const GateNetlist& netlist,
                          const ParasiticDb& parasitics,
                          const NSigmaCellModel& cell_model,
                          const NSigmaWireModel& wire_model,
                          const TechParams& tech,
                          const StatModelOptions& options);

}  // namespace nsdc
