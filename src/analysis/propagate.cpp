// Monotone interval propagation (pass "analysis.intervals"). Follows the
// propagation structure of flat_kernel::flat_propagate_cell and the arc
// set of freeze_stat_arcs (the StatArc records both statistical engines
// read) — same compiled graph and bound per-arc records, same
// edge/in_rising semantics, same reachability rules, same frozen loads,
// same Eq. 7 wire term with the "INVx4" PI-driver fallback — but carries
// [lo, hi] intervals instead of scalars. It keeps its own per-arc walk
// because it carries slew intervals, which moments frozen at one nominal
// slew cannot represent.
// Soundness of each per-arc enclosure lives in interval.hpp; soundness of
// the fold is monotonicity: both interval addition and the interval max
// preserve lower AND upper bounds, so the per-net result bounds every
// engine arrival produced from draws with |z| <= z_max.
//
// Determinism: levelized with a barrier between levels; each cell writes
// only its own output-net slot and reads only lower-level slots, so the
// propagated intervals are byte-identical at any thread count.

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "analysis/analysis.hpp"
#include "netlist/flatgraph.hpp"
#include "sta/flatsta.hpp"
#include "util/faultinject.hpp"

namespace nsdc {

using analysis::Interval;

namespace {

/// Per-arc delay interval: hull of the NLDM mean-table range (what the
/// nominal engine reads) and the statistical delay range (what the MC
/// sampler draws and the analytic engine integrates).
Interval arc_delay_range(const CellArcModel& arc, const Interval& slew_iv,
                         double load, double scale,
                         const AnalysisOptions& options) {
  Interval cell_iv = analysis::grid_range_x(arc.mean_delay, slew_iv, load);
  analysis::MomentIntervals mi =
      analysis::surface_moment_range(arc.calib, slew_iv, load);
  mi.sigma = {mi.sigma.lo * scale, mi.sigma.hi * scale};
  return analysis::iv_hull(
      cell_iv,
      analysis::cell_stat_range(mi, options.z_max, options.moment_shaping));
}

/// Interval propagation of the cell at `pos`: per-arc charlib handles,
/// Elmore and raw X_w come from the bound records.
void propagate_one_cell(const FlatTimingGraph& graph,
                        const FlatArcRecords& rec, const AnalysisInput& input,
                        const AnalysisOptions& options,
                        const StaEngine::Result& annotated,
                        FlatTimingGraph::Id pos, double scale,
                        IntervalResult& out) {
  using Id = FlatTimingGraph::Id;
  const auto outn = static_cast<std::size_t>(graph.cell_out_net(pos));
  NetBounds nb;  // reset slot, like flat_propagate_cell

  const double load = annotated.net_load[outn];
  const bool inverting = graph.inverting(pos);
  const Id a0 = graph.fanin_begin(pos);
  const Id a1 = graph.fanin_end(pos);
  for (int edge = 0; edge < 2; ++edge) {  // 0: output rises
    const bool out_rising = edge == 0;
    const bool in_rising = inverting ? !out_rising : out_rising;
    const int in_edge = in_rising ? 0 : 1;
    const auto& models = rec.arc_model[static_cast<std::size_t>(in_edge)];
    bool any = false;
    Interval best_arr, slew_hull;
    for (Id arc_i = a0; arc_i < a1; ++arc_i) {
      const Id fan_id = graph.fanin_net(arc_i);
      if (fan_id == FlatTimingGraph::kNoId) continue;  // unconnected pin
      const auto fan = static_cast<std::size_t>(fan_id);
      const NetBounds& fb = out.nets[fan];
      if (!fb.reachable) continue;

      Interval wire = Interval::point(0.0);
      if (rec.has_tree[arc_i]) {
        const double xw = rec.xw[arc_i] * scale;
        wire = analysis::wire_range(rec.elmore[arc_i], xw, options.z_max);
      }

      const CellArcModel* am = models[arc_i];
      const CellArcModel& arc =
          am ? *am
             : input.cell_model->arc(graph.cell_type(pos)->name(),
                                     static_cast<int>(arc_i - a0), in_rising);
      const Interval slew_iv = fb.slew[static_cast<std::size_t>(in_edge)];
      const Interval cand = analysis::iv_add(
          fb.arrival[static_cast<std::size_t>(in_edge)],
          analysis::iv_add(wire,
                           arc_delay_range(arc, slew_iv, load, scale,
                                           options)));
      // The winning arc depends on the engine (nominal picks the worst
      // mean; a sample picks the worst draw), so the arrival fold is the
      // interval max over arcs and the slew bound is the hull over arcs —
      // whichever arc wins, its output slew lies inside the hull.
      const Interval os =
          analysis::grid_range_x(arc.mean_out_slew, slew_iv, load);
      best_arr = any ? analysis::iv_max(best_arr, cand) : cand;
      slew_hull = any ? analysis::iv_hull(slew_hull, os) : os;
      any = true;
    }
    if (!any) continue;  // edge unreachable: slot keeps the defaults
    nb.reachable = true;
    nb.arrival[static_cast<std::size_t>(edge)] = best_arr;
    nb.slew[static_cast<std::size_t>(edge)] = slew_hull;
  }

  // Fault site: NSDC_FAULTS="analyze.interval@<net>=nan" collapses this
  // net's certified bounds to the degenerate [0, 0] — downstream engines
  // keep their true arrivals, so the verify-engines gate provably fires.
  if (fault_fire("analyze.interval", outn, options.exec.cancel) ==
      FaultAction::kNan) {
    nb.arrival = {Interval{0.0, 0.0}, Interval{0.0, 0.0}};
  }
  out.nets[outn] = nb;
}

}  // namespace

IntervalResult propagate_intervals(const AnalysisInput& input,
                                   const AnalysisOptions& options,
                                   const FlatTimingGraph& graph,
                                   const StaEngine::Result& annotated) {
  if (input.netlist == nullptr || input.cell_model == nullptr ||
      input.wire_model == nullptr) {
    throw std::invalid_argument(
        "propagate_intervals: netlist, cell_model, and wire_model are "
        "required");
  }
  const GateNetlist& nl = *input.netlist;
  const auto t0 = std::chrono::steady_clock::now();

  IntervalResult out;
  out.nets.assign(nl.num_nets(), NetBounds{});
  using Id = FlatTimingGraph::Id;
  if (graph.source_generation() != nl.generation()) {
    throw std::invalid_argument(
        "propagate_intervals: stale FlatTimingGraph for " + nl.name());
  }
  out.levels = graph.num_levels();

  for (int pi : nl.primary_inputs()) {
    auto& nb = out.nets[static_cast<std::size_t>(pi)];
    nb.reachable = true;
    nb.arrival = {Interval{0.0, 0.0}, Interval{0.0, 0.0}};
    nb.slew = {Interval::point(10e-12), Interval::point(10e-12)};
  }

  const double scale = std::max(options.variation_scale, 0.0);
  FlatArcRecords rec;
  flat_kernel::bind_arc_records(graph, *input.cell_model, annotated,
                                options.exec, rec);
  flat_kernel::bind_wire_xw(graph, *input.wire_model, rec);
  for (Id l = 0; l < graph.num_levels(); ++l) {
    options.exec.check_cancel();
    const Id begin = graph.level_begin(l);
    options.exec.parallel_for_autotuned(
        graph.level_end(l) - begin, [&](std::size_t i) {
          propagate_one_cell(graph, rec, input, options, annotated,
                             begin + static_cast<Id>(i), scale, out);
        });
  }

  // Reachable primary outputs, ascending net id; worst-edge bounds.
  std::vector<int> po_nets = nl.primary_outputs();
  std::erase_if(po_nets, [&](int po) {
    return !out.nets[static_cast<std::size_t>(po)].reachable;
  });
  std::sort(po_nets.begin(), po_nets.end());
  out.po_nets = std::move(po_nets);
  out.po_bounds.reserve(out.po_nets.size());
  double worst_hi = -1.0;
  for (int po : out.po_nets) {
    const NetBounds& nb = out.nets[static_cast<std::size_t>(po)];
    const Interval b = analysis::iv_max(nb.arrival[0], nb.arrival[1]);
    if (out.po_bounds.empty()) {
      out.max_arrival = b;
    } else {
      out.max_arrival = analysis::iv_max(out.max_arrival, b);
    }
    if (b.hi > worst_hi) {
      worst_hi = b.hi;
      out.worst_po = po;
    }
    out.po_bounds.push_back(b);
  }

  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace nsdc
