#include "sta/statarcs.hpp"

#include <algorithm>

#include "netlist/flatgraph.hpp"
#include "sta/flatsta.hpp"

namespace nsdc {

StatArc StatArc::cell(const Moments& m, double scale, bool shaping) {
  StatArc a;
  a.mu = m.mu;
  a.sigma = m.sigma * scale;
  if (shaping) {
    a.cf.g6 = m.gamma / 6.0;
    a.cf.k24 = m.kappa / 24.0;
    a.cf.g36 = m.gamma * m.gamma / 36.0;
  }
  return a;
}

StatArcs freeze_stat_arcs(const GateNetlist& netlist,
                          const ParasiticDb& parasitics,
                          const NSigmaCellModel& cell_model,
                          const NSigmaWireModel& wire_model,
                          const TechParams& tech,
                          const StatModelOptions& options) {
  // The engine's bound per-arc records (charlib handles + Elmore) plus X_w
  // let the loop below read arrays instead of string-keyed model maps.
  const StaEngine engine(cell_model, tech, options.sta);
  const FlatTimingGraph g = FlatTimingGraph::compile(netlist, options.sta.exec);
  FlatArcRecords rec;
  const StaEngine::Result nom = engine.run(g, netlist, parasitics, &rec);
  flat_kernel::bind_wire_xw(g, wire_model, rec);

  StatArcs out;
  const std::size_t n_nets = netlist.num_nets();
  out.reachable.resize(n_nets);
  for (std::size_t n = 0; n < n_nets; ++n) {
    out.reachable[n] = nom.nets[n].reachable ? 1 : 0;
  }
  const double scale = std::max(options.variation_scale, 0.0);
  out.arcs.reserve(4 * netlist.num_cells());
  out.tasks.reserve(2 * netlist.num_cells());
  out.level_end.reserve(g.num_levels());
  using Id = FlatTimingGraph::Id;
  for (Id l = 0; l < g.num_levels(); ++l) {
    for (Id pos = g.level_begin(l); pos < g.level_end(l); ++pos) {
      const auto outn = static_cast<std::size_t>(g.cell_out_net(pos));
      if (!nom.nets[outn].reachable) continue;
      const double load = nom.net_load[outn];
      const bool inverting = g.inverting(pos);
      const Id a0 = g.fanin_begin(pos);
      const Id a1 = g.fanin_end(pos);
      for (int edge = 0; edge < 2; ++edge) {
        const bool out_rising = edge == 0;
        const bool in_rising = inverting ? !out_rising : out_rising;
        const int in_edge = in_rising ? 0 : 1;
        const auto& models = rec.arc_model[static_cast<std::size_t>(in_edge)];
        StatTask task;
        task.out_slot = outn * 2 + static_cast<std::size_t>(edge);
        task.cell = static_cast<std::size_t>(g.cell_id(pos));
        task.first_arc = static_cast<std::uint32_t>(out.arcs.size());
        for (Id arc = a0; arc < a1; ++arc) {
          const Id fan_id = g.fanin_net(arc);
          if (fan_id == FlatTimingGraph::kNoId) continue;  // unconnected pin
          const auto fan = static_cast<std::size_t>(fan_id);
          if (!nom.nets[fan].reachable) continue;
          const double slew_in =
              nom.nets[fan].slew[static_cast<std::size_t>(in_edge)];
          const CellArcModel* am = models[arc];
          const Moments m =
              am ? am->calib.moments_at(slew_in, load)
                 : cell_model.moments(g.cell_type(pos)->name(),
                                      static_cast<int>(arc - a0), in_rising,
                                      slew_in, load);
          StatArc a = StatArc::cell(m, scale, options.moment_shaping);
          a.src_slot = fan * 2 + static_cast<std::size_t>(in_edge);
          if (rec.has_tree[arc]) {
            a.wire_z = static_cast<int>(fan);
            a.elmore = rec.elmore[arc];
            a.xw = rec.xw[arc] * scale;
          }
          out.arcs.push_back(a);
          ++task.num_arcs;
        }
        if (task.num_arcs > 0) out.tasks.push_back(task);
      }
    }
    out.level_end.push_back(out.tasks.size());
  }

  out.po_nets = netlist.primary_outputs();
  std::erase_if(out.po_nets, [&](int po) {
    return !nom.nets[static_cast<std::size_t>(po)].reachable;
  });
  std::sort(out.po_nets.begin(), out.po_nets.end());
  return out;
}

}  // namespace nsdc
