#include "sta/flatsta.hpp"

#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/nsigma_wire.hpp"
#include "sta/annotate.hpp"
#include "util/cancel.hpp"
#include "util/faultinject.hpp"

namespace nsdc {

std::size_t FlatArcRecords::memory_bytes() const {
  return arc_model[0].capacity() * sizeof(const CellArcModel*) +
         arc_model[1].capacity() * sizeof(const CellArcModel*) +
         elmore.capacity() * sizeof(double) +
         has_tree.capacity() * sizeof(std::uint8_t) +
         xw.capacity() * sizeof(double);
}

namespace {

/// The wire record of `arc` from its fanin net's annotated tree.
void bind_wire_record(const RcTree& tree, std::string_view sink,
                      FlatTimingGraph::Id arc, FlatArcRecords& rec) {
  const bool wired = tree.num_nodes() > 1;
  rec.has_tree[arc] = wired ? 1 : 0;
  rec.elmore[arc] = wired ? tree.elmore(tree.sink_node(sink)) : 0.0;
}

/// The annotation arithmetic shared by flat_annotate_net and
/// flat_reannotate_net. `for_each_sink(add)` calls add(pin_cap, sink_name)
/// once per sink of net `n`, in net.sinks order.
template <class ForEachSink>
void annotate_net_with(const GateNetlist& netlist,
                       const ParasiticDb& parasitics, const TechParams& tech,
                       std::size_t n, StaEngine::Result& res,
                       ForEachSink&& for_each_sink) {
  const RcTree* found = parasitics.find(netlist.net(static_cast<int>(n)).name);
  RcTree tree = found ? *found : RcTree{};
  if (found) {
    for_each_sink([&](double pin_cap, std::string_view sink) {
      tree.add_cap(tree.sink_node(sink), pin_cap);
    });
  }
  res.net_load[n] = found ? tree.total_cap()
                          : netlist.net_pin_cap(static_cast<int>(n), tech);
  res.annotated[n] = std::move(tree);
}

}  // namespace

namespace flat_kernel {

std::array<const CellArcModel*, 2> resolve_arc_models(
    const NSigmaCellModel& model, const CellType& type) {
  // A type absent from the model resolves to nullptrs; its arcs fall back
  // to the throwing string path only if propagation evaluates them.
  std::array<const CellArcModel*, 2> h{nullptr, nullptr};
  for (int e = 0; e < 2; ++e) {
    try {
      h[static_cast<std::size_t>(e)] = &model.arc(type.name(), 0, e == 0);
    } catch (const std::out_of_range&) {  // stays nullptr
    }
  }
  return h;
}

void bind_arc_records(const FlatTimingGraph& graph,
                      const NSigmaCellModel& model,
                      const StaEngine::Result& res, const ExecContext& exec,
                      FlatArcRecords& rec) {
  using Id = FlatTimingGraph::Id;
  const Id num_arcs = graph.num_arcs();
  rec.arc_model[0].assign(num_arcs, nullptr);
  rec.arc_model[1].assign(num_arcs, nullptr);
  rec.elmore.assign(num_arcs, 0.0);
  rec.has_tree.assign(num_arcs, 0);

  // One resolution per distinct CellType.
  std::unordered_map<const CellType*, std::array<const CellArcModel*, 2>>
      by_type;
  for (Id pos = 0; pos < graph.num_cells(); ++pos) {
    const CellType* type = graph.cell_type(pos);
    if (!by_type.count(type)) {
      by_type.emplace(type, resolve_arc_models(model, *type));
    }
  }

  // Arc slots per position are disjoint, so positions fan out freely.
  exec.parallel_for(graph.num_cells(), [&](std::size_t p) {
    const Id pos = static_cast<Id>(p);
    const auto& h = by_type.at(graph.cell_type(pos));
    for (Id arc = graph.fanin_begin(pos); arc < graph.fanin_end(pos); ++arc) {
      rec.arc_model[0][arc] = h[0];
      rec.arc_model[1][arc] = h[1];
    }
  });

  // Wire records per net, so each annotated tree is read once for all of
  // its sinks. Every connected arc is exactly one fanout entry of its fanin
  // net (the fanin_sink bijection), so each slot is written once; the arcs
  // of unconnected pins keep the 0 / 0.0 assigned above.
  exec.parallel_for(graph.num_nets(), [&](std::size_t n) {
    const Id net = static_cast<Id>(n);
    for (Id f = graph.fanout_begin(net); f < graph.fanout_end(net); ++f) {
      bind_wire_record(res.annotated[n], graph.sink_name(f),
                       graph.fanin_begin(graph.fanout_pos(f)) +
                           graph.fanout_pin(f),
                       rec);
    }
  });
}

void bind_wire_xw(const FlatTimingGraph& graph, const NSigmaWireModel& wire,
                  FlatArcRecords& rec) {
  using Id = FlatTimingGraph::Id;
  const Id num_arcs = graph.num_arcs();
  rec.xw.assign(num_arcs, 0.0);
  // X_w depends only on the (driver type, sink type) pair; cache the
  // string-keyed model call per pair. PI-driven nets use the "INVx4"
  // driver stand-in.
  std::unordered_map<const CellType*, std::unordered_map<const CellType*, double>>
      cache;
  static const std::string kPiDriver = "INVx4";
  for (Id pos = 0; pos < graph.num_cells(); ++pos) {
    const CellType* snk = graph.cell_type(pos);
    for (Id arc = graph.fanin_begin(pos); arc < graph.fanin_end(pos); ++arc) {
      if (!rec.has_tree[arc]) continue;
      const Id fan = graph.fanin_net(arc);
      const Id drv_pos = graph.net_driver_pos(fan);
      const CellType* drv =
          drv_pos == FlatTimingGraph::kNoId ? nullptr : graph.cell_type(drv_pos);
      auto& per_drv = cache[snk];
      auto it = per_drv.find(drv);
      if (it == per_drv.end()) {
        const double v =
            wire.xw(drv ? drv->name() : kPiDriver, snk->name());
        it = per_drv.emplace(drv, v).first;
      }
      rec.xw[arc] = it->second;
    }
  }
}

void flat_annotate_net(const FlatTimingGraph& graph,
                       const GateNetlist& netlist,
                       const ParasiticDb& parasitics, const TechParams& tech,
                       std::size_t n, StaEngine::Result& res) {
  using Id = FlatTimingGraph::Id;
  const Id net = static_cast<Id>(n);
  annotate_net_with(netlist, parasitics, tech, n, res, [&](const auto& add) {
    for (Id f = graph.fanout_begin(net); f < graph.fanout_end(net); ++f) {
      add(graph.cell_type(graph.fanout_pos(f))
              ->input_cap(tech, static_cast<int>(graph.fanout_pin(f))),
          graph.sink_name(f));
    }
  });
}

void flat_reannotate_net(const FlatTimingGraph& graph,
                         const GateNetlist& netlist,
                         const ParasiticDb& parasitics,
                         const TechParams& tech, std::size_t n,
                         StaEngine::Result& res, FlatArcRecords& rec) {
  using Id = FlatTimingGraph::Id;
  const Net& net = netlist.net(static_cast<int>(n));
  annotate_net_with(netlist, parasitics, tech, n, res, [&](const auto& add) {
    for (const NetSink& s : net.sinks) {
      const CellInst& inst = netlist.cell(s.cell);
      add(inst.type->input_cap(tech, s.pin), sink_pin_name(inst, s.pin));
    }
  });
  // Every pin cap is in the tree now, so its Elmore delays are final.
  for (const NetSink& s : net.sinks) {
    const Id pos = graph.position_of_cell(static_cast<Id>(s.cell));
    bind_wire_record(res.annotated[n],
                     sink_pin_name(netlist.cell(s.cell), s.pin),
                     graph.fanin_begin(pos) + static_cast<Id>(s.pin), rec);
  }
}

void flat_propagate_cell(const FlatTimingGraph& graph,
                         const FlatArcRecords& rec,
                         const NSigmaCellModel& model,
                         FlatTimingGraph::Id pos, StaEngine::Result& res) {
  using Id = FlatTimingGraph::Id;
  const auto out = static_cast<std::size_t>(graph.cell_out_net(pos));
  // Reset so stale state from a prior propagation of this slot can never
  // leak through (an unreachable edge keeps the default fields).
  res.nets[out] = StaEngine::NetTime{};
  auto& out_time = res.nets[out];
  const double load = res.net_load[out];
  const bool inverting = graph.inverting(pos);
  const Id a0 = graph.fanin_begin(pos);
  const Id a1 = graph.fanin_end(pos);

  for (int edge = 0; edge < 2; ++edge) {       // 0: output rises
    const bool out_rising = edge == 0;
    const bool in_rising = inverting ? !out_rising : out_rising;
    const int in_edge = in_rising ? 0 : 1;
    const auto& models = rec.arc_model[static_cast<std::size_t>(in_edge)];
    double best = -1.0;
    int best_pin = -1;
    double best_slew = 10e-12;
    for (Id arc = a0; arc < a1; ++arc) {
      const Id fan_id = graph.fanin_net(arc);
      if (fan_id == FlatTimingGraph::kNoId) continue;  // unconnected pin
      const auto fan = static_cast<std::size_t>(fan_id);
      const auto& fan_time = res.nets[fan];
      if (!fan_time.reachable) continue;
      // Wire delay from the fanin driver to this pin (bound from the
      // annotated tree by bind_arc_records / flat_reannotate_net).
      const double wire_delay = rec.has_tree[arc] ? rec.elmore[arc] : 0.0;
      const double slew_in = fan_time.slew[static_cast<std::size_t>(in_edge)];
      const CellArcModel* am = models[arc];
      const double cell_delay =
          am ? am->mean_delay.lookup(slew_in, load)
             : model.mean_delay(graph.cell_type(pos)->name(),
                                static_cast<int>(arc - a0), in_rising,
                                slew_in, load);
      const double arr =
          fan_time.arrival[static_cast<std::size_t>(in_edge)] + wire_delay +
          cell_delay;
      if (arr > best) {
        best = arr;
        best_pin = static_cast<int>(arc - a0);
        best_slew = slew_in;
      }
    }
    if (best_pin < 0) continue;  // edge unreachable
    out_time.reachable = true;
    out_time.arrival[static_cast<std::size_t>(edge)] = best;
    out_time.from_pin[static_cast<std::size_t>(edge)] = best_pin;
    const CellArcModel* am = models[a0 + static_cast<Id>(best_pin)];
    out_time.slew[static_cast<std::size_t>(edge)] =
        am ? am->mean_out_slew.lookup(best_slew, load)
           : model.mean_out_slew(graph.cell_type(pos)->name(), best_pin,
                                 in_rising, best_slew, load);
  }
}

void flat_select_critical(const FlatTimingGraph& graph,
                          StaEngine::Result& res) {
  sta_kernel::select_critical(graph.primary_outputs(), graph.design_name(),
                              res);
}

}  // namespace flat_kernel

StaEngine::Result StaEngine::run(const FlatTimingGraph& graph,
                                 const GateNetlist& netlist,
                                 const ParasiticDb& parasitics,
                                 FlatArcRecords* keep_records) const {
  if (graph.source_generation() != netlist.generation()) {
    throw std::invalid_argument(
        "StaEngine: stale FlatTimingGraph (netlist edited since compile) "
        "for " +
        netlist.name());
  }
  Result res;
  res.nets.resize(netlist.num_nets());
  res.annotated.resize(netlist.num_nets());
  res.net_load.assign(netlist.num_nets(), 0.0);

  const bool parallel = config_.parallel_for_size(netlist.num_cells());
  const ExecContext exec =
      parallel ? config_.exec : config_.exec.with_threads(1);

  exec.parallel_for(netlist.num_nets(), [&](std::size_t n) {
    flat_kernel::flat_annotate_net(graph, netlist, parasitics, tech_, n, res);
  });

  // Primary inputs: both edges arrive at t=0 with the reference slew.
  for (FlatTimingGraph::Id pi : graph.primary_inputs()) {
    auto& nt = res.nets[pi];
    nt.reachable = true;
    nt.arrival = {0.0, 0.0};
    nt.slew = {10e-12, 10e-12};
  }

  FlatArcRecords local;
  FlatArcRecords& rec = keep_records ? *keep_records : local;
  flat_kernel::bind_arc_records(graph, model_, res, exec, rec);

  for (FlatTimingGraph::Id l = 0; l < graph.num_levels(); ++l) {
    fault_fire("sta.level", l, exec.cancel);
    const FlatTimingGraph::Id begin = graph.level_begin(l);
    const FlatTimingGraph::Id end = graph.level_end(l);
    // A level narrower than two minimum blocks runs inline on this thread;
    // a wider one splits into at most one block per lane
    // (ExecContext::parallel_for_autotuned). Either way the token is
    // polled once per block.
    exec.parallel_for_autotuned(end - begin, [&](std::size_t i) {
      flat_kernel::flat_propagate_cell(
          graph, rec, model_, begin + static_cast<FlatTimingGraph::Id>(i),
          res);
    });
  }

  flat_kernel::flat_select_critical(graph, res);
  return res;
}

}  // namespace nsdc
