#pragma once
// Reference full STA pass over the GateNetlist, independent of the
// compiled graph: annotate every net, seed the primary inputs, propagate
// cell by cell over GateNetlist::levelization() with string-keyed model
// lookups and per-visit Elmore calls, then select_critical. It shares no
// per-cell code with flat_kernel, so a bitwise match between this walk
// and StaEngine::run (which every engine's nominal pass, IncrementalSta
// and the dist cone shards run through flat_kernel) checks the compiled
// graph, the bound records and the kernel against the plain netlist.
// Scheduling mirrors StaEngine::run (same serial/parallel switch, same
// autotuned per-level fan-out), which also makes it the like-for-like
// baseline for flat-graph timing sweeps.

#include <cstddef>
#include <utility>

#include "sta/annotate.hpp"
#include "sta/engine.hpp"

namespace nsdc::testfix {

/// Annotates net `n` into `res`: copies the parasitic tree, adds receiver
/// pin caps at its sinks in net.sinks order, and records the total driver
/// load (pin-cap sum when the net has no parasitics).
inline void reference_annotate_net(const GateNetlist& netlist,
                                   const ParasiticDb& parasitics,
                                   const TechParams& tech, std::size_t n,
                                   StaEngine::Result& res) {
  const Net& net = netlist.net(static_cast<int>(n));
  double load = 0.0;
  if (const RcTree* found = parasitics.find(net.name)) {
    RcTree tree = *found;
    for (const auto& sink : net.sinks) {
      const auto& inst = netlist.cell(sink.cell);
      const double pin_cap = inst.type->input_cap(tech, sink.pin);
      tree.add_cap(tree.sink_node(sink_pin_name(inst, sink.pin)), pin_cap);
    }
    load = tree.total_cap();
    res.annotated[n] = std::move(tree);
  } else {
    res.annotated[n] = RcTree{};
    load = netlist.net_pin_cap(static_cast<int>(n), tech);
  }
  res.net_load[n] = load;
}

/// Recomputes cell `c`'s output-net NetTime from its fanin slots and the
/// annotated loads, with a name-keyed model lookup per arc and an Elmore
/// call per wired arc.
inline void reference_propagate_cell(const GateNetlist& netlist,
                                     const NSigmaCellModel& model, int c,
                                     StaEngine::Result& res) {
  const CellInst& inst = netlist.cell(c);
  const auto out = static_cast<std::size_t>(inst.out_net);
  res.nets[out] = StaEngine::NetTime{};
  auto& out_time = res.nets[out];
  const double load = res.net_load[out];
  const bool inverting = inst.type->inverting();

  for (int edge = 0; edge < 2; ++edge) {  // 0: output rises
    const bool out_rising = edge == 0;
    const bool in_rising = inverting ? !out_rising : out_rising;
    const int in_edge = in_rising ? 0 : 1;
    double best = -1.0;
    int best_pin = -1;
    double best_slew = 10e-12;
    for (std::size_t pin = 0; pin < inst.fanin_nets.size(); ++pin) {
      if (inst.fanin_nets[pin] < 0) continue;  // unconnected pin
      const auto fan = static_cast<std::size_t>(inst.fanin_nets[pin]);
      const auto& fan_time = res.nets[fan];
      if (!fan_time.reachable) continue;
      double wire_delay = 0.0;
      const RcTree& tree = res.annotated[fan];
      if (tree.num_nodes() > 1) {
        wire_delay = tree.elmore(
            tree.sink_node(sink_pin_name(inst, static_cast<int>(pin))));
      }
      const double slew_in = fan_time.slew[static_cast<std::size_t>(in_edge)];
      const double cell_delay = model.mean_delay(
          inst.type->name(), static_cast<int>(pin), in_rising, slew_in, load);
      const double arr =
          fan_time.arrival[static_cast<std::size_t>(in_edge)] + wire_delay +
          cell_delay;
      if (arr > best) {
        best = arr;
        best_pin = static_cast<int>(pin);
        best_slew = slew_in;
      }
    }
    if (best_pin < 0) continue;  // edge unreachable
    out_time.reachable = true;
    out_time.arrival[static_cast<std::size_t>(edge)] = best;
    out_time.from_pin[static_cast<std::size_t>(edge)] = best_pin;
    out_time.slew[static_cast<std::size_t>(edge)] = model.mean_out_slew(
        inst.type->name(), best_pin, in_rising, best_slew, load);
  }
}

inline StaEngine::Result reference_sta_run(const GateNetlist& netlist,
                                           const ParasiticDb& parasitics,
                                           const NSigmaCellModel& model,
                                           const TechParams& tech,
                                           const StaConfig& config = {}) {
  StaEngine::Result res;
  res.nets.resize(netlist.num_nets());
  res.annotated.resize(netlist.num_nets());
  res.net_load.assign(netlist.num_nets(), 0.0);

  const auto& lev = netlist.levelization();
  const ExecContext exec = config.parallel_for_size(netlist.num_cells())
                               ? config.exec
                               : config.exec.with_threads(1);
  exec.parallel_for(netlist.num_nets(), [&](std::size_t n) {
    reference_annotate_net(netlist, parasitics, tech, n, res);
  });
  for (int pi : netlist.primary_inputs()) {
    auto& nt = res.nets[static_cast<std::size_t>(pi)];
    nt.reachable = true;
    nt.arrival = {0.0, 0.0};
    nt.slew = {10e-12, 10e-12};
  }
  for (const auto& level : lev.levels) {
    exec.parallel_for_autotuned(level.size(), [&](std::size_t i) {
      reference_propagate_cell(netlist, model, level[i], res);
    });
  }
  sta_kernel::select_critical(netlist.primary_outputs(), netlist.name(), res);
  return res;
}

}  // namespace nsdc::testfix
