#pragma once
// Reference full STA pass built from the sta_kernel edit kernel: annotate
// every net, seed the primary inputs, run propagate_cell level by level
// over the GateNetlist levelization, then select_critical. These are the
// functions IncrementalSta and the dist STA cone shards run, so a bitwise
// match between this walk and the compiled-graph StaEngine::run is what
// their bit-identity contracts rest on. Scheduling mirrors StaEngine::run
// (same serial/parallel switch, same autotuned per-level fan-out), which
// also makes it the like-for-like baseline for flat-graph timing sweeps.

#include <cstddef>

#include "sta/engine.hpp"

namespace nsdc::testfix {

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
    sta_kernel::annotate_net(netlist, parasitics, tech, n, res);
  });
  for (int pi : netlist.primary_inputs()) {
    auto& nt = res.nets[static_cast<std::size_t>(pi)];
    nt.reachable = true;
    nt.arrival = {0.0, 0.0};
    nt.slew = {10e-12, 10e-12};
  }
  for (const auto& level : lev.levels) {
    exec.parallel_for_autotuned(level.size(), [&](std::size_t i) {
      sta_kernel::propagate_cell(netlist, model, level[i], res);
    });
  }
  sta_kernel::select_critical(netlist.primary_outputs(), netlist.name(), res);
  return res;
}

}  // namespace nsdc::testfix
