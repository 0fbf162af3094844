#include "sta/engine.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "netlist/flatgraph.hpp"
#include "sta/annotate.hpp"

namespace nsdc {

namespace {

/// The lanes StaEngine runs a design of `netlist`'s size on: the
/// configured ones, or one (in order on the caller) below
/// min_parallel_cells.
ExecContext lanes_for(const StaConfig& config, const GateNetlist& netlist) {
  return config.parallel_for_size(netlist.num_cells())
             ? config.exec
             : config.exec.with_threads(1);
}

/// A path's endpoint: a PO net, the edge it reports and that edge's
/// arrival.
struct Endpoint {
  int net;
  int edge;
  double arrival;
};

/// One step of a backtracked path: a net and the edge switching on it.
struct Hop {
  int net;
  int edge;
};

/// Minimum stages per block of the report's stage fill: a stage costs
/// ~0.5 us (a tree copy and a few netlist reads), so 256 of them pay for
/// a pool round trip many times over.
constexpr std::size_t kStageGrain = 256;

/// Backtracks the worst arrival at `ep` to a primary input. The hops come
/// back in PI-to-PO order: hops[0] is the PI net and every later hop a cell
/// output net, so the path has hops.size() - 1 stages.
std::vector<Hop> backtrack(const GateNetlist& netlist,
                           const StaEngine::Result& result, Endpoint ep) {
  std::vector<Hop> hops;
  int net = ep.net;
  int edge = ep.edge;
  while (net >= 0) {
    hops.push_back({net, edge});
    const Net& n = netlist.net(net);
    if (n.driver_cell < 0) break;  // primary input
    const CellInst& inst = netlist.cell(n.driver_cell);
    const int pin =
        result.nets[static_cast<std::size_t>(net)].from_pin[static_cast<std::size_t>(edge)];
    if (pin < 0) {
      throw std::runtime_error("StaEngine: broken backtrack in " +
                               netlist.name());
    }
    const bool out_rising = edge == 0;
    const bool in_rising =
        inst.type->inverting() ? !out_rising : out_rising;
    net = inst.fanin_nets[static_cast<std::size_t>(pin)];
    edge = in_rising ? 0 : 1;
  }
  if (hops.size() < 2) {
    throw std::runtime_error("StaEngine: empty critical path in " +
                             netlist.name());
  }
  std::reverse(hops.begin(), hops.end());
  return hops;
}

/// The stage of the cell driving hops[h] (h >= 1), which is the path's
/// stage h - 1. Reads only `result` and the netlist.
PathStage path_stage(const GateNetlist& netlist,
                     const StaEngine::Result& result,
                     const std::vector<Hop>& hops, std::size_t h) {
  const Net& out_net = netlist.net(hops[h].net);
  const CellInst& inst = netlist.cell(out_net.driver_cell);
  const int prev_net = hops[h - 1].net;
  const int prev_edge = hops[h - 1].edge;
  const int pin = result.nets[static_cast<std::size_t>(hops[h].net)]
                      .from_pin[static_cast<std::size_t>(hops[h].edge)];

  PathStage stage;
  stage.cell = inst.type;
  stage.pin = pin;
  stage.in_rising = prev_edge == 0;
  stage.input_slew =
      result.nets[static_cast<std::size_t>(prev_net)]
          .slew[static_cast<std::size_t>(prev_edge)];
  stage.output_load = result.net_load[static_cast<std::size_t>(hops[h].net)];
  stage.wire = result.annotated[static_cast<std::size_t>(hops[h].net)];
  // The sink toward the next stage (or the PO marker on the last stage).
  if (h + 1 < hops.size()) {
    const Net& next_net = netlist.net(hops[h + 1].net);
    const CellInst& next_inst = netlist.cell(next_net.driver_cell);
    const int next_pin =
        result.nets[static_cast<std::size_t>(hops[h + 1].net)]
            .from_pin[static_cast<std::size_t>(hops[h + 1].edge)];
    if (stage.wire.num_nodes() > 1) {
      stage.sink_node =
          stage.wire.sink_node(sink_pin_name(next_inst, next_pin));
    }
    stage.load_cell = next_inst.type->name();
  } else if (stage.wire.num_nodes() > 1 && !stage.wire.sinks().empty()) {
    // Last stage: measure at the PO sink if present, else first sink.
    stage.sink_node = [&] {
      for (const auto& s : stage.wire.sinks()) {
        if (s.pin == "PO") return s.node;
      }
      return stage.wire.sinks().front().node;
    }();
  }
  return stage;
}

/// One path per endpoint, in endpoint order, built on `exec`'s lanes: the
/// backtracks claimed one endpoint at a time (path lengths vary), then the
/// stages of every path filled as one flattened index space. Each stage
/// lands in its own pre-sized slot, so the paths carry the same bits at
/// any lane count. On failure the error the endpoint-by-endpoint loop
/// would have thrown first is rethrown: the lowest endpoint's, and within
/// it a backtrack error before the lowest stage's.
std::vector<PathDescription> build_paths(const GateNetlist& netlist,
                                         const StaEngine::Result& result,
                                         const std::vector<Endpoint>& endpoints,
                                         const ExecContext& exec) {
  const std::size_t n = endpoints.size();
  std::vector<PathDescription> paths(n);
  std::vector<std::vector<Hop>> hops(n);
  std::vector<std::exception_ptr> failed(n);
  exec.parallel_for_claimed(n, [&](std::size_t p) {
    try {
      hops[p] = backtrack(netlist, result, endpoints[p]);
    } catch (...) {
      failed[p] = std::current_exception();
      return;
    }
    paths[p].design = netlist.name();
    paths[p].stages.resize(hops[p].size() - 1);
  });
  // Only the paths below the first failed backtrack are filled.
  const std::size_t filled = static_cast<std::size_t>(
      std::find_if(failed.begin(), failed.end(),
                   [](const std::exception_ptr& e) { return e != nullptr; }) -
      failed.begin());

  // Path p's stages are the flattened indices [first[p], first[p + 1]).
  std::vector<std::size_t> first(filled + 1, 0);
  for (std::size_t p = 0; p < filled; ++p) {
    first[p + 1] = first[p] + paths[p].stages.size();
  }
  std::mutex error_mu;
  std::size_t error_at = first[filled];
  std::exception_ptr error;
  exec.parallel_for_chunked(
      first[filled], kStageGrain, [&](std::size_t begin, std::size_t end) {
        auto p = static_cast<std::size_t>(
            std::upper_bound(first.begin(), first.end(), begin) -
            first.begin() - 1);
        for (std::size_t i = begin; i < end; ++i) {
          while (i >= first[p + 1]) ++p;
          const std::size_t h = i - first[p] + 1;
          try {
            paths[p].stages[h - 1] = path_stage(netlist, result, hops[p], h);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mu);
            if (i < error_at) {
              error_at = i;
              error = std::current_exception();
            }
            return;
          }
        }
      });
  if (error) std::rethrow_exception(error);
  if (filled < n) std::rethrow_exception(failed[filled]);
  return paths;
}

}  // namespace

StaEngine::Result StaEngine::run(const GateNetlist& netlist,
                                 const ParasiticDb& parasitics) const {
  // The lanes the pass below runs on compile its graph too.
  const FlatTimingGraph graph =
      FlatTimingGraph::compile(netlist, lanes_for(config_, netlist));
  return run(graph, netlist, parasitics);
}

PathDescription StaEngine::extract_critical_path(const GateNetlist& netlist,
                                                 const Result& result) const {
  return std::move(
      build_paths(netlist, result,
                  {{result.critical_net, result.critical_edge,
                    result.max_arrival}},
                  lanes_for(config_, netlist))
          .front());
}

std::vector<PathDescription> StaEngine::extract_worst_paths(
    const GateNetlist& netlist, const Result& result,
    std::size_t max_paths) const {
  std::vector<Endpoint> endpoints;
  for (int po : netlist.primary_outputs()) {
    const auto& nt = result.nets[static_cast<std::size_t>(po)];
    // A PO that no cell drives (a feed-through port) has no path.
    if (!nt.reachable || netlist.net(po).driver_cell < 0) continue;
    const int edge = nt.arrival[0] >= nt.arrival[1] ? 0 : 1;
    endpoints.push_back(
        {po, edge, nt.arrival[static_cast<std::size_t>(edge)]});
  }
  std::sort(endpoints.begin(), endpoints.end(),
            [](const Endpoint& a, const Endpoint& b) {
              return a.arrival > b.arrival;
            });
  if (endpoints.size() > max_paths) endpoints.resize(max_paths);

  std::vector<PathDescription> paths =
      build_paths(netlist, result, endpoints, lanes_for(config_, netlist));
  for (std::size_t p = 0; p < paths.size(); ++p) {
    paths[p].note = "endpoint " + netlist.net(endpoints[p].net).name +
                    (endpoints[p].edge == 0 ? " (rise)" : " (fall)");
  }
  return paths;
}

}  // namespace nsdc
