#pragma once
// Graph-based static timing: dual-rail (rise/fall) mean-delay propagation
// over the levelized netlist, Elmore wire delays from annotated
// parasitics, slew propagation through the NLDM-style mean tables, and
// critical-path extraction into a PathDescription for the statistical
// calculators.
//
// Propagation runs level-by-level with a barrier between levels: cells in
// the same level have no mutual dependencies, so each level wide enough to
// pay for a pool round trip fans out over the thread pool (narrower ones
// run inline on the caller). Every cell writes only its own output net's
// slot and reads only lower-level slots, which makes the parallel result
// bit-identical to the serial one for any thread count. Designs below
// StaConfig::min_parallel_cells stay on the serial path (fork-join
// overhead dominates on small graphs). The path reports run on the same
// lanes: one backtrack per endpoint, then one flat loop over every path's
// stages.

#include <stdexcept>
#include <string>
#include <vector>

#include "core/nsigma_cell.hpp"
#include "core/path.hpp"
#include "netlist/netlist.hpp"
#include "parasitics/spef.hpp"
#include "util/exec.hpp"

namespace nsdc {

class FlatTimingGraph;
struct FlatArcRecords;

/// Execution policy for StaEngine and for the engines that run it as their
/// nominal pass (NetlistMonteCarlo, AnalyticSsta, IncrementalSta).
struct StaConfig {
  ExecContext exec{};
  /// Below this many cells StaEngine (its pass and its path reports) runs
  /// serially on the calling thread. AnalyticSsta's level loop, whose
  /// tasks cost ~100x a nominal cell, uses its lanes at any size.
  std::size_t min_parallel_cells = 2048;

  /// True when a netlist of `cells` cells should use the pool.
  bool parallel_for_size(std::size_t cells) const {
    return cells >= min_parallel_cells && exec.resolved_threads() > 1;
  }
};

class StaEngine {
 public:
  StaEngine(const NSigmaCellModel& model, const TechParams& tech)
      : model_(model), tech_(tech) {}

  StaEngine(const NSigmaCellModel& model, const TechParams& tech,
            StaConfig config)
      : model_(model), tech_(tech), config_(config) {}

  /// Per-net timing state at the driver output. Index 0 = rising edge at
  /// this net, 1 = falling.
  struct NetTime {
    std::array<double, 2> arrival{0.0, 0.0};
    std::array<double, 2> slew{10e-12, 10e-12};
    /// Worst fanin pin for each edge (-1 at primary inputs).
    std::array<int, 2> from_pin{-1, -1};
    bool reachable = false;
  };

  struct Result {
    std::vector<NetTime> nets;       ///< indexed by net id
    std::vector<RcTree> annotated;   ///< per net: tree with pin caps added
    std::vector<double> net_load;    ///< per net: total cap seen by driver
    double max_arrival = 0.0;        ///< worst PO mean arrival
    int critical_net = -1;
    int critical_edge = 0;  ///< 0 rise / 1 fall at the PO net
  };

  /// Compiles `netlist` into a FlatTimingGraph and runs the overload
  /// below on it.
  Result run(const GateNetlist& netlist, const ParasiticDb& parasitics) const;

  /// Full pass on a pre-compiled graph (implemented in flatsta.cpp).
  /// Throws std::invalid_argument when the graph is stale
  /// (source_generation() != netlist.generation()). When `keep_records` is
  /// non-null the bound per-arc records (charlib handles, Elmore) are
  /// returned for reuse by downstream engines.
  Result run(const FlatTimingGraph& graph, const GateNetlist& netlist,
             const ParasiticDb& parasitics,
             FlatArcRecords* keep_records = nullptr) const;

  /// Backtracks the worst PO arrival (critical_net, critical_edge) into a
  /// stage-by-stage path: extract_worst_paths' code with one endpoint.
  /// Throws "empty critical path" when no cell drives that net.
  PathDescription extract_critical_path(const GateNetlist& netlist,
                                        const Result& result) const;

  /// Worst path per primary output, sorted by decreasing mean arrival,
  /// truncated to `max_paths`. Entry 0 equals the critical path. A PO that
  /// no cell drives (a feed-through port) has no path: it is left out
  /// before truncation, so `max_paths` counts real paths.
  ///
  /// Both reports run on the lanes run() uses (the config's, or one in
  /// order on the caller below min_parallel_cells): each lane claims the
  /// next endpoint and backtracks it, then every path's stages are filled
  /// as one flattened index space. Endpoint selection, sort and truncation
  /// stay serial and each stage reads only `result` and the netlist, so
  /// the paths carry the same bits at any lane count. Both loops poll the
  /// config's cancellation token (CancelledError). A fanin pin of -1 on
  /// the way back throws "broken backtrack"; with several failing
  /// endpoints the lowest one's error is rethrown.
  std::vector<PathDescription> extract_worst_paths(
      const GateNetlist& netlist, const Result& result,
      std::size_t max_paths) const;

 private:
  const NSigmaCellModel& model_;
  TechParams tech_;
  StaConfig config_{};
};

/// The endpoint scan shared by every nominal pass. Per-cell annotation and
/// propagation live in flat_kernel (flatsta.hpp), the one implementation
/// every engine runs.
namespace sta_kernel {

/// Scans the primary-output net ids `pos`, in list order, into
/// max_arrival / critical_net / critical_edge; the first strictly larger
/// arrival wins. Throws when no PO is reachable. The one endpoint scan
/// behind StaEngine::run (via flat_kernel::flat_select_critical),
/// IncrementalSta::update and the dist STA merge.
template <class PoList>
void select_critical(const PoList& pos, const std::string& design,
                     StaEngine::Result& res) {
  res.max_arrival = 0.0;
  res.critical_net = -1;
  res.critical_edge = 0;
  for (const auto po : pos) {
    const auto& nt = res.nets[static_cast<std::size_t>(po)];
    if (!nt.reachable) continue;
    for (int edge = 0; edge < 2; ++edge) {
      const double arr = nt.arrival[static_cast<std::size_t>(edge)];
      if (arr > res.max_arrival) {
        res.max_arrival = arr;
        res.critical_net = static_cast<int>(po);
        res.critical_edge = edge;
      }
    }
  }
  if (res.critical_net < 0) {
    throw std::runtime_error("StaEngine: no reachable primary output in " +
                             design);
  }
}

}  // namespace sta_kernel

}  // namespace nsdc
