#pragma once
// Incremental static timing: holds a valid StaEngine::Result for a bound
// netlist and, after each batch of netlist edits (cell retypes, fanin
// rewires, output-net moves, parasitic re-annotations), re-propagates
// arrivals/slews only through the affected fanout cone instead of
// re-running the full levelized engine.
//
// Staleness is detected through GateNetlist::generation(); the edits
// themselves are replayed from the netlist's edit journal, so callers
// mutate the netlist through its normal API and just call update().
//
// Determinism contract: update() produces a Result bit-identical to a
// fresh StaEngine::run() on the edited netlist, at any thread count. Two
// properties make this hold:
//   1. One kernel — the engine keeps the FlatTimingGraph and FlatArcRecords
//      of its last full run and refreshes the edited cells and re-annotated
//      nets in place with the flat_kernel calls a fresh run makes; the cone
//      walk runs flat_propagate_cell, so any recomputed slot gets exactly
//      the full-run value.
//   2. Convergence cut — a recomputed cell whose output NetTime is exactly
//      equal to its previous value stops the wave (its fanout already
//      holds values derived from identical inputs). Slots the wave never
//      reaches keep values that a full run would reproduce verbatim.
// Cells of one level in the worklist are independent (the levelization
// argument from engine.hpp), so wide cone fronts fan out over the pool;
// change detection and worklist insertion stay serial and ordered.

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "netlist/flatgraph.hpp"
#include "sta/engine.hpp"
#include "sta/flatsta.hpp"
#include "util/diag.hpp"

namespace nsdc {

class IncrementalSta {
 public:
  IncrementalSta(const NSigmaCellModel& model, const TechParams& tech,
                 StaConfig config = {});

  /// Binds to a netlist/parasitics pair and computes the baseline with a
  /// full engine run. Both references must outlive the binding.
  const StaEngine::Result& bind(const GateNetlist& netlist,
                                const ParasiticDb& parasitics);

  /// Notifies that the bound ParasiticDb changed (or gained/lost) the tree
  /// of `net`; the next update() re-annotates it and re-propagates.
  void invalidate_parasitics(int net);

  /// Re-synchronizes with every netlist edit since the last
  /// bind()/update(), re-propagating only the affected fanout cones.
  /// Structural growth (add_cell / add_primary_input / add_net) and raw
  /// surgery fall back to a full engine run. Returns the updated result.
  const StaEngine::Result& update();

  /// Last synchronized result. Call in_sync() to know whether netlist
  /// edits have been applied on top of it.
  const StaEngine::Result& result() const { return result_; }

  /// True when the bound netlist has not been edited since the last
  /// bind()/update() and no parasitic invalidation is pending.
  bool in_sync() const;

  /// Netlist generation the current result corresponds to.
  std::uint64_t synced_generation() const { return synced_gen_; }

  /// Work accounting for the most recent update() — the observable basis
  /// of the "per-edit cost scales with cone size" contract.
  struct UpdateStats {
    std::size_t edits = 0;             ///< journal records consumed
    std::size_t nets_reannotated = 0;  ///< annotation kernel invocations
    std::size_t cells_recomputed = 0;  ///< propagation kernel invocations
    std::size_t cells_converged = 0;   ///< recomputed cells whose output
                                       ///< was unchanged (cut the wave)
    bool full_rerun = false;           ///< fell back to StaEngine::run
  };
  const UpdateStats& last_stats() const { return stats_; }

  /// Diagnostics of the most recent update(): one "incremental.fallback"
  /// record (rule + reason) whenever the journal could not be replayed and
  /// the update degraded to a full engine run. Cleared on every update();
  /// empty when the incremental path ran. The degradation is silent in the
  /// Result itself — same bits either way — so this is the observable
  /// signal that the cheap path was skipped.
  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

 private:
  const StaEngine::Result& full_rerun();
  const StaEngine::Result& fallback(const std::string& why);

  const NSigmaCellModel& model_;
  TechParams tech_;
  StaConfig config_;
  StaEngine engine_;

  const GateNetlist* netlist_ = nullptr;
  const ParasiticDb* parasitics_ = nullptr;
  StaEngine::Result result_;
  /// The last full run's graph and records, refreshed in place by update().
  std::optional<FlatTimingGraph> graph_;
  FlatArcRecords rec_;
  std::uint64_t synced_gen_ = 0;
  std::set<int> pending_parasitics_;
  std::vector<int> po_cache_;
  UpdateStats stats_;
  std::vector<Diagnostic> diags_;
};

}  // namespace nsdc
