#pragma once
// Flat-graph STA kernels: the one implementation of annotation, per-arc
// record binding and per-cell propagation that every engine runs.
//
// FlatArcRecords packs the per-arc annotation every engine needs —
// resolved charlib surface handles, the Elmore delay to each sink pin,
// the Eq. 7 wire variability X_w — contiguously in propagation (arc)
// order, so the inner loops replace string-keyed map lookups and
// per-visit name construction with array reads. NSigmaCellModel keys
// arcs by (cell name, input edge) and ignores the pin, so one handle per
// (CellType, edge) stands in for every per-arc string lookup; Elmore is
// precomputed by one tree.elmore(tree.sink_node(name)) call per arc.
// Handles that fail to resolve (cell type absent from the model) stay
// null and the kernels fall back to the string-keyed model call, which
// throws only where an arc of that type is actually evaluated.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/flatgraph.hpp"
#include "sta/engine.hpp"

namespace nsdc {

class NSigmaWireModel;

/// Per-arc annotation records in propagation order. Arc indexing matches
/// FlatTimingGraph: arc = fanin_begin(pos) + pin.
struct FlatArcRecords {
  /// Resolved charlib handle per input edge (index 0 = input rising);
  /// nullptr = unresolved, kernels fall back to the string path.
  std::array<std::vector<const CellArcModel*>, 2> arc_model;
  /// Elmore root->sink-pin delay; 0.0 when the fanin net has no tree.
  std::vector<double> elmore;
  /// 1 when the fanin net's annotated tree has > 1 node.
  std::vector<std::uint8_t> has_tree;
  /// Raw (unscaled) Eq. 7 X_w per arc with a tree; consumers apply their
  /// variation scale. Filled by bind_wire_xw; empty until then.
  std::vector<double> xw;

  std::size_t memory_bytes() const;
};

namespace flat_kernel {

/// Charlib handles of `type` per input edge (index 0 = input rising);
/// nullptr where the model lacks the type.
std::array<const CellArcModel*, 2> resolve_arc_models(
    const NSigmaCellModel& model, const CellType& type);

/// Resolves charlib handles (one resolution per CellType, fanned out to
/// every arc) and precomputes per-arc Elmore delays from the annotated
/// trees in `res`, net by net over each net's fanout entries. Call after
/// annotation, before propagation.
void bind_arc_records(const FlatTimingGraph& graph,
                      const NSigmaCellModel& model,
                      const StaEngine::Result& res, const ExecContext& exec,
                      FlatArcRecords& rec);

/// Fills rec.xw for every arc with a tree: wire.xw(driver cell type,
/// sink cell type), with the "INVx4" driver fallback for PI-driven nets.
/// Cached per (driver type, sink type) pair.
void bind_wire_xw(const FlatTimingGraph& graph, const NSigmaWireModel& wire,
                  FlatArcRecords& rec);

/// (Re)annotates net `n` into `res`: copies the parasitic tree, adds each
/// fanout entry's pin cap at its interned sink name, and records the
/// driver load (pin-cap sum when the net has no parasitics).
void flat_annotate_net(const FlatTimingGraph& graph,
                       const GateNetlist& netlist,
                       const ParasiticDb& parasitics, const TechParams& tech,
                       std::size_t n, StaEngine::Result& res);

/// flat_annotate_net for a netlist edited since `graph` was compiled: the
/// sinks come from the netlist's current net.sinks (a rewire moves a sink
/// between nets; the compiled fanout lists do not see it). Then rebinds
/// the has_tree / elmore records of those sinks' arcs from the finished
/// tree. Writes only slot `n` and its sinks' records, so distinct nets may
/// run concurrently.
void flat_reannotate_net(const FlatTimingGraph& graph,
                         const GateNetlist& netlist,
                         const ParasiticDb& parasitics,
                         const TechParams& tech, std::size_t n,
                         StaEngine::Result& res, FlatArcRecords& rec);

/// Recomputes the output-net NetTime of the cell at `pos`. Resets the slot
/// first, so re-running it reproduces the full-run value exactly.
void flat_propagate_cell(const FlatTimingGraph& graph,
                         const FlatArcRecords& rec,
                         const NSigmaCellModel& model,
                         FlatTimingGraph::Id pos, StaEngine::Result& res);

/// sta_kernel::select_critical over graph.primary_outputs().
void flat_select_critical(const FlatTimingGraph& graph,
                          StaEngine::Result& res);

}  // namespace flat_kernel

}  // namespace nsdc
