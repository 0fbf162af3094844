#pragma once
// Compiled structure-of-arrays timing graph: a one-shot frozen snapshot of
// a GateNetlist laid out for streaming propagation at million-cell scale.
//
// Layout principles (DESIGN.md §12):
//   - 32-bit ids everywhere (cells, nets, arcs, fanout entries). Designs
//     with >= 2^32 - 1 of any of these are rejected at compile() time.
//   - Level-contiguous cell order: cells are stored by *position*, where
//     positions [level_begin(l), level_end(l)) hold exactly the cells of
//     topological level l, in ascending legacy cell-index order — the same
//     order StaEngine's per-level parallel_for visits them, so a linear
//     sweep over positions replays the legacy propagation order.
//   - CSR adjacency: one fanin arc slot per input pin, packed contiguously
//     per position ([fanin_begin(pos), fanin_end(pos)) ); per-net fanout
//     entries packed in net.sinks order ([fanout_begin(n), fanout_end(n))).
//   - Names live in one interned arena (a single string blob + offset
//     arrays) and never appear in the hot arrays. Sink pin names are
//     pre-rendered as "<inst>:<pin>" — byte-identical to sink_pin_name
//     (sta/annotate.hpp) — so parasitic-tree lookups need no per-visit
//     string construction.
//
// The graph is a *view* onto the source netlist: it copies ids, adjacency
// and names but shares CellType pointers with the caller-owned library.
// It records the netlist generation() it was compiled at; consumers must
// check source_generation() before trusting it (see StaEngine). The
// legacy GateNetlist stays authoritative for edits, lint, and IO; the one
// in-place mutation is refresh_cell (IncrementalSta's own copy).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/exec.hpp"

namespace nsdc {

class FlatTimingGraph {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNoId = 0xFFFFFFFFu;  ///< unconnected / absent

  /// Freezes `netlist` into SoA form. Levelizes (throws std::runtime_error
  /// on a combinational cycle, like GateNetlist::levelization), then
  /// assigns positions one level at a time, firing the `flatgraph.compile`
  /// fault-injection site with the level index and exec.cancel. The arrays
  /// are then sized, prefix-summed and filled; the size and fill passes
  /// run over `exec`'s lanes, each slot written by one index, so the graph
  /// is the same at every lane count and grain. Throws std::length_error
  /// when any id space would overflow 32 bits.
  static FlatTimingGraph compile(const GateNetlist& netlist,
                                 const ExecContext& exec = {});

  /// Re-reads legacy cell `cell`'s type, inverting flag, output net and
  /// fanin nets from `netlist` into its position. Level ranges, fanout
  /// lists, fanin_sink, net_driver_pos and source_generation() keep
  /// describing the compiled netlist (StaEngine::run refuses it as stale).
  void refresh_cell(const GateNetlist& netlist, Id cell);

  // --- Sizes --------------------------------------------------------------
  Id num_cells() const { return static_cast<Id>(cell_id_.size()); }
  Id num_nets() const { return static_cast<Id>(net_driver_pos_.size()); }
  Id num_levels() const { return static_cast<Id>(level_begin_.size() - 1); }
  Id num_arcs() const { return static_cast<Id>(fanin_net_.size()); }
  Id num_fanouts() const { return static_cast<Id>(fanout_pos_.size()); }

  // --- Levels (positions are level-contiguous) ----------------------------
  Id level_begin(Id l) const { return level_begin_[l]; }
  Id level_end(Id l) const { return level_begin_[l + 1]; }

  // --- Per-position cell arrays -------------------------------------------
  Id cell_id(Id pos) const { return cell_id_[pos]; }
  Id cell_out_net(Id pos) const { return cell_out_net_[pos]; }
  const CellType* cell_type(Id pos) const { return cell_type_[pos]; }
  bool inverting(Id pos) const { return inverting_[pos] != 0; }
  Id fanin_begin(Id pos) const { return cell_fanin_begin_[pos]; }
  Id fanin_end(Id pos) const { return cell_fanin_begin_[pos + 1]; }
  /// Position of a legacy cell index.
  Id position_of_cell(Id cell) const { return cell_pos_[cell]; }

  // --- Per-arc fanin arrays (arc = position's pin slot) -------------------
  /// Fanin net of this arc; kNoId when the pin is unconnected.
  Id fanin_net(Id arc) const { return fanin_net_[arc]; }
  /// Fanout-entry index where this (cell, pin) appears among its fanin
  /// net's sinks (for interned sink-name lookup); kNoId when unconnected.
  Id fanin_sink(Id arc) const { return fanin_sink_[arc]; }

  // --- Per-net arrays ------------------------------------------------------
  /// Driving cell position; kNoId for primary inputs / undriven nets.
  Id net_driver_pos(Id net) const { return net_driver_pos_[net]; }
  Id fanout_begin(Id net) const { return fanout_begin_[net]; }
  Id fanout_end(Id net) const { return fanout_begin_[net + 1]; }
  /// Sink cell position of fanout entry `f`.
  Id fanout_pos(Id f) const { return fanout_pos_[f]; }
  /// Sink input-pin index of fanout entry `f`.
  Id fanout_pin(Id f) const { return fanout_pin_[f]; }

  // --- Interned names (views into the arena; stable for this graph) -------
  std::string_view net_name(Id net) const {
    return arena_view(net_name_off_, net);
  }
  std::string_view cell_name(Id pos) const {
    return arena_view(cell_name_off_, pos);
  }
  /// Pre-rendered "<inst>:<pin>" for fanout entry `f` — byte-identical to
  /// sink_pin_name for that sink.
  std::string_view sink_name(Id f) const {
    return arena_view(sink_name_off_, f);
  }

  // --- Boundary -----------------------------------------------------------
  const std::vector<Id>& primary_inputs() const { return pi_nets_; }
  const std::vector<Id>& primary_outputs() const { return po_nets_; }

  // --- Provenance ----------------------------------------------------------
  const std::string& design_name() const { return design_name_; }
  /// GateNetlist::generation() at compile time; a mismatch means the
  /// source was edited and this graph is stale.
  std::uint64_t source_generation() const { return source_generation_; }

  /// Bytes held by this graph (array + arena capacities). The basis of
  /// the bytes/cell accounting in bench_micro_perf.
  std::size_t memory_bytes() const;

 private:
  FlatTimingGraph() = default;

  std::string_view arena_view(const std::vector<Id>& off, Id i) const {
    return std::string_view(arena_.data() + off[i], off[i + 1] - off[i]);
  }

  // Level offsets: level l occupies positions [level_begin_[l],
  // level_begin_[l+1]).
  std::vector<Id> level_begin_;

  // Per position (level-contiguous).
  std::vector<Id> cell_id_;
  std::vector<Id> cell_out_net_;
  std::vector<const CellType*> cell_type_;
  std::vector<std::uint8_t> inverting_;
  std::vector<Id> cell_fanin_begin_;  ///< num_cells + 1

  // Per legacy cell index.
  std::vector<Id> cell_pos_;

  // Per fanin arc.
  std::vector<Id> fanin_net_;
  std::vector<Id> fanin_sink_;

  // Per net.
  std::vector<Id> net_driver_pos_;
  std::vector<Id> fanout_begin_;  ///< num_nets + 1

  // Per fanout entry (net.sinks order).
  std::vector<Id> fanout_pos_;
  std::vector<Id> fanout_pin_;

  // Name arena: net names, then cell names, then sink names, appended into
  // one blob; each offset array has size N+1 (final entry = region end).
  std::string arena_;
  std::vector<Id> net_name_off_;
  std::vector<Id> cell_name_off_;
  std::vector<Id> sink_name_off_;

  std::vector<Id> pi_nets_;
  std::vector<Id> po_nets_;

  std::string design_name_;
  std::uint64_t source_generation_ = 0;
};

}  // namespace nsdc
