#include "netlist/flatgraph.hpp"

#include <stdexcept>
#include <type_traits>

#include "util/cancel.hpp"
#include "util/faultinject.hpp"

namespace nsdc {

namespace {

// One id value (kNoId) is reserved, so the usable range is [0, kNoId).
void check_id_range(std::size_t count, const char* what) {
  if (count >= static_cast<std::size_t>(FlatTimingGraph::kNoId)) {
    throw std::length_error(std::string("FlatTimingGraph: too many ") + what +
                            " for 32-bit ids");
  }
}

void append_name(std::string& arena, std::vector<FlatTimingGraph::Id>& off,
                 std::string_view name) {
  off.push_back(static_cast<FlatTimingGraph::Id>(arena.size()));
  arena.append(name);
}

}  // namespace

FlatTimingGraph FlatTimingGraph::compile(const GateNetlist& netlist,
                                         CancellationToken* cancel) {
  FlatTimingGraph g;
  g.design_name_ = netlist.name();
  g.source_generation_ = netlist.generation();

  const std::size_t num_cells = netlist.num_cells();
  const std::size_t num_nets = netlist.num_nets();
  check_id_range(num_cells, "cells");
  check_id_range(num_nets, "nets");

  // Levelize first (throws on a combinational cycle before any packing).
  const auto& lev = netlist.levelization();

  // Fanout entries mirror net.sinks: compute per-net offsets and total.
  std::size_t total_fanouts = 0;
  std::size_t total_arcs = 0;
  for (std::size_t n = 0; n < num_nets; ++n) {
    total_fanouts += netlist.net(static_cast<int>(n)).sinks.size();
  }
  for (std::size_t c = 0; c < num_cells; ++c) {
    total_arcs += netlist.cell(static_cast<int>(c)).fanin_nets.size();
  }
  check_id_range(total_fanouts, "fanout entries");
  check_id_range(total_arcs, "fanin arcs");

  // --- Per-net fanout CSR + interned names (net.sinks order) -------------
  std::size_t name_bytes = 0;
  for (std::size_t n = 0; n < num_nets; ++n) {
    name_bytes += netlist.net(static_cast<int>(n)).name.size();
  }
  for (std::size_t c = 0; c < num_cells; ++c) {
    // Cell name, plus one "<inst>:<pin>" per fanout entry (pin digits are
    // bounded; reserve the name and a small slack per entry).
    const auto& inst = netlist.cell(static_cast<int>(c));
    name_bytes += inst.name.size();
  }
  g.arena_.reserve(name_bytes + total_fanouts * 4);

  g.net_name_off_.reserve(num_nets + 1);
  for (std::size_t n = 0; n < num_nets; ++n) {
    append_name(g.arena_, g.net_name_off_, netlist.net(static_cast<int>(n)).name);
  }
  g.net_name_off_.push_back(static_cast<Id>(g.arena_.size()));

  g.fanout_begin_.reserve(num_nets + 1);
  g.fanout_pos_.reserve(total_fanouts);
  g.fanout_pin_.reserve(total_fanouts);

  // Positions are needed to fill fanout_pos_, so assign them first.
  g.cell_pos_.assign(num_cells, kNoId);
  g.level_begin_.reserve(lev.levels.size() + 1);
  g.level_begin_.push_back(0);
  g.cell_id_.reserve(num_cells);
  for (std::size_t l = 0; l < lev.levels.size(); ++l) {
    fault_fire("flatgraph.compile", l, cancel);
    for (int c : lev.levels[l]) {
      g.cell_pos_[static_cast<std::size_t>(c)] =
          static_cast<Id>(g.cell_id_.size());
      g.cell_id_.push_back(static_cast<Id>(c));
    }
    g.level_begin_.push_back(static_cast<Id>(g.cell_id_.size()));
  }
  if (g.cell_id_.size() != num_cells) {
    throw std::runtime_error(
        "FlatTimingGraph: levelization does not cover every cell in " +
        netlist.name());
  }

  // --- Per-position arrays ------------------------------------------------
  g.cell_out_net_.reserve(num_cells);
  g.cell_type_.reserve(num_cells);
  g.inverting_.reserve(num_cells);
  g.cell_fanin_begin_.reserve(num_cells + 1);
  g.cell_fanin_begin_.push_back(0);
  g.fanin_net_.reserve(total_arcs);
  g.cell_name_off_.reserve(num_cells + 1);
  for (Id pos = 0; pos < num_cells; ++pos) {
    const auto& inst = netlist.cell(static_cast<int>(g.cell_id_[pos]));
    g.cell_out_net_.push_back(static_cast<Id>(inst.out_net));
    g.cell_type_.push_back(inst.type);
    g.inverting_.push_back(inst.type->inverting() ? 1 : 0);
    append_name(g.arena_, g.cell_name_off_, inst.name);
    for (int fan : inst.fanin_nets) {
      g.fanin_net_.push_back(fan < 0 ? kNoId : static_cast<Id>(fan));
    }
    g.cell_fanin_begin_.push_back(static_cast<Id>(g.fanin_net_.size()));
  }
  g.cell_name_off_.push_back(static_cast<Id>(g.arena_.size()));

  // --- Fanout CSR + sink names (net.sinks order, matching annotate) ------
  g.sink_name_off_.reserve(total_fanouts + 1);
  for (std::size_t n = 0; n < num_nets; ++n) {
    const Net& net = netlist.net(static_cast<int>(n));
    g.fanout_begin_.push_back(static_cast<Id>(g.fanout_pos_.size()));
    for (const auto& sink : net.sinks) {
      const auto& inst = netlist.cell(sink.cell);
      g.fanout_pos_.push_back(g.cell_pos_[static_cast<std::size_t>(sink.cell)]);
      g.fanout_pin_.push_back(static_cast<Id>(sink.pin));
      // Byte-identical to sink_pin_name(inst, pin) (sta/annotate.hpp).
      g.sink_name_off_.push_back(static_cast<Id>(g.arena_.size()));
      g.arena_.append(inst.name);
      g.arena_.push_back(':');
      g.arena_.append(std::to_string(sink.pin));
    }
  }
  g.fanout_begin_.push_back(static_cast<Id>(g.fanout_pos_.size()));
  g.sink_name_off_.push_back(static_cast<Id>(g.arena_.size()));
  check_id_range(g.arena_.size(), "name-arena bytes");

  // --- Per-net driver positions + arc -> fanout-entry mapping -------------
  g.net_driver_pos_.assign(num_nets, kNoId);
  for (std::size_t n = 0; n < num_nets; ++n) {
    const Net& net = netlist.net(static_cast<int>(n));
    if (net.driver_cell >= 0) {
      g.net_driver_pos_[n] =
          g.cell_pos_[static_cast<std::size_t>(net.driver_cell)];
    }
  }
  g.fanin_sink_.assign(total_arcs, kNoId);
  for (std::size_t n = 0; n < num_nets; ++n) {
    for (Id f = g.fanout_begin_[n]; f < g.fanout_begin_[n + 1]; ++f) {
      const Id pos = g.fanout_pos_[f];
      const Id arc = g.cell_fanin_begin_[pos] + g.fanout_pin_[f];
      g.fanin_sink_[arc] = f;
    }
  }

  // --- Boundary ------------------------------------------------------------
  g.pi_nets_.reserve(netlist.primary_inputs().size());
  for (int pi : netlist.primary_inputs()) {
    g.pi_nets_.push_back(static_cast<Id>(pi));
  }
  // Satellite: consumes the generation-cached PO list.
  const auto& pos = netlist.primary_outputs();
  g.po_nets_.reserve(pos.size());
  for (int po : pos) g.po_nets_.push_back(static_cast<Id>(po));

  return g;
}

void FlatTimingGraph::refresh_cell(const GateNetlist& netlist, Id cell) {
  const CellInst& inst = netlist.cell(static_cast<int>(cell));
  const Id pos = cell_pos_.at(cell);
  Id arc = fanin_begin(pos);  // arity is fixed: set_cell_type enforces it
  cell_type_[pos] = inst.type;
  inverting_[pos] = inst.type->inverting() ? 1 : 0;
  cell_out_net_[pos] = static_cast<Id>(inst.out_net);
  for (int fan : inst.fanin_nets) {
    fanin_net_[arc++] = fan < 0 ? kNoId : static_cast<Id>(fan);
  }
}

std::size_t FlatTimingGraph::memory_bytes() const {
  auto vec_bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return vec_bytes(level_begin_) + vec_bytes(cell_id_) +
         vec_bytes(cell_out_net_) + vec_bytes(cell_type_) +
         vec_bytes(inverting_) + vec_bytes(cell_fanin_begin_) +
         vec_bytes(cell_pos_) + vec_bytes(fanin_net_) +
         vec_bytes(fanin_sink_) + vec_bytes(net_driver_pos_) +
         vec_bytes(fanout_begin_) + vec_bytes(fanout_pos_) +
         vec_bytes(fanout_pin_) + arena_.capacity() +
         vec_bytes(net_name_off_) + vec_bytes(cell_name_off_) +
         vec_bytes(sink_name_off_) + vec_bytes(pi_nets_) + vec_bytes(po_nets_);
}

}  // namespace nsdc
