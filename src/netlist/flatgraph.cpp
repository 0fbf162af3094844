#include "netlist/flatgraph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/faultinject.hpp"

namespace nsdc {

namespace {

using Id = FlatTimingGraph::Id;

// One id value (kNoId) is reserved, so the usable range is [0, kNoId).
void check_id_range(std::size_t count, const char* what) {
  if (count >= static_cast<std::size_t>(FlatTimingGraph::kNoId)) {
    throw std::length_error(std::string("FlatTimingGraph: too many ") + what +
                            " for 32-bit ids");
  }
}

/// Minimum block of the size and fill passes: a design below a few
/// thousand cells and nets runs each pass as one inline block.
constexpr std::size_t kFillGrain = 4096;

/// Rewrites the sizes held in off[1..] into offsets from `base`: off[i]
/// becomes base plus the sizes of slots [0, i). Returns the end offset,
/// summed in std::size_t so the caller can range-check it before any
/// offset is used.
std::size_t scan_offsets(std::vector<Id>& off, std::size_t base) {
  std::size_t end = base;
  off[0] = static_cast<Id>(base);
  for (std::size_t i = 1; i < off.size(); ++i) {
    end += off[i];
    off[i] = static_cast<Id>(end);
  }
  return end;
}

}  // namespace

FlatTimingGraph FlatTimingGraph::compile(const GateNetlist& netlist,
                                         const ExecContext& exec) {
  FlatTimingGraph g;
  g.design_name_ = netlist.name();
  g.source_generation_ = netlist.generation();

  const std::size_t num_cells = netlist.num_cells();
  const std::size_t num_nets = netlist.num_nets();
  check_id_range(num_cells, "cells");
  check_id_range(num_nets, "nets");
  const std::vector<CellInst>& cells = netlist.cells();
  const std::vector<Net>& nets = netlist.nets();

  // --- Positions, one level at a time (levelize first: a cycle throws) ---
  const auto& lev = netlist.levelization();
  g.cell_pos_.assign(num_cells, kNoId);
  g.level_begin_.reserve(lev.levels.size() + 1);
  g.level_begin_.push_back(0);
  g.cell_id_.reserve(num_cells);
  for (std::size_t l = 0; l < lev.levels.size(); ++l) {
    fault_fire("flatgraph.compile", l, exec.cancel);
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

  // --- Size: each position and net writes its counts at index + 1 -------
  g.cell_fanin_begin_.assign(num_cells + 1, 0);
  g.cell_name_off_.assign(num_cells + 1, 0);
  exec.parallel_for_chunked(
      num_cells, kFillGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t pos = begin; pos < end; ++pos) {
          const CellInst& inst = cells[g.cell_id_[pos]];
          g.cell_fanin_begin_[pos + 1] =
              static_cast<Id>(inst.fanin_nets.size());
          g.cell_name_off_[pos + 1] = static_cast<Id>(inst.name.size());
        }
      });
  g.fanout_begin_.assign(num_nets + 1, 0);
  g.net_name_off_.assign(num_nets + 1, 0);
  std::vector<Id> sink_names_begin(num_nets + 1, 0);  // per net
  exec.parallel_for_chunked(
      num_nets, kFillGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t n = begin; n < end; ++n) {
          const Net& net = nets[n];
          g.fanout_begin_[n + 1] = static_cast<Id>(net.sinks.size());
          g.net_name_off_[n + 1] = static_cast<Id>(net.name.size());
          std::size_t bytes = 0;
          for (const NetSink& sink : net.sinks) {
            bytes += cells[static_cast<std::size_t>(sink.cell)].name.size() +
                     1 + std::to_string(sink.pin).size();
          }
          sink_names_begin[n + 1] = static_cast<Id>(bytes);
        }
      });

  // --- Prefix sums; each total is range-checked before any offset is used.
  // The arena holds net names, then cell names (position order), then sink
  // names (net order, net.sinks order within a net).
  const std::size_t total_fanouts = scan_offsets(g.fanout_begin_, 0);
  check_id_range(total_fanouts, "fanout entries");
  const std::size_t total_arcs = scan_offsets(g.cell_fanin_begin_, 0);
  check_id_range(total_arcs, "fanin arcs");
  const std::size_t net_names_end = scan_offsets(g.net_name_off_, 0);
  const std::size_t cell_names_end =
      scan_offsets(g.cell_name_off_, net_names_end);
  const std::size_t arena_bytes =
      scan_offsets(sink_names_begin, cell_names_end);
  check_id_range(arena_bytes, "name-arena bytes");

  // --- Fill: every slot is written by exactly one position or net --------
  g.cell_out_net_.resize(num_cells);
  g.cell_type_.resize(num_cells);
  g.inverting_.resize(num_cells);
  g.fanin_net_.resize(total_arcs);
  g.fanin_sink_.assign(total_arcs, kNoId);
  g.net_driver_pos_.resize(num_nets);
  g.fanout_pos_.resize(total_fanouts);
  g.fanout_pin_.resize(total_fanouts);
  g.sink_name_off_.resize(total_fanouts + 1);
  g.sink_name_off_[total_fanouts] = static_cast<Id>(arena_bytes);
  g.arena_.resize(arena_bytes);
  char* const arena = g.arena_.data();
  exec.parallel_for_chunked(
      num_cells, kFillGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t pos = begin; pos < end; ++pos) {
          const CellInst& inst = cells[g.cell_id_[pos]];
          g.cell_out_net_[pos] = static_cast<Id>(inst.out_net);
          g.cell_type_[pos] = inst.type;
          g.inverting_[pos] = inst.type->inverting() ? 1 : 0;
          std::copy(inst.name.begin(), inst.name.end(),
                    arena + g.cell_name_off_[pos]);
          Id arc = g.cell_fanin_begin_[pos];
          for (int fan : inst.fanin_nets) {
            g.fanin_net_[arc++] = fan < 0 ? kNoId : static_cast<Id>(fan);
          }
        }
      });
  // A net's fanout entries follow net.sinks (the order annotate reads), and
  // each entry writes the fanin_sink slot of its (cell, pin): sink lists
  // and connected arcs are a bijection, so no two entries share a slot.
  exec.parallel_for_chunked(
      num_nets, kFillGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t n = begin; n < end; ++n) {
          const Net& net = nets[n];
          std::copy(net.name.begin(), net.name.end(),
                    arena + g.net_name_off_[n]);
          g.net_driver_pos_[n] =
              net.driver_cell < 0
                  ? kNoId
                  : g.cell_pos_[static_cast<std::size_t>(net.driver_cell)];
          Id f = g.fanout_begin_[n];
          char* name = arena + sink_names_begin[n];
          for (const NetSink& sink : net.sinks) {
            const Id pos = g.cell_pos_[static_cast<std::size_t>(sink.cell)];
            g.fanout_pos_[f] = pos;
            g.fanout_pin_[f] = static_cast<Id>(sink.pin);
            g.fanin_sink_[g.cell_fanin_begin_[pos] + g.fanout_pin_[f]] = f;
            // Byte-identical to sink_pin_name(inst, pin) (sta/annotate.hpp).
            g.sink_name_off_[f] = static_cast<Id>(name - arena);
            const std::string& inst =
                cells[static_cast<std::size_t>(sink.cell)].name;
            const std::string pin = std::to_string(sink.pin);
            name = std::copy(inst.begin(), inst.end(), name);
            *name++ = ':';
            name = std::copy(pin.begin(), pin.end(), name);
            ++f;
          }
        }
      });

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
