#include "sta/incremental.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace nsdc {

namespace {

/// Exact-equality NetTime comparison for the convergence cut. Arrivals and
/// slews are pure functions of the fanin slots, so "exactly equal" means
/// "identical to what a full run would compute here".
bool net_time_equal(const StaEngine::NetTime& a, const StaEngine::NetTime& b) {
  return a.reachable == b.reachable && a.arrival == b.arrival &&
         a.slew == b.slew && a.from_pin == b.from_pin;
}

}  // namespace

IncrementalSta::IncrementalSta(const NSigmaCellModel& model,
                               const TechParams& tech, StaConfig config)
    : model_(model),
      tech_(tech),
      config_(config),
      engine_(model, tech, config) {}

const StaEngine::Result& IncrementalSta::bind(const GateNetlist& netlist,
                                              const ParasiticDb& parasitics) {
  netlist_ = &netlist;
  parasitics_ = &parasitics;
  pending_parasitics_.clear();
  diags_.clear();
  return full_rerun();
}

const StaEngine::Result& IncrementalSta::full_rerun() {
  graph_.emplace(FlatTimingGraph::compile(*netlist_, config_.exec));
  result_ = engine_.run(*graph_, *netlist_, *parasitics_, &rec_);
  synced_gen_ = netlist_->generation();
  pending_parasitics_.clear();
  po_cache_ = netlist_->primary_outputs();
  stats_.full_rerun = true;
  return result_;
}

const StaEngine::Result& IncrementalSta::fallback(const std::string& why) {
  Diagnostic d;
  d.severity = Severity::kWarn;
  d.rule = "incremental.fallback";
  d.object = "netlist:" + netlist_->name();
  d.message = why + "; degraded to a full engine run";
  d.hint = "the result is still exact, only the per-edit cost saving is lost";
  diags_.push_back(std::move(d));
  return full_rerun();
}

void IncrementalSta::invalidate_parasitics(int net) {
  if (!netlist_) {
    throw std::logic_error("IncrementalSta: invalidate before bind");
  }
  if (net < 0 || net >= static_cast<int>(netlist_->num_nets())) {
    throw std::out_of_range("IncrementalSta: bad net in invalidate");
  }
  pending_parasitics_.insert(net);
}

bool IncrementalSta::in_sync() const {
  return netlist_ && synced_gen_ == netlist_->generation() &&
         pending_parasitics_.empty();
}

const StaEngine::Result& IncrementalSta::update() {
  if (!netlist_) throw std::logic_error("IncrementalSta: update before bind");
  stats_ = UpdateStats{};
  diags_.clear();
  const std::uint64_t gen = netlist_->generation();
  if (gen == synced_gen_ && pending_parasitics_.empty()) return result_;

  // A generation behind our sync point (the netlist object was replaced
  // wholesale) or a journal trimmed past it leaves nothing to replay.
  const auto& journal = netlist_->edit_journal();
  if (gen < synced_gen_) {
    return fallback("netlist generation moved backwards (wholesale netlist "
                    "replacement)");
  }
  if (synced_gen_ < netlist_->journal_begin()) {
    return fallback("edit journal trimmed past the sync point");
  }
  const std::size_t first =
      static_cast<std::size_t>(synced_gen_ - netlist_->journal_begin());

  std::set<int> reannotate(pending_parasitics_.begin(),
                           pending_parasitics_.end());
  std::set<int> dirty_cells;
  std::set<int> moved_nets;  // out-net move endpoints (final-state triage)
  bool po_set_changed = false;
  stats_.edits = journal.size() - first;
  for (std::size_t i = first; i < journal.size(); ++i) {
    const NetlistEdit& e = journal[i];
    switch (e.kind) {
      case NetlistEdit::Kind::kAddPrimaryInput:
      case NetlistEdit::Kind::kAddNet:
      case NetlistEdit::Kind::kAddCell:
        // Structural growth resizes every per-net array.
        return fallback("structural growth in the edit journal");
      case NetlistEdit::Kind::kRawOutNetRebind:
        // Raw surgery voids the one-driver invariant the cone walk
        // relies on.
        return fallback("raw output-net surgery in the edit journal");
      case NetlistEdit::Kind::kMarkPrimaryOutput:
        po_set_changed = true;
        break;
      case NetlistEdit::Kind::kSetCellType:
        // New pin caps load every fanin net; the cell's own tables change.
        for (int f : netlist_->cell(e.cell).fanin_nets) {
          if (f >= 0) reannotate.insert(f);
        }
        dirty_cells.insert(e.cell);
        break;
      case NetlistEdit::Kind::kRewireFanin:
        if (e.old_net >= 0) reannotate.insert(e.old_net);
        if (e.new_net >= 0) reannotate.insert(e.new_net);
        dirty_cells.insert(e.cell);
        break;
      case NetlistEdit::Kind::kSetCellOutNet:
        if (e.old_net >= 0) moved_nets.insert(e.old_net);
        if (e.new_net >= 0) moved_nets.insert(e.new_net);
        dirty_cells.insert(e.cell);
        break;
    }
  }

  // Cone-local level repair happened inside the netlist; this is cheap.
  const auto& lev = netlist_->levelization();

  // dirty_cells holds exactly the edited cells so far: re-read each into
  // the kept graph and rebind its charlib handles.
  using Id = FlatTimingGraph::Id;
  for (int c : dirty_cells) {
    graph_->refresh_cell(*netlist_, static_cast<Id>(c));
    const Id pos = graph_->position_of_cell(static_cast<Id>(c));
    const auto h =
        flat_kernel::resolve_arc_models(model_, *graph_->cell_type(pos));
    for (Id arc = graph_->fanin_begin(pos); arc < graph_->fanin_end(pos);
         ++arc) {
      rec_.arc_model[0][arc] = h[0];
      rec_.arc_model[1][arc] = h[1];
    }
  }

  // Re-annotate dirty nets from their current sinks and rebind those
  // sinks' wire records (independent slots and arcs per net).
  if (!reannotate.empty()) {
    const std::vector<int> nets(reannotate.begin(), reannotate.end());
    config_.exec.parallel_for_autotuned(nets.size(), [&](std::size_t i) {
      flat_kernel::flat_reannotate_net(*graph_, *netlist_, *parasitics_,
                                       tech_,
                                       static_cast<std::size_t>(nets[i]),
                                       result_, rec_);
    });
    stats_.nets_reannotated = nets.size();
    // A re-annotated net changes the load its driver sees and the RC tree
    // every sink reads its wire delay from: both sides re-propagate.
    for (int n : nets) {
      const Net& net = netlist_->net(n);
      if (net.driver_cell >= 0) dirty_cells.insert(net.driver_cell);
      for (const auto& s : net.sinks) dirty_cells.insert(s.cell);
    }
  }

  // Out-net moves, judged against the final netlist state: a moved net
  // that ended up with a driver re-propagates through it; one that ended
  // up undriven must return to the default (unreachable) state a full run
  // would leave, waking its sinks.
  for (int n : moved_nets) {
    const Net& net = netlist_->net(n);
    if (net.driver_cell >= 0) {
      dirty_cells.insert(net.driver_cell);
    } else {
      result_.nets[static_cast<std::size_t>(n)] = StaEngine::NetTime{};
      for (const auto& s : net.sinks) dirty_cells.insert(s.cell);
    }
  }

  // Cone worklist, ordered by (level, cell). All cells of one level are
  // mutually independent, so each level front fans out over the pool;
  // convergence checks and new insertions stay serial and index-ordered,
  // keeping the traversal deterministic (results are bit-identical at any
  // thread count regardless — per-cell propagation is pure).
  std::set<std::pair<int, int>> worklist;
  for (int c : dirty_cells) {
    worklist.emplace(lev.cell_level[static_cast<std::size_t>(c)], c);
  }
  std::vector<int> batch;
  std::vector<StaEngine::NetTime> before;
  while (!worklist.empty()) {
    const int level = worklist.begin()->first;
    batch.clear();
    before.clear();
    auto it = worklist.begin();
    while (it != worklist.end() && it->first == level) {
      batch.push_back(it->second);
      it = worklist.erase(it);
    }
    for (int c : batch) {
      before.push_back(
          result_.nets[static_cast<std::size_t>(netlist_->cell(c).out_net)]);
    }
    config_.exec.parallel_for_autotuned(batch.size(), [&](std::size_t i) {
      flat_kernel::flat_propagate_cell(
          *graph_, rec_, model_,
          graph_->position_of_cell(static_cast<Id>(batch[i])), result_);
    });
    stats_.cells_recomputed += batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const int out = netlist_->cell(batch[i]).out_net;
      if (net_time_equal(before[i],
                         result_.nets[static_cast<std::size_t>(out)])) {
        ++stats_.cells_converged;  // dominance cut: wave stops here
        continue;
      }
      for (const auto& s : netlist_->net(out).sinks) {
        worklist.emplace(lev.cell_level[static_cast<std::size_t>(s.cell)],
                         s.cell);
      }
    }
  }

  // Endpoint selection over the cached PO list: primary_outputs()
  // rescans every net once per generation, i.e. once per edit.
  if (po_set_changed) po_cache_ = netlist_->primary_outputs();
  sta_kernel::select_critical(po_cache_, netlist_->name(), result_);

  synced_gen_ = gen;
  pending_parasitics_.clear();
  return result_;
}

}  // namespace nsdc
