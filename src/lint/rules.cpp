// Built-in lint rules, three layers (see lint.hpp). Every rule is a pure
// function of the const LintInput/LintPrep, emits Diagnostics into its own
// vector, and must be deterministic — the engine fans rules out over the
// thread pool and promises bit-identical reports at any thread count.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "sta/annotate.hpp"

namespace nsdc {
namespace {

std::string cell_obj(const GateNetlist& nl, int c) {
  return "cell:" + nl.cell(c).name;
}

std::string net_obj(const GateNetlist& nl, int n) {
  return "net:" + nl.net(n).name;
}

std::string fmt_ps(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f ps", seconds * 1e12);
  return buf;
}

std::string fmt_ff(double farads) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f fF", farads * 1e15);
  return buf;
}

// ---------------------------------------------------------------- structural

void rule_unconnected_pin(const LintInput& in, const LintPrep&,
                          const LintOptions&, std::vector<Diagnostic>& out) {
  const GateNetlist& nl = *in.netlist;
  const int num_nets = static_cast<int>(nl.num_nets());
  for (int c = 0; c < static_cast<int>(nl.num_cells()); ++c) {
    const CellInst& inst = nl.cell(c);
    for (std::size_t pin = 0; pin < inst.fanin_nets.size(); ++pin) {
      const int f = inst.fanin_nets[pin];
      if (f < 0 || f >= num_nets) {
        out.push_back({Severity::kError, "net.unconnected-pin",
                       cell_obj(nl, c),
                       "input pin " + std::to_string(pin) +
                           " is unconnected (net index " + std::to_string(f) +
                           ")",
                       "connect the pin with rewire_fanin or drop the cell",
                       0});
      }
    }
    if (inst.out_net < 0 || inst.out_net >= num_nets) {
      out.push_back({Severity::kError, "net.unconnected-pin", cell_obj(nl, c),
                     "output is not bound to a net (index " +
                         std::to_string(inst.out_net) + ")",
                     "", 0});
    }
  }
}

void rule_duplicate_name(const LintInput& in, const LintPrep&,
                         const LintOptions&, std::vector<Diagnostic>& out) {
  const GateNetlist& nl = *in.netlist;
  for (int n : nl.duplicate_nets()) {
    const int first = nl.find_net(nl.net(n).name);
    out.push_back({Severity::kError, "net.duplicate-name", net_obj(nl, n),
                   "net name is already held by net " +
                       std::to_string(first) +
                       "; name-based lookups (find_net, served queries) "
                       "resolve to the first net and silently shadow this "
                       "one",
                   "rename one of the nets so every name is unique", 0});
  }
}

void rule_comb_loop(const LintInput& in, const LintPrep& prep,
                    const LintOptions&, std::vector<Diagnostic>& out) {
  const GateNetlist& nl = *in.netlist;
  if (prep.acyclic) {
    // Cross-check against the cached levelization (the schedule the
    // parallel STA engine actually runs) when the graph is well-formed.
    if (prep.pins_ok) {
      try {
        (void)nl.levelization();
      } catch (const std::exception& e) {
        out.push_back({Severity::kError, "net.comb-loop",
                       "design:" + nl.name(),
                       std::string("levelization failed: ") + e.what(), "",
                       0});
      }
    }
    return;
  }
  std::string members;
  const std::size_t shown = std::min<std::size_t>(prep.cycle_cells.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i) members += ", ";
    members += nl.cell(prep.cycle_cells[i]).name;
  }
  if (prep.cycle_cells.size() > shown) {
    members += ", ... (" + std::to_string(prep.cycle_cells.size()) +
               " cells total)";
  }
  out.push_back({Severity::kError, "net.comb-loop", "design:" + nl.name(),
                 "combinational loop: " +
                     std::to_string(prep.cycle_cells.size()) +
                     " cell(s) cannot be levelized: " + members,
                 "break the feedback path; levelized STA requires a DAG", 0});
}

void rule_multi_driver(const LintInput& in, const LintPrep& prep,
                       const LintOptions&, std::vector<Diagnostic>& out) {
  const GateNetlist& nl = *in.netlist;
  const int num_nets = static_cast<int>(nl.num_nets());
  for (int n = 0; n < num_nets; ++n) {
    if (prep.driver_count[static_cast<std::size_t>(n)] <= 1) continue;
    std::string drivers;
    for (int c = 0; c < static_cast<int>(nl.num_cells()); ++c) {
      if (nl.cell(c).out_net == n) {
        if (!drivers.empty()) drivers += ", ";
        drivers += nl.cell(c).name;
      }
    }
    const auto& pis = nl.primary_inputs();
    if (std::find(pis.begin(), pis.end(), n) != pis.end()) {
      if (!drivers.empty()) drivers += ", ";
      drivers += "primary input";
    }
    out.push_back({Severity::kError, "net.multi-driver", net_obj(nl, n),
                   "net has " +
                       std::to_string(
                           prep.driver_count[static_cast<std::size_t>(n)]) +
                       " drivers: " + drivers,
                   "a net must have exactly one driver", 0});
  }
}

void rule_undriven(const LintInput& in, const LintPrep& prep,
                   const LintOptions&, std::vector<Diagnostic>& out) {
  const GateNetlist& nl = *in.netlist;
  for (int n = 0; n < static_cast<int>(nl.num_nets()); ++n) {
    if (prep.driver_count[static_cast<std::size_t>(n)] != 0) continue;
    const Net& net = nl.net(n);
    if (!net.sinks.empty() || net.is_primary_output) {
      out.push_back({Severity::kError, "net.undriven", net_obj(nl, n),
                     "net has no driver but feeds " +
                         std::to_string(net.sinks.size()) + " sink(s)" +
                         (net.is_primary_output ? " and a primary output"
                                                : ""),
                     "drive the net or remove its loads", 0});
    } else {
      out.push_back({Severity::kInfo, "net.undriven", net_obj(nl, n),
                     "dead net (no driver, no sinks)", "", 0});
    }
  }
}

void rule_dangling_output(const LintInput& in, const LintPrep& prep,
                          const LintOptions&, std::vector<Diagnostic>& out) {
  const GateNetlist& nl = *in.netlist;
  const auto& pis = nl.primary_inputs();
  for (int n = 0; n < static_cast<int>(nl.num_nets()); ++n) {
    const Net& net = nl.net(n);
    if (prep.driver_count[static_cast<std::size_t>(n)] == 0) continue;
    if (!net.sinks.empty() || net.is_primary_output) continue;
    const bool is_pi = std::find(pis.begin(), pis.end(), n) != pis.end();
    out.push_back({Severity::kWarn, "net.dangling-output", net_obj(nl, n),
                   is_pi ? "unused primary input"
                         : "cell output drives nothing (not a primary output)",
                   is_pi ? "" : "mark the net as a primary output or prune it",
                   0});
  }
}

void rule_driver_mismatch(const LintInput& in, const LintPrep&,
                          const LintOptions&, std::vector<Diagnostic>& out) {
  const GateNetlist& nl = *in.netlist;
  const int num_nets = static_cast<int>(nl.num_nets());
  const int num_cells = static_cast<int>(nl.num_cells());
  for (int c = 0; c < num_cells; ++c) {
    const int o = nl.cell(c).out_net;
    if (o < 0 || o >= num_nets) continue;  // net.unconnected-pin reports it
    if (nl.net(o).driver_cell != c) {
      out.push_back({Severity::kError, "net.driver-mismatch", cell_obj(nl, c),
                     "cell output is bound to net '" + nl.net(o).name +
                         "' whose declared driver is " +
                         (nl.net(o).driver_cell < 0
                              ? std::string("a primary input")
                              : "cell '" +
                                    nl.cell(nl.net(o).driver_cell).name + "'"),
                     "", 0});
    }
  }
  for (int n = 0; n < num_nets; ++n) {
    const int d = nl.net(n).driver_cell;
    if (d < 0) continue;
    if (d >= num_cells || nl.cell(d).out_net != n) {
      out.push_back({Severity::kError, "net.driver-mismatch", net_obj(nl, n),
                     "declared driver " +
                         (d >= num_cells ? "index " + std::to_string(d) +
                                               " is out of range"
                                         : "cell '" + nl.cell(d).name +
                                               "' no longer drives this net"),
                     "", 0});
    }
  }
}

// ----------------------------------------------------------------- parasitic

void rule_nonpositive_rc(const LintInput& in, const LintPrep&,
                         const LintOptions&, std::vector<Diagnostic>& out) {
  if (in.parasitics == nullptr) return;
  for (const auto& [name, tree] : in.parasitics->all()) {
    for (int n = 1; n < tree.num_nodes(); ++n) {
      const double r = tree.edge_res(n);
      const double c = tree.node_cap(n);
      if (r < 0.0 || c < 0.0) {
        out.push_back({Severity::kError, "spef.nonpositive-rc", "net:" + name,
                       "node " + std::to_string(n) + " has negative " +
                           (r < 0.0 ? "resistance" : "capacitance"),
                       "parasitic values must be physical (>= 0)", 0});
      } else if (r == 0.0) {
        out.push_back({Severity::kWarn, "spef.nonpositive-rc", "net:" + name,
                       "node " + std::to_string(n) +
                           " hangs on a zero-resistance edge",
                       "zero R makes the Elmore term degenerate; merge the "
                       "node with its parent",
                       0});
      }
    }
    if (!tree.sinks().empty() && tree.total_cap() <= 0.0) {
      out.push_back({Severity::kWarn, "spef.nonpositive-rc", "net:" + name,
                     "RC tree carries no capacitance", "", 0});
    }
  }
}

void rule_disconnected_node(const LintInput& in, const LintPrep&,
                            const LintOptions&, std::vector<Diagnostic>& out) {
  if (in.parasitics == nullptr) return;
  for (const auto& [name, tree] : in.parasitics->all()) {
    for (int n = 1; n < tree.num_nodes(); ++n) {
      const int p = tree.parent(n);
      if (p < 0 || p >= n) {
        out.push_back({Severity::kError, "spef.disconnected-node",
                       "net:" + name,
                       "node " + std::to_string(n) +
                           " is not connected toward the root (parent " +
                           std::to_string(p) + ")",
                       "", 0});
      }
    }
    std::set<std::string> seen;
    for (const auto& s : tree.sinks()) {
      if (s.node <= 0 || s.node >= tree.num_nodes()) {
        out.push_back({Severity::kError, "spef.disconnected-node",
                       "net:" + name,
                       "sink pin '" + s.pin + "' marks invalid node " +
                           std::to_string(s.node),
                       "", 0});
      }
      if (!seen.insert(s.pin).second) {
        out.push_back({Severity::kError, "spef.disconnected-node",
                       "net:" + name,
                       "sink pin '" + s.pin + "' is marked more than once",
                       "", 0});
      }
    }
  }
}

void rule_net_mismatch(const LintInput& in, const LintPrep&,
                       const LintOptions&, std::vector<Diagnostic>& out) {
  if (in.parasitics == nullptr) return;
  const GateNetlist& nl = *in.netlist;
  std::set<std::string> netlist_names;
  for (int n = 0; n < static_cast<int>(nl.num_nets()); ++n) {
    netlist_names.insert(nl.net(n).name);
  }
  for (const auto& [name, tree] : in.parasitics->all()) {
    (void)tree;
    if (netlist_names.find(name) == netlist_names.end()) {
      out.push_back({Severity::kWarn, "spef.net-mismatch", "net:" + name,
                     "parasitics annotate a net that does not exist in the "
                     "netlist",
                     "check SPEF <-> netlist name mapping", 0});
    }
  }
  for (int n = 0; n < static_cast<int>(nl.num_nets()); ++n) {
    const Net& net = nl.net(n);
    if (net.sinks.empty() && !net.is_primary_output) continue;
    if (!in.parasitics->contains(net.name)) {
      out.push_back({Severity::kWarn, "spef.net-mismatch", net_obj(nl, n),
                     "net has no parasitics; STA falls back to lumped pin "
                     "capacitance",
                     "", 0});
      continue;
    }
    const RcTree& tree = in.parasitics->net(net.name);
    std::set<std::string> tree_pins;
    for (const auto& s : tree.sinks()) tree_pins.insert(s.pin);
    for (const auto& sink : net.sinks) {
      const std::string pin = sink_pin_name(nl.cell(sink.cell), sink.pin);
      if (tree_pins.erase(pin) == 0) {
        out.push_back({Severity::kError, "spef.net-mismatch", net_obj(nl, n),
                       "receiver pin '" + pin + "' is missing from the RC "
                       "tree sinks",
                       "re-extract the net; STA cannot map the pin", 0});
      }
    }
    if (net.is_primary_output) tree_pins.erase("PO");
    for (const auto& stale : tree_pins) {
      out.push_back({Severity::kWarn, "spef.net-mismatch", net_obj(nl, n),
                     "RC tree sink '" + stale +
                         "' matches no receiver pin of the net",
                     "", 0});
    }
  }
}

// -------------------------------------------------------------------- domain

void rule_uncharacterized_cell(const LintInput& in, const LintPrep&,
                               const LintOptions&,
                               std::vector<Diagnostic>& out) {
  if (in.charlib == nullptr) return;
  const GateNetlist& nl = *in.netlist;
  std::set<std::string> seen;
  for (const auto& inst : nl.cells()) {
    const std::string& type = inst.type->name();
    if (!seen.insert(type).second) continue;
    const bool rise = in.charlib->has_arc(type, 0, true);
    const bool fall = in.charlib->has_arc(type, 0, false);
    if (!rise || !fall) {
      out.push_back({Severity::kError, "lib.uncharacterized-cell",
                     "celltype:" + type,
                     std::string("cell type is not characterized (") +
                         (rise ? "" : "rising ") + (fall ? "" : "falling ") +
                         "arc missing)",
                     "characterize the cell or remap the design onto the "
                     "characterized subset",
                     0});
    }
  }
}

void rule_nonmonotone_quantiles(const LintInput& in, const LintPrep&,
                                const LintOptions&,
                                std::vector<Diagnostic>& out) {
  if (in.charlib == nullptr) return;
  for (const auto& arc : in.charlib->arcs()) {
    int bad = 0;
    std::string first;
    for (std::size_t is = 0; is < arc.slews.size(); ++is) {
      for (std::size_t il = 0; il < arc.loads.size(); ++il) {
        const auto& q = arc.at(is, il).quantiles;
        for (std::size_t lv = 1; lv < q.size(); ++lv) {
          if (q[lv] + 1e-15 < q[lv - 1]) {
            ++bad;
            if (first.empty()) {
              first = "slew " + fmt_ps(arc.slews[is]) + ", load " +
                      fmt_ff(arc.loads[il]) + ", level " +
                      std::to_string(static_cast<int>(lv) - 3);
            }
            break;
          }
        }
      }
    }
    if (bad > 0) {
      out.push_back({Severity::kWarn, "lib.nonmonotone-quantiles",
                     "arc:" + arc.key(),
                     std::to_string(bad) +
                         " grid condition(s) have non-monotone sigma "
                         "quantiles (first: " +
                         first + ")",
                     "re-characterize with more samples; the quantile table "
                     "should grow with the sigma level",
                     0});
    }
  }
}

void rule_calib_divergence(const LintInput& in, const LintPrep&,
                           const LintOptions& opt,
                           std::vector<Diagnostic>& out) {
  if (in.charlib == nullptr) return;
  for (const auto& arc : in.charlib->arcs()) {
    if (arc.grid.empty()) continue;
    const CalibrationSurface surf = CalibrationSurface::fit(arc);
    // Residuals are normalized by the leave-one-out span of the measured
    // grid: a single corrupted point must not inflate its own denominator
    // and mask itself.
    auto loo_span = [&](std::size_t skip, bool gamma) {
      double lo = 0.0, hi = 0.0;
      bool init = false;
      for (std::size_t i = 0; i < arc.grid.size(); ++i) {
        if (i == skip && arc.grid.size() > 1) continue;
        const Moments& m = arc.grid[i].moments;
        const double v = gamma ? m.gamma : m.kappa;
        if (!init) {
          lo = hi = v;
          init = true;
        }
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      return std::max(hi - lo, 1e-6);
    };
    double worst = 0.0;
    std::string worst_at;
    for (std::size_t is = 0; is < arc.slews.size(); ++is) {
      for (std::size_t il = 0; il < arc.loads.size(); ++il) {
        const std::size_t flat = is * arc.loads.size() + il;
        const Moments meas = arc.at(is, il).moments;
        const Moments pred = surf.moments_at(arc.slews[is], arc.loads[il]);
        const double rel = std::max(
            std::abs(pred.gamma - meas.gamma) / loo_span(flat, true),
            std::abs(pred.kappa - meas.kappa) / loo_span(flat, false));
        if (rel > worst) {
          worst = rel;
          worst_at = "slew " + fmt_ps(arc.slews[is]) + ", load " +
                     fmt_ff(arc.loads[il]);
        }
      }
    }
    if (worst > opt.calib_rel_tol) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.0f%%", worst * 100.0);
      out.push_back({Severity::kWarn, "lib.calib-divergence",
                     "arc:" + arc.key(),
                     "Eq. 3 cubic gamma/kappa surface misses the measured "
                     "grid by " +
                         std::string(buf) + " of the grid range (worst at " +
                         worst_at + ")",
                     "the arc's skew/kurtosis is not cubic in (dS, dC) over "
                     "this grid; shrink the grid or re-characterize",
                     0});
    }
  }
}

/// Characterized [min, max] load range of a cell type (union of rise/fall
/// arcs); false when the cell has no arcs.
bool load_range(const CharLib& lib, const std::string& type, double* lo,
                double* hi) {
  bool any = false;
  for (bool rising : {true, false}) {
    if (!lib.has_arc(type, 0, rising)) continue;
    const auto& arc = lib.arc(type, 0, rising);
    if (arc.loads.empty()) continue;
    const auto [mn, mx] = std::minmax_element(arc.loads.begin(),
                                              arc.loads.end());
    *lo = any ? std::min(*lo, *mn) : *mn;
    *hi = any ? std::max(*hi, *mx) : *mx;
    any = true;
  }
  return any;
}

bool slew_range(const CharLib& lib, const std::string& type, double* lo,
                double* hi) {
  bool any = false;
  for (bool rising : {true, false}) {
    if (!lib.has_arc(type, 0, rising)) continue;
    const auto& arc = lib.arc(type, 0, rising);
    if (arc.slews.empty()) continue;
    const auto [mn, mx] = std::minmax_element(arc.slews.begin(),
                                              arc.slews.end());
    *lo = any ? std::min(*lo, *mn) : *mn;
    *hi = any ? std::max(*hi, *mx) : *mx;
    any = true;
  }
  return any;
}

void rule_load_domain(const LintInput& in, const LintPrep& prep,
                      const LintOptions& opt, std::vector<Diagnostic>& out) {
  if (in.charlib == nullptr || in.tech == nullptr) return;
  if (!prep.pins_ok) return;
  const GateNetlist& nl = *in.netlist;
  for (int c = 0; c < static_cast<int>(nl.num_cells()); ++c) {
    const CellInst& inst = nl.cell(c);
    double lo = 0.0, hi = 0.0;
    if (!load_range(*in.charlib, inst.type->name(), &lo, &hi)) continue;
    double load = 0.0;
    if (prep.sta != nullptr) {
      load = prep.sta->net_load[static_cast<std::size_t>(inst.out_net)];
    } else if (in.parasitics != nullptr &&
               in.parasitics->contains(nl.net(inst.out_net).name)) {
      load = in.parasitics->net(nl.net(inst.out_net).name).total_cap() +
             nl.net_pin_cap(inst.out_net, *in.tech);
    } else {
      load = nl.net_pin_cap(inst.out_net, *in.tech);
    }
    const double margin = opt.domain_margin * (hi - lo);
    if (load > hi + margin || (load > 0.0 && load < lo - margin)) {
      out.push_back({Severity::kWarn, "sta.load-domain", cell_obj(nl, c),
                     "output load " + fmt_ff(load) +
                         " is outside the characterized grid [" + fmt_ff(lo) +
                         ", " + fmt_ff(hi) + "] of " + inst.type->name() +
                         "; Eq. 2-3 calibration clamps (extrapolates)",
                     "upsize the driver, buffer the net, or extend the "
                     "characterization load grid",
                     0});
    }
  }
}

void rule_slew_domain(const LintInput& in, const LintPrep& prep,
                      const LintOptions& opt, std::vector<Diagnostic>& out) {
  if (in.charlib == nullptr || prep.sta == nullptr) return;
  const GateNetlist& nl = *in.netlist;
  for (int c = 0; c < static_cast<int>(nl.num_cells()); ++c) {
    const CellInst& inst = nl.cell(c);
    double lo = 0.0, hi = 0.0;
    if (!slew_range(*in.charlib, inst.type->name(), &lo, &hi)) continue;
    const double margin = opt.domain_margin * (hi - lo);
    double worst = 0.0;
    int worst_pin = -1;
    for (std::size_t pin = 0; pin < inst.fanin_nets.size(); ++pin) {
      const auto fan = static_cast<std::size_t>(inst.fanin_nets[pin]);
      const auto& nt = prep.sta->nets[fan];
      if (!nt.reachable) continue;
      for (double slew : nt.slew) {
        const double excess =
            std::max(slew - (hi + margin), (lo - margin) - slew);
        if (excess > worst) {
          worst = excess;
          worst_pin = static_cast<int>(pin);
        }
      }
    }
    if (worst_pin >= 0) {
      const auto fan =
          static_cast<std::size_t>(inst.fanin_nets[static_cast<std::size_t>(
              worst_pin)]);
      const auto& nt = prep.sta->nets[fan];
      const double slew = std::max(nt.slew[0], nt.slew[1]);
      out.push_back({Severity::kWarn, "sta.slew-domain", cell_obj(nl, c),
                     "input slew " + fmt_ps(slew) + " at pin " +
                         std::to_string(worst_pin) +
                         " is outside the characterized grid [" + fmt_ps(lo) +
                         ", " + fmt_ps(hi) + "] of " + inst.type->name() +
                         "; Eq. 2-3 calibration clamps (extrapolates)",
                     "strengthen the upstream driver or extend the "
                     "characterization slew grid",
                     0});
    }
  }
}

void rule_fanout_basis(const LintInput& in, const LintPrep&,
                       const LintOptions& opt, std::vector<Diagnostic>& out) {
  const GateNetlist& nl = *in.netlist;
  for (int n = 0; n < static_cast<int>(nl.num_nets()); ++n) {
    const Net& net = nl.net(n);
    const int fanout = static_cast<int>(net.sinks.size());
    if (fanout <= opt.fanout_basis) continue;
    out.push_back({Severity::kWarn, "net.fanout-basis", net_obj(nl, n),
                   "fanout " + std::to_string(fanout) + " exceeds the " +
                       std::to_string(opt.fanout_basis) +
                       "-sink basis of the Pelgrom/FO4-normalized wire "
                       "model (Eq. 5)",
                   "run insert_buffers() to split the sink set", 0});
  }
}

}  // namespace

void register_builtins(LintRegistry& registry) {
  auto add = [&](const char* id, const char* layer, const char* desc,
                 auto fn) {
    registry.add({id, layer, desc, fn});
  };
  // Structural: graph well-formedness for the levelized engine.
  add("net.unconnected-pin", "structural",
      "every cell pin must be bound to a net", rule_unconnected_pin);
  add("net.comb-loop", "structural",
      "the netlist must levelize (no combinational loops)", rule_comb_loop);
  add("net.duplicate-name", "structural",
      "net names must be unique (find_net is first-wins on duplicates)",
      rule_duplicate_name);
  add("net.multi-driver", "structural", "every net has at most one driver",
      rule_multi_driver);
  add("net.undriven", "structural",
      "nets with sinks or PO markers must have a driver", rule_undriven);
  add("net.dangling-output", "structural",
      "driven nets should feed a sink or a primary output",
      rule_dangling_output);
  add("net.driver-mismatch", "structural",
      "declared net drivers must match cell output bindings",
      rule_driver_mismatch);
  // Parasitic: RC-tree sanity and SPEF <-> netlist cross-checks.
  add("spef.nonpositive-rc", "parasitic",
      "RC elements must be physical (no negative/zero R, negative C)",
      rule_nonpositive_rc);
  add("spef.disconnected-node", "parasitic",
      "RC-tree nodes and sinks must connect toward the root",
      rule_disconnected_node);
  add("spef.net-mismatch", "parasitic",
      "parasitics and netlist must agree on nets and receiver pins",
      rule_net_mismatch);
  // Model domain: operating conditions vs. the characterized grid.
  add("lib.uncharacterized-cell", "domain",
      "every instantiated cell type needs characterized arcs",
      rule_uncharacterized_cell);
  add("lib.nonmonotone-quantiles", "domain",
      "sigma-level quantile tables must be monotone",
      rule_nonmonotone_quantiles);
  add("lib.calib-divergence", "domain",
      "the Eq. 3 cubic must reproduce the characterized gamma/kappa grid",
      rule_calib_divergence);
  add("sta.load-domain", "domain",
      "output loads must stay inside the characterization load grid",
      rule_load_domain);
  add("sta.slew-domain", "domain",
      "propagated slews must stay inside the characterization slew grid",
      rule_slew_domain);
  add("net.fanout-basis", "domain",
      "net fanout must stay within the Pelgrom/FO4 wire-model basis",
      rule_fanout_basis);
}

}  // namespace nsdc
