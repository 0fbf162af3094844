// Shared-fact computation (structure, coverage) and the built-in passes
// that translate those facts into Diagnostics. Facts are computed once in
// run_analysis (AnalysisPrep) and read-only during the pass fan-out, so
// reports are deterministic at any thread count.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "analysis/analysis.hpp"
#include "util/units.hpp"

namespace nsdc {

using analysis::Interval;

namespace {

std::string net_obj(const GateNetlist& nl, int n) {
  return "net:" + nl.net(n).name;
}

std::string cell_obj(const GateNetlist& nl, int c) {
  return "cell:" + nl.cell(c).name;
}

/// First few cell names of a cone/SCC, for human-readable diagnostics.
std::string name_sample(const GateNetlist& nl, const std::vector<int>& cells,
                        std::size_t max_names = 6) {
  std::string out;
  for (std::size_t i = 0; i < cells.size() && i < max_names; ++i) {
    if (i > 0) out += ", ";
    out += nl.cell(cells[i]).name;
  }
  if (cells.size() > max_names) out += ", ...";
  return out;
}

std::string fmt_ps(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", to_ps(seconds));
  return buf;
}

std::string fmt_ff(double farads) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", to_ff(farads));
  return buf;
}

/// Iterative Tarjan SCC over the cell graph (edges: a cell to the sink
/// cells of its output net). Iterative because generated designs nest
/// thousands of levels deep. Returns nontrivial SCCs (size > 1, or a
/// self-loop), members ascending, list ascending by smallest member.
std::vector<std::vector<int>> tarjan_cycles(const GateNetlist& nl) {
  const int num_cells = static_cast<int>(nl.num_cells());
  const int num_nets = static_cast<int>(nl.num_nets());
  std::vector<int> index(static_cast<std::size_t>(num_cells), -1);
  std::vector<int> low(static_cast<std::size_t>(num_cells), 0);
  std::vector<char> on_stack(static_cast<std::size_t>(num_cells), 0);
  std::vector<int> stack;
  std::vector<std::vector<int>> sccs;
  int next_index = 0;

  const auto successors = [&](int c) -> const std::vector<NetSink>* {
    const int out = nl.cell(c).out_net;
    if (out < 0 || out >= num_nets) return nullptr;
    return &nl.net(out).sinks;
  };

  struct Frame {
    int cell;
    std::size_t next_succ;
  };
  std::vector<Frame> frames;
  for (int root = 0; root < num_cells; ++root) {
    if (index[static_cast<std::size_t>(root)] >= 0) continue;
    frames.push_back({root, 0});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto c = static_cast<std::size_t>(f.cell);
      if (f.next_succ == 0) {
        index[c] = low[c] = next_index++;
        stack.push_back(f.cell);
        on_stack[c] = 1;
      }
      const std::vector<NetSink>* succ = successors(f.cell);
      bool descended = false;
      while (succ != nullptr && f.next_succ < succ->size()) {
        const int s = (*succ)[f.next_succ++].cell;
        if (s < 0 || s >= num_cells) continue;
        const auto su = static_cast<std::size_t>(s);
        if (index[su] < 0) {
          frames.push_back({s, 0});
          descended = true;
          break;
        }
        if (on_stack[su] != 0) low[c] = std::min(low[c], index[su]);
      }
      if (descended) continue;
      if (low[c] == index[c]) {
        std::vector<int> scc;
        int member = -1;
        do {
          member = stack.back();
          stack.pop_back();
          on_stack[static_cast<std::size_t>(member)] = 0;
          scc.push_back(member);
        } while (member != f.cell);
        bool self_loop = false;
        if (scc.size() == 1) {
          const std::vector<NetSink>* ss = successors(scc[0]);
          if (ss != nullptr) {
            for (const auto& sink : *ss) self_loop |= sink.cell == scc[0];
          }
        }
        if (scc.size() > 1 || self_loop) {
          std::sort(scc.begin(), scc.end());
          sccs.push_back(std::move(scc));
        }
      }
      frames.pop_back();
      if (!frames.empty()) {
        Frame& parent = frames.back();
        const auto p = static_cast<std::size_t>(parent.cell);
        low[p] = std::min(low[p], low[c]);
      }
    }
  }
  std::sort(sccs.begin(), sccs.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  return sccs;
}

}  // namespace

StructureFacts compute_structure(const GateNetlist& nl) {
  StructureFacts f;
  const int num_cells = static_cast<int>(nl.num_cells());
  const int num_nets = static_cast<int>(nl.num_nets());

  f.pins_ok = true;
  for (const auto& inst : nl.cells()) {
    if (inst.out_net < 0 || inst.out_net >= num_nets) f.pins_ok = false;
    for (int fan : inst.fanin_nets) {
      if (fan < 0 || fan >= num_nets) f.pins_ok = false;
    }
  }

  f.cycles = tarjan_cycles(nl);
  f.acyclic = f.cycles.empty();

  std::vector<char> is_pi(static_cast<std::size_t>(num_nets), 0);
  for (int pi : nl.primary_inputs()) {
    if (pi >= 0 && pi < num_nets) is_pi[static_cast<std::size_t>(pi)] = 1;
  }
  for (int n = 0; n < num_nets; ++n) {
    const Net& net = nl.net(n);
    if (net.driver_cell < 0 && is_pi[static_cast<std::size_t>(n)] == 0 &&
        (!net.sinks.empty() || net.is_primary_output)) {
      f.undriven_nets.push_back(n);
    }
  }

  // Forward reachability (the STA notion: a cell propagates as soon as ONE
  // fanin is reachable). Monotone worklist, so cycles are handled too.
  std::vector<char> net_reach(static_cast<std::size_t>(num_nets), 0);
  std::vector<char> cell_reach(static_cast<std::size_t>(num_cells), 0);
  std::vector<int> work;
  for (int pi : nl.primary_inputs()) {
    if (pi >= 0 && pi < num_nets && net_reach[static_cast<std::size_t>(pi)] == 0) {
      net_reach[static_cast<std::size_t>(pi)] = 1;
      work.push_back(pi);
    }
  }
  for (std::size_t head = 0; head < work.size(); ++head) {
    const int n = work[head];
    for (const auto& sink : nl.net(n).sinks) {
      if (sink.cell < 0 || sink.cell >= num_cells) continue;
      const auto c = static_cast<std::size_t>(sink.cell);
      if (cell_reach[c] != 0) continue;
      cell_reach[c] = 1;
      const int out = nl.cell(sink.cell).out_net;
      if (out >= 0 && out < num_nets &&
          net_reach[static_cast<std::size_t>(out)] == 0) {
        net_reach[static_cast<std::size_t>(out)] = 1;
        work.push_back(out);
      }
    }
  }
  for (int c = 0; c < num_cells; ++c) {
    if (cell_reach[static_cast<std::size_t>(c)] == 0) {
      f.undriven_cone_cells.push_back(c);
    }
  }

  // Reverse reachability from the primary outputs (dangling cones).
  std::vector<char> useful_net(static_cast<std::size_t>(num_nets), 0);
  std::vector<char> useful_cell(static_cast<std::size_t>(num_cells), 0);
  std::vector<int> rwork;
  for (int po : nl.primary_outputs()) {
    if (po >= 0 && po < num_nets && useful_net[static_cast<std::size_t>(po)] == 0) {
      useful_net[static_cast<std::size_t>(po)] = 1;
      rwork.push_back(po);
    }
  }
  for (std::size_t head = 0; head < rwork.size(); ++head) {
    const int n = rwork[head];
    const int drv = nl.net(n).driver_cell;
    if (drv < 0 || drv >= num_cells) continue;
    const auto d = static_cast<std::size_t>(drv);
    if (useful_cell[d] != 0) continue;
    useful_cell[d] = 1;
    for (int fan : nl.cell(drv).fanin_nets) {
      if (fan >= 0 && fan < num_nets &&
          useful_net[static_cast<std::size_t>(fan)] == 0) {
        useful_net[static_cast<std::size_t>(fan)] = 1;
        rwork.push_back(fan);
      }
    }
  }
  for (int c = 0; c < num_cells; ++c) {
    if (useful_cell[static_cast<std::size_t>(c)] == 0) {
      f.dangling_cells.push_back(c);
    }
  }

  for (int po : nl.primary_outputs()) {
    if (po >= 0 && po < num_nets && net_reach[static_cast<std::size_t>(po)] == 0) {
      f.unreachable_pos.push_back(po);
    }
  }
  std::sort(f.unreachable_pos.begin(), f.unreachable_pos.end());

  // Levelization-cache cross-check: the invariants propagation relies on,
  // verified against the netlist's cached structure rather than recomputed
  // policy (any valid leveling must satisfy them): every cell appears
  // exactly once, at its recorded level, and strictly above every driven
  // fanin's level.
  if (f.pins_ok && f.acyclic) {
    try {
      const auto& lev = nl.levelization();
      f.levels = lev.levels.size();
      std::vector<int> seen(static_cast<std::size_t>(num_cells), 0);
      for (std::size_t l = 0; l < lev.levels.size() && f.levelization_ok;
           ++l) {
        for (int c : lev.levels[l]) {
          if (c < 0 || c >= num_cells ||
              lev.cell_level[static_cast<std::size_t>(c)] !=
                  static_cast<int>(l)) {
            f.levelization_ok = false;
            f.levelization_note = "level bucket disagrees with cell_level";
            break;
          }
          ++seen[static_cast<std::size_t>(c)];
        }
      }
      for (int c = 0; c < num_cells && f.levelization_ok; ++c) {
        if (seen[static_cast<std::size_t>(c)] != 1) {
          f.levelization_ok = false;
          f.levelization_note =
              "cell " + nl.cell(c).name + " appears " +
              std::to_string(seen[static_cast<std::size_t>(c)]) +
              " time(s) in the level buckets";
        }
      }
      for (int c = 0; c < num_cells && f.levelization_ok; ++c) {
        for (int fan : nl.cell(c).fanin_nets) {
          if (fan < 0 || fan >= num_nets) continue;
          const int drv = nl.net(fan).driver_cell;
          if (drv < 0) continue;
          if (lev.cell_level[static_cast<std::size_t>(drv)] >=
              lev.cell_level[static_cast<std::size_t>(c)]) {
            f.levelization_ok = false;
            f.levelization_note = "cell " + nl.cell(c).name +
                                  " not strictly above fanin driver " +
                                  nl.cell(drv).name;
            break;
          }
        }
      }
    } catch (const std::exception& e) {
      f.levelization_ok = false;
      f.levelization_note = std::string("levelization threw: ") + e.what();
    }
  }
  return f;
}

CoverageFacts compute_coverage(const AnalysisInput& input,
                               const AnalysisOptions& options,
                               const StaEngine::Result& annotated,
                               const IntervalResult& intervals) {
  CoverageFacts facts;
  if (input.cell_model == nullptr) return facts;
  facts.ran = true;
  const GateNetlist& nl = *input.netlist;
  std::map<std::string, CoverageRow> rows;

  // Axis classification: 2 = the static operating box leaves the
  // characterized domain (table extrapolation — the break-point hazard
  // realized), 1 = inside but within epsilon of a boundary (an engine
  // query may straddle the outermost table cell's kink), 0 = interior.
  const auto classify = [&](const Interval& iv, double lo, double hi) {
    if (iv.lo < lo || iv.hi > hi) return 2;
    const double eps = options.domain_epsilon * (hi - lo);
    if (iv.lo < lo + eps || iv.hi > hi - eps) return 1;
    return 0;
  };

  const int num_cells = static_cast<int>(nl.num_cells());
  for (int c = 0; c < num_cells; ++c) {
    const CellInst& inst = nl.cell(c);
    if (inst.out_net < 0) continue;
    const auto outn = static_cast<std::size_t>(inst.out_net);
    const double load = annotated.net_load[outn];
    const bool inverting = inst.type->inverting();
    CoverageRow& row = rows[inst.type->name()];
    row.cell_type = inst.type->name();
    for (int edge = 0; edge < 2; ++edge) {
      const bool in_rising = inverting ? edge != 0 : edge == 0;
      const int in_edge = in_rising ? 0 : 1;
      for (std::size_t pin = 0; pin < inst.fanin_nets.size(); ++pin) {
        if (inst.fanin_nets[pin] < 0) continue;
        const auto fan = static_cast<std::size_t>(inst.fanin_nets[pin]);
        if (!intervals.nets[fan].reachable) continue;
        const CellArcModel& arc = input.cell_model->arc(
            inst.type->name(), static_cast<int>(pin), in_rising);
        const Interval slew_iv =
            intervals.nets[fan].slew[static_cast<std::size_t>(in_edge)];
        const int s_status =
            classify(slew_iv, arc.calib.s_min, arc.calib.s_max);
        const int c_status = classify(Interval::point(load), arc.calib.c_min,
                                      arc.calib.c_max);
        ++row.arcs;
        const int status = std::max(s_status, c_status);
        if (status == 2) {
          ++row.out;
        } else if (status == 1) {
          ++row.near;
        } else {
          ++row.in;
        }
        if (s_status != 0) {
          facts.findings.push_back({c, static_cast<int>(pin), edge, 0,
                                    s_status, slew_iv, arc.calib.s_min,
                                    arc.calib.s_max});
        }
        if (c_status != 0) {
          facts.findings.push_back({c, static_cast<int>(pin), edge, 1,
                                    c_status, Interval::point(load),
                                    arc.calib.c_min, arc.calib.c_max});
        }
      }
    }
  }
  facts.rows.reserve(rows.size());
  for (auto& [name, row] : rows) facts.rows.push_back(std::move(row));
  return facts;
}

void register_builtins(AnalysisRegistry& registry) {
  registry.add(
      {"analysis.intervals",
       "certified per-net arrival/slew bounds via monotone interval "
       "propagation",
       [](const AnalysisInput& input, const AnalysisPrep& prep,
          const AnalysisOptions&, std::vector<Diagnostic>& out) {
         const GateNetlist& nl = *input.netlist;
         if (!prep.intervals) {
           out.push_back({Severity::kInfo, "analysis.intervals",
                          "design:" + nl.name(),
                          "interval propagation skipped: " +
                              prep.interval_skip_reason,
                          "", 0});
           return;
         }
         const IntervalResult& iv = *prep.intervals;
         // Self-check: a certified bound must be a valid finite interval.
         for (std::size_t n = 0; n < iv.nets.size(); ++n) {
           const NetBounds& nb = iv.nets[n];
           if (!nb.reachable) continue;
           for (int e = 0; e < 2; ++e) {
             const Interval& a = nb.arrival[static_cast<std::size_t>(e)];
             if (!a.valid() || !std::isfinite(a.lo) || !std::isfinite(a.hi)) {
               out.push_back({Severity::kError, "analysis.intervals",
                              net_obj(nl, static_cast<int>(n)),
                              std::string("invalid arrival interval on the ") +
                                  (e == 0 ? "rising" : "falling") +
                                  " edge: [" + fmt_ps(a.lo) + ", " +
                                  fmt_ps(a.hi) + "] ps",
                              "", 0});
             }
           }
         }
         if (iv.worst_po >= 0) {
           out.push_back(
               {Severity::kInfo, "analysis.intervals",
                net_obj(nl, iv.worst_po),
                "worst primary output arrival certified within [" +
                    fmt_ps(iv.max_arrival.lo) + ", " +
                    fmt_ps(iv.max_arrival.hi) + "] ps over " +
                    std::to_string(iv.po_nets.size()) + " reachable PO(s)",
                "", 0});
         } else {
           out.push_back({Severity::kWarn, "analysis.intervals",
                          "design:" + nl.name(),
                          "no reachable primary output to bound", "", 0});
         }
       }});

  registry.add(
      {"analysis.domain-coverage",
       "flag operating boxes outside or near the characterized table domain",
       [](const AnalysisInput& input, const AnalysisPrep& prep,
          const AnalysisOptions&, std::vector<Diagnostic>& out) {
         const GateNetlist& nl = *input.netlist;
         if (!prep.coverage.ran) {
           out.push_back({Severity::kInfo, "analysis.domain-coverage",
                          "design:" + nl.name(),
                          "domain audit skipped: " +
                              (prep.interval_skip_reason.empty()
                                   ? std::string("no characterized model")
                                   : prep.interval_skip_reason),
                          "", 0});
           return;
         }
         for (const DomainFinding& df : prep.coverage.findings) {
           const CellInst& inst = nl.cell(df.cell);
           const bool is_slew = df.axis == 0;
           const std::string range =
               is_slew ? "[" + fmt_ps(df.operating.lo) + ", " +
                             fmt_ps(df.operating.hi) + "] ps"
                       : fmt_ff(df.operating.lo) + " fF";
           const std::string domain =
               is_slew ? "[" + fmt_ps(df.domain_lo) + ", " +
                             fmt_ps(df.domain_hi) + "] ps"
                       : "[" + fmt_ff(df.domain_lo) + ", " +
                             fmt_ff(df.domain_hi) + "] fF";
           const std::string where =
               "pin " + std::to_string(df.pin) + " " +
               (df.edge == 0 ? "rise" : "fall") + " " +
               (is_slew ? "slew" : "load");
           if (df.status == 2) {
             out.push_back(
                 {Severity::kWarn, "analysis.domain-coverage",
                  cell_obj(nl, df.cell),
                  where + " " + range + " leaves the characterized domain " +
                      domain + " of " + inst.type->name() +
                      " (table extrapolation)",
                  "extend the characterization grid or resize the stage", 0});
           } else {
             out.push_back(
                 {Severity::kInfo, "analysis.domain-coverage",
                  cell_obj(nl, df.cell),
                  where + " " + range +
                      " is within epsilon of the domain boundary " + domain +
                      " (break-point hazard)",
                  "", 0});
           }
         }
       }});

  registry.add(
      {"analysis.structure",
       "SCC cycle detection, cone reporting, levelization cross-check",
       [](const AnalysisInput& input, const AnalysisPrep& prep,
          const AnalysisOptions&, std::vector<Diagnostic>& out) {
         const GateNetlist& nl = *input.netlist;
         const StructureFacts& f = prep.structure;
         for (const auto& scc : f.cycles) {
           out.push_back({Severity::kError, "analysis.scc-cycle",
                          cell_obj(nl, scc[0]),
                          "combinational cycle through " +
                              std::to_string(scc.size()) + " cell(s): " +
                              name_sample(nl, scc),
                          "break the loop or register it", 0});
         }
         for (int n : f.undriven_nets) {
           out.push_back({Severity::kError, "analysis.undriven-cone",
                          net_obj(nl, n),
                          "net has sinks or a PO marking but no driver and "
                          "no PI marking",
                          "drive the net or mark it as a primary input", 0});
         }
         if (!f.undriven_cone_cells.empty()) {
           out.push_back({Severity::kWarn, "analysis.undriven-cone",
                          cell_obj(nl, f.undriven_cone_cells[0]),
                          std::to_string(f.undriven_cone_cells.size()) +
                              " cell(s) unreachable from any primary input: " +
                              name_sample(nl, f.undriven_cone_cells),
                          "", 0});
         }
         if (!f.dangling_cells.empty()) {
           out.push_back({Severity::kInfo, "analysis.dangling-cone",
                          cell_obj(nl, f.dangling_cells[0]),
                          std::to_string(f.dangling_cells.size()) +
                              " cell(s) reach no primary output: " +
                              name_sample(nl, f.dangling_cells),
                          "mark the sink nets as primary outputs or trim",
                          0});
         }
         for (int po : f.unreachable_pos) {
           out.push_back({Severity::kWarn, "analysis.unreachable-po",
                          net_obj(nl, po),
                          "primary output is structurally unreachable from "
                          "the primary inputs",
                          "", 0});
         }
         if (!f.levelization_ok) {
           out.push_back({Severity::kError, "analysis.levelization",
                          "design:" + nl.name(),
                          "levelization cache failed the cross-check: " +
                              f.levelization_note,
                          "", 0});
         }
       }});

  registry.add(
      {"analysis.verify-engines",
       "cross-engine gate: nominal/mean arrivals inside the static bounds",
       [](const AnalysisInput& input, const AnalysisPrep& prep,
          const AnalysisOptions& options, std::vector<Diagnostic>& out) {
         if (!options.verify_engines) return;  // opt-in pass
         if (!prep.verify.ran) {
           out.push_back({Severity::kWarn, "analysis.verify-engines",
                          "design:" + input.netlist->name(),
                          "consistency gate skipped: " +
                              (prep.interval_skip_reason.empty()
                                   ? std::string("no certified intervals")
                                   : prep.interval_skip_reason),
                          "", 0});
           return;
         }
         out.insert(out.end(), prep.verify.diagnostics.begin(),
                    prep.verify.diagnostics.end());
       }});
}

}  // namespace nsdc
