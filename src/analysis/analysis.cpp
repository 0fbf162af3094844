// Pass registry, report rendering, and the run_analysis driver.
//
// run_analysis computes the shared facts serially-deterministic (structure,
// annotation, interval propagation, coverage, the opt-in cross-engine
// gate), then fans the registered passes out over ExecContext through the
// driver run_lint uses (run_checks): each pass writes only its own
// diagnostic slot and reads only the const prep, so the merged report is
// byte-identical at any thread count. Rendering never includes wall-clock
// values and uses fixed "%.6g" picosecond formatting for the same reason.

#include <cstdio>
#include <stdexcept>

#include "analysis/analysis.hpp"
#include "netlist/flatgraph.hpp"
#include "sta/flatsta.hpp"
#include "util/errors.hpp"
#include "util/units.hpp"

namespace nsdc {

using analysis::Interval;

namespace {

std::string fmt_ps(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", to_ps(seconds));
  return buf;
}

std::string json_number_ps(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", to_ps(seconds));
  return buf;
}

}  // namespace

std::string AnalysisReport::to_text() const {
  std::string out = "== nsdc_analyze: " + design_ + " ==\n";

  out += "structure: " + std::to_string(structure_.sccs) + " cycle(s), " +
         std::to_string(structure_.undriven_nets) + " undriven net(s), " +
         std::to_string(structure_.undriven_cone_cells) +
         " undriven-cone cell(s), " +
         std::to_string(structure_.dangling_cells) + " dangling cell(s), " +
         "levelization " + (structure_.levelization_ok ? "ok" : "BROKEN") +
         "\n";

  if (intervals_.ran) {
    out += "intervals: " + std::to_string(intervals_.nets) + " net(s), " +
           std::to_string(intervals_.reachable) + " reachable, " +
           std::to_string(intervals_.levels) + " level(s)\n";
    for (const auto& [name, iv] : intervals_.po_lines) {
      out += "  PO net:" + name + ": [" + fmt_ps(iv.lo) + ", " +
             fmt_ps(iv.hi) + "] ps\n";
    }
    if (intervals_.worst_po >= 0) {
      out += "  worst PO net:" + intervals_.worst_po_name + ": [" +
             fmt_ps(intervals_.worst_po_bounds.lo) + ", " +
             fmt_ps(intervals_.worst_po_bounds.hi) + "] ps\n";
    }
  } else {
    out += "intervals: skipped\n";
  }

  if (coverage_.ran) {
    out += "coverage:\n";
    for (const auto& row : coverage_.rows) {
      out += "  " + row.cell_type + ": arcs=" + std::to_string(row.arcs) +
             " in=" + std::to_string(row.in) +
             " near=" + std::to_string(row.near) +
             " out=" + std::to_string(row.out) + "\n";
    }
  } else {
    out += "coverage: skipped\n";
  }

  if (verify_.ran) {
    out += "verify: " + std::to_string(verify_.checks) + " check(s), " +
           std::to_string(verify_.violations) + " violation(s), min slack " +
           fmt_ps(verify_.min_slack_lo) + " / " + fmt_ps(verify_.min_slack_hi) +
           " ps\n";
  }

  for (const auto& d : diags_) {
    out += format_diagnostic(d);
    out += '\n';
  }
  out += "nsdc_analyze: " + design_ + ": " +
         std::to_string(count(Severity::kError)) + " error(s), " +
         std::to_string(count(Severity::kWarn)) + " warning(s), " +
         std::to_string(count(Severity::kInfo)) + " info(s) from " +
         std::to_string(checks_run_) + " pass(es)\n";
  return out;
}

std::string AnalysisReport::to_json() const {
  std::string out = "{\n  \"tool\": \"nsdc_analyze\",\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"design\": " + json_quote(design_) + ",\n";
  out += "  \"summary\": {\"errors\": " +
         std::to_string(count(Severity::kError)) +
         ", \"warnings\": " + std::to_string(count(Severity::kWarn)) +
         ", \"infos\": " + std::to_string(count(Severity::kInfo)) +
         ", \"passes_run\": " + std::to_string(checks_run_) + "},\n";

  out += "  \"structure\": {\"ran\": ";
  out += structure_.ran ? "true" : "false";
  out += ", \"sccs\": " + std::to_string(structure_.sccs) +
         ", \"cycle_cells\": " + std::to_string(structure_.cycle_cells) +
         ", \"undriven_nets\": " + std::to_string(structure_.undriven_nets) +
         ", \"undriven_cone_cells\": " +
         std::to_string(structure_.undriven_cone_cells) +
         ", \"dangling_cells\": " + std::to_string(structure_.dangling_cells) +
         ", \"levelization_ok\": ";
  out += structure_.levelization_ok ? "true" : "false";
  out += "},\n";

  out += "  \"intervals\": {\"ran\": ";
  out += intervals_.ran ? "true" : "false";
  out += ", \"nets\": " + std::to_string(intervals_.nets) +
         ", \"reachable\": " + std::to_string(intervals_.reachable) +
         ", \"levels\": " + std::to_string(intervals_.levels) +
         ", \"worst_po\": " + json_quote(intervals_.worst_po_name) +
         ", \"worst_po_lo_ps\": " +
         json_number_ps(intervals_.worst_po_bounds.lo) +
         ", \"worst_po_hi_ps\": " +
         json_number_ps(intervals_.worst_po_bounds.hi) + ",\n";
  out += "    \"primary_outputs\": [";
  for (std::size_t i = 0; i < intervals_.po_lines.size(); ++i) {
    const auto& [name, iv] = intervals_.po_lines[i];
    out += i == 0 ? "\n      " : ",\n      ";
    out += "{\"net\": " + json_quote(name) +
           ", \"lo_ps\": " + json_number_ps(iv.lo) +
           ", \"hi_ps\": " + json_number_ps(iv.hi) + "}";
  }
  out += intervals_.po_lines.empty() ? "]},\n" : "\n    ]},\n";

  out += "  \"coverage\": {\"ran\": ";
  out += coverage_.ran ? "true" : "false";
  out += ", \"rows\": [";
  for (std::size_t i = 0; i < coverage_.rows.size(); ++i) {
    const CoverageRow& row = coverage_.rows[i];
    out += i == 0 ? "\n      " : ",\n      ";
    out += "{\"cell_type\": " + json_quote(row.cell_type) +
           ", \"arcs\": " + std::to_string(row.arcs) +
           ", \"in\": " + std::to_string(row.in) +
           ", \"near\": " + std::to_string(row.near) +
           ", \"out\": " + std::to_string(row.out) + "}";
  }
  out += coverage_.rows.empty() ? "]},\n" : "\n    ]},\n";

  out += "  \"verify\": {\"ran\": ";
  out += verify_.ran ? "true" : "false";
  out += ", \"checks\": " + std::to_string(verify_.checks) +
         ", \"violations\": " + std::to_string(verify_.violations) +
         ", \"min_slack_lo_ps\": " + json_number_ps(verify_.min_slack_lo) +
         ", \"min_slack_hi_ps\": " + json_number_ps(verify_.min_slack_hi) +
         "},\n";

  return out + json_diagnostics() + "}\n";
}

AnalysisReport run_analysis(const AnalysisInput& input,
                            const AnalysisOptions& options,
                            const AnalysisRegistry& registry) {
  if (input.netlist == nullptr) {
    throw std::invalid_argument(
        "run_analysis: AnalysisInput::netlist is required");
  }
  const GateNetlist& nl = *input.netlist;

  AnalysisPrep prep;
  prep.structure = compute_structure(nl);

  // The modeling-dependent facts need clean structure and the full model
  // stack; otherwise the passes report the (first) reason they skipped.
  std::optional<StaEngine::Result> annotated;
  if (!prep.structure.pins_ok) {
    prep.interval_skip_reason = "netlist has out-of-range pin connections";
  } else if (!prep.structure.acyclic) {
    prep.interval_skip_reason = "netlist has combinational cycles";
  } else if (input.cell_model == nullptr || input.wire_model == nullptr) {
    prep.interval_skip_reason = "no characterized cell/wire model";
  } else if (input.parasitics == nullptr || input.tech == nullptr) {
    prep.interval_skip_reason = "no parasitics/tech for load annotation";
  } else {
    const FlatTimingGraph graph = FlatTimingGraph::compile(nl, options.exec);
    annotated.emplace();
    StaEngine::Result& res = *annotated;
    res.nets.resize(nl.num_nets());
    res.annotated.resize(nl.num_nets());
    res.net_load.assign(nl.num_nets(), 0.0);
    options.exec.parallel_for(nl.num_nets(), [&](std::size_t n) {
      flat_kernel::flat_annotate_net(graph, nl, *input.parasitics,
                                     *input.tech, n, res);
    });
    try {
      prep.intervals = propagate_intervals(input, options, graph, *annotated);
    } catch (const Error&) {
      throw;  // cancellation / injected faults keep their exit contract
    } catch (const std::exception& e) {
      prep.intervals.reset();
      prep.interval_skip_reason =
          std::string("interval propagation failed: ") + e.what();
    }
    if (prep.intervals) {
      prep.coverage =
          compute_coverage(input, options, *annotated, *prep.intervals);
    }
    prep.annotated = std::move(annotated);
  }

  // The cross-engine gate runs before the pass fan-out: it parallelizes
  // internally and must not nest inside a pool task.
  if (options.verify_engines && prep.intervals) {
    prep.verify = verify_engines(input, options, *prep.intervals);
  }

  AnalysisReport report;
  report.design_ = nl.name();
  report.checks_run_ = run_checks(registry, options.disabled_passes,
                                  options.exec, "analysis.internal", "pass",
                                  report.diags_, input, prep, options);

  report.structure_.ran = true;
  report.structure_.sccs = prep.structure.cycles.size();
  for (const auto& scc : prep.structure.cycles) {
    report.structure_.cycle_cells += scc.size();
  }
  report.structure_.undriven_nets = prep.structure.undriven_nets.size();
  report.structure_.undriven_cone_cells =
      prep.structure.undriven_cone_cells.size();
  report.structure_.dangling_cells = prep.structure.dangling_cells.size();
  report.structure_.levelization_ok = prep.structure.levelization_ok;

  if (prep.intervals) {
    const IntervalResult& iv = *prep.intervals;
    report.intervals_.ran = true;
    report.intervals_.nets = iv.nets.size();
    for (const auto& nb : iv.nets) {
      if (nb.reachable) ++report.intervals_.reachable;
    }
    report.intervals_.levels = iv.levels;
    report.intervals_.worst_po = iv.worst_po;
    if (iv.worst_po >= 0) {
      report.intervals_.worst_po_name = nl.net(iv.worst_po).name;
      report.intervals_.worst_po_bounds = iv.max_arrival;
    }
    report.intervals_.po_lines.reserve(iv.po_nets.size());
    for (std::size_t i = 0; i < iv.po_nets.size(); ++i) {
      report.intervals_.po_lines.emplace_back(nl.net(iv.po_nets[i]).name,
                                              iv.po_bounds[i]);
    }
  }

  report.coverage_.ran = prep.coverage.ran;
  report.coverage_.rows = prep.coverage.rows;

  report.verify_.ran = prep.verify.ran;
  report.verify_.checks = prep.verify.checks;
  report.verify_.violations = prep.verify.violations;
  report.verify_.min_slack_lo = prep.verify.min_slack_lo;
  report.verify_.min_slack_hi = prep.verify.min_slack_hi;

  return report;
}

}  // namespace nsdc
