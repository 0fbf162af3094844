#include "lint/lint.hpp"

#include <stdexcept>

namespace nsdc {

std::string LintReport::to_text() const {
  std::string out;
  for (const auto& d : diags_) {
    out += format_diagnostic(d);
    out += '\n';
  }
  out += "nsdc_lint: " + design_ + ": " + std::to_string(count(Severity::kError)) +
         " error(s), " + std::to_string(count(Severity::kWarn)) +
         " warning(s), " + std::to_string(count(Severity::kInfo)) +
         " info(s) from " + std::to_string(checks_run_) + " rule(s)\n";
  return out;
}

std::string LintReport::to_json() const {
  // schema_version 2: renamed the "version" key and stable-sorted the
  // diagnostics array by (rule, object, line) — diff-friendly for JSON
  // consumers, independent of the severity-first text report order.
  std::string out = "{\n  \"tool\": \"nsdc_lint\",\n  \"schema_version\": 2,\n";
  out += "  \"design\": " + json_quote(design_) + ",\n";
  out += "  \"summary\": {\"errors\": " + std::to_string(count(Severity::kError)) +
         ", \"warnings\": " + std::to_string(count(Severity::kWarn)) +
         ", \"infos\": " + std::to_string(count(Severity::kInfo)) +
         ", \"rules_run\": " + std::to_string(checks_run_) + "},\n";
  return out + json_diagnostics() + "}\n";
}

namespace {

/// Kahn's algorithm tolerating out-of-range fanin indices (they contribute
/// no dependency edge). Returns the cells never processed — the members
/// and downstream of combinational cycles.
std::vector<int> unprocessed_cells(const GateNetlist& nl) {
  const int num_cells = static_cast<int>(nl.num_cells());
  const int num_nets = static_cast<int>(nl.num_nets());
  // driver[n] = cell driving net n (by out_net), -1 if none/PI.
  std::vector<int> driver(static_cast<std::size_t>(num_nets), -1);
  for (int c = 0; c < num_cells; ++c) {
    const int out = nl.cell(c).out_net;
    if (out >= 0 && out < num_nets) driver[static_cast<std::size_t>(out)] = c;
  }
  std::vector<int> pending(static_cast<std::size_t>(num_cells), 0);
  std::vector<int> ready;
  for (int c = 0; c < num_cells; ++c) {
    int deps = 0;
    for (int f : nl.cell(c).fanin_nets) {
      if (f >= 0 && f < num_nets && driver[static_cast<std::size_t>(f)] >= 0) {
        ++deps;
      }
    }
    pending[static_cast<std::size_t>(c)] = deps;
    if (deps == 0) ready.push_back(c);
  }
  std::vector<bool> done(static_cast<std::size_t>(num_cells), false);
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const int c = ready[head];
    done[static_cast<std::size_t>(c)] = true;
    const int out = nl.cell(c).out_net;
    if (out < 0 || out >= num_nets) continue;
    for (const auto& sink : nl.net(out).sinks) {
      if (sink.cell < 0 || sink.cell >= num_cells) continue;
      // Only edges from the actual out_net driver count as dependencies.
      if (driver[static_cast<std::size_t>(out)] != c) continue;
      if (--pending[static_cast<std::size_t>(sink.cell)] == 0) {
        ready.push_back(sink.cell);
      }
    }
  }
  std::vector<int> stuck;
  for (int c = 0; c < num_cells; ++c) {
    if (!done[static_cast<std::size_t>(c)]) stuck.push_back(c);
  }
  return stuck;
}

}  // namespace

LintReport run_lint(const LintInput& input, const LintOptions& options,
                    const LintRegistry& registry) {
  if (input.netlist == nullptr) {
    throw std::invalid_argument("run_lint: LintInput::netlist is required");
  }
  const GateNetlist& nl = *input.netlist;

  LintPrep prep;
  const int num_nets = static_cast<int>(nl.num_nets());

  prep.pins_ok = true;
  for (const auto& inst : nl.cells()) {
    if (inst.out_net < 0 || inst.out_net >= num_nets) prep.pins_ok = false;
    for (int f : inst.fanin_nets) {
      if (f < 0 || f >= num_nets) prep.pins_ok = false;
    }
  }

  prep.cycle_cells = unprocessed_cells(nl);
  prep.acyclic = prep.cycle_cells.empty();

  prep.driver_count.assign(static_cast<std::size_t>(num_nets), 0);
  for (const auto& inst : nl.cells()) {
    if (inst.out_net >= 0 && inst.out_net < num_nets) {
      ++prep.driver_count[static_cast<std::size_t>(inst.out_net)];
    }
  }
  for (int pi : nl.primary_inputs()) {
    if (pi >= 0 && pi < num_nets) {
      ++prep.driver_count[static_cast<std::size_t>(pi)];
    }
  }

  // Pre-warm the levelization cache (it is lazily computed and not
  // thread-safe on first call) and run the mean STA pass the domain rules
  // read propagated slews/loads from. Only attempted on clean structure.
  std::optional<StaEngine::Result> sta_result;
  if (prep.pins_ok && prep.acyclic && input.cell_model != nullptr &&
      input.tech != nullptr && input.parasitics != nullptr) {
    try {
      (void)nl.levelization();
      StaConfig cfg;
      cfg.exec = options.exec;
      StaEngine engine(*input.cell_model, *input.tech, cfg);
      sta_result = engine.run(nl, *input.parasitics);
      prep.sta = &*sta_result;
    } catch (const std::exception&) {
      // A failed pre-pass (missing arcs, no reachable PO, ...) just means
      // the slew-domain rule has nothing to read; the structural and
      // library rules still run and will name the underlying problem.
      sta_result.reset();
      prep.sta = nullptr;
    }
  } else if (prep.pins_ok && prep.acyclic) {
    (void)nl.levelization();
  }

  LintReport report;
  report.design_ = nl.name();
  report.checks_run_ =
      run_checks(registry, options.disabled_rules, options.exec,
                 "lint.internal", "rule", report.diags_, input, prep, options);
  return report;
}

}  // namespace nsdc
