#pragma once
// The check plumbing lint rules (src/lint) and analysis passes
// (src/analysis) share: a registry of named checks and the driver that fans
// the enabled ones out over an ExecContext. Each module keeps its own check
// record, prep facts, options and report layout.

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/diag.hpp"
#include "util/exec.hpp"

namespace nsdc {

/// Checks with unique ids, in registration order. `Check` (LintRule,
/// AnalysisPass) has a string `id` and a callable `check`.
template <class Check>
class CheckRegistry {
 public:
  void add(Check check) {
    if (find(check.id) != nullptr) {
      throw std::invalid_argument("CheckRegistry: duplicate id " + check.id);
    }
    checks_.push_back(std::move(check));
  }
  const std::vector<Check>& checks() const { return checks_; }
  const Check* find(const std::string& id) const {
    for (const auto& c : checks_) {
      if (c.id == id) return &c;
    }
    return nullptr;
  }

  /// The registry preloaded with the module's built-ins: the module's
  /// `register_builtins(CheckRegistry<Check>&)` runs once, on first use.
  /// Embedders add their own checks to a copy.
  static const CheckRegistry& global() {
    static const CheckRegistry registry = [] {
      CheckRegistry r;
      register_builtins(r);
      return r;
    }();
    return registry;
  }

 private:
  std::vector<Check> checks_;
};

/// Runs each check of `registry` not named in `disabled` as
/// `check(args..., diags)` over `exec`, each into its own slot, then
/// appends the slots to `out` in registry order and sorts it, so the
/// result is the same at any lane count. A check that throws leaves one
/// `internal_rule` error on object "<kind>:<id>" ("<kind> threw: <what>")
/// instead of aborting the run. Returns the number of checks run.
template <class Check, class... Args>
std::size_t run_checks(const CheckRegistry<Check>& registry,
                       const std::vector<std::string>& disabled,
                       const ExecContext& exec, const char* internal_rule,
                       const std::string& kind, std::vector<Diagnostic>& out,
                       const Args&... args) {
  std::vector<const Check*> enabled;
  for (const auto& c : registry.checks()) {
    if (std::find(disabled.begin(), disabled.end(), c.id) == disabled.end()) {
      enabled.push_back(&c);
    }
  }
  std::vector<std::vector<Diagnostic>> per_check(enabled.size());
  exec.parallel_for(enabled.size(), [&](std::size_t i) {
    try {
      enabled[i]->check(args..., per_check[i]);
    } catch (const std::exception& e) {
      per_check[i].push_back({Severity::kError, internal_rule,
                              kind + ":" + enabled[i]->id,
                              kind + " threw: " + e.what(), "", 0});
    }
  });
  for (auto& diags : per_check) {
    out.insert(out.end(), std::make_move_iterator(diags.begin()),
               std::make_move_iterator(diags.end()));
  }
  sort_diagnostics(out);
  return enabled.size();
}

}  // namespace nsdc
