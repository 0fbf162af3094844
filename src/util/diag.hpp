#pragma once
// Structured diagnostics: the record type shared by the design lint engine
// (src/lint), the static-analysis passes (src/analysis) and the file
// parsers (benchio / verilogio / spef). A Diagnostic names the rule that
// fired, a severity, the design object (or source line) it is anchored to,
// a human message, and an optional fix hint. Parsers emit them in recovery
// mode instead of throwing; the lint and analysis reports (both built on
// DiagnosticReport) render them next to their own findings.

#include <string>
#include <vector>

namespace nsdc {

enum class Severity : int { kInfo = 0, kWarn = 1, kError = 2 };

const char* severity_name(Severity s);

struct Diagnostic {
  Severity severity = Severity::kWarn;
  /// Stable rule identifier, e.g. "net.comb-loop" or "parse.bench".
  std::string rule;
  /// Design-object path ("cell:U5", "net:G17", "arc:NAND2x1/r") or source
  /// locus ("file:c17.bench") the finding is anchored to.
  std::string object;
  std::string message;
  /// Optional remediation hint; empty when there is no concrete fix.
  std::string hint;
  /// 1-based source line for parser diagnostics; 0 = not file-based.
  int line = 0;
};

/// Strict weak order giving reports a deterministic layout regardless of
/// the thread count or rule evaluation order: severity (errors first),
/// then rule id, object, line, message.
bool diagnostic_before(const Diagnostic& a, const Diagnostic& b);

/// Sorts with diagnostic_before (stable, so equal records keep insertion
/// order).
void sort_diagnostics(std::vector<Diagnostic>& diags);

/// Strict weak order for machine-readable (JSON) reports: rule id first,
/// then object, line, message, severity — so consumers diffing two runs
/// see findings grouped by rule regardless of severity churn.
bool diagnostic_json_before(const Diagnostic& a, const Diagnostic& b);

/// Stable-sorts with diagnostic_json_before.
void sort_diagnostics_for_json(std::vector<Diagnostic>& diags);

/// One-line rendering: `error[net.comb-loop] net:G17: message (hint: ...)`.
std::string format_diagnostic(const Diagnostic& d);

/// JSON object rendering with stable key order; strings are escaped per
/// RFC 8259.
std::string diagnostic_to_json(const Diagnostic& d);

/// JSON string escaping helper (quotes included).
std::string json_quote(const std::string& s);

/// The report core shared by the lint and analysis reports: a run's
/// diagnostics in canonical order, their severity counts and the process
/// exit status. Each report adds its own text and JSON layout.
class DiagnosticReport {
 public:
  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  const std::string& design() const { return design_; }
  /// Rules (lint) or passes (analysis) that ran.
  std::size_t checks_run() const { return checks_run_; }

  int count(Severity s) const;
  /// Highest severity present; kInfo for an empty report.
  Severity max_severity() const;
  /// Process exit status: 0 clean/info, 1 warnings, 2 errors.
  int exit_code() const { return static_cast<int>(max_severity()); }

  /// Appends extra diagnostics (e.g. parser output) and restores the
  /// canonical sorted order.
  void merge(std::vector<Diagnostic> extra);

 protected:
  /// The `"diagnostics"` member of a JSON report, newline-terminated: the
  /// array stable-sorted by (rule, object, line), one record per line.
  std::string json_diagnostics() const;

  std::string design_;
  std::vector<Diagnostic> diags_;
  std::size_t checks_run_ = 0;
};

}  // namespace nsdc
