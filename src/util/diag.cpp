#include "util/diag.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <tuple>

namespace nsdc {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarn:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

bool diagnostic_before(const Diagnostic& a, const Diagnostic& b) {
  // Errors first, then alphabetical by rule/object for a stable report.
  return std::make_tuple(-static_cast<int>(a.severity), std::cref(a.rule),
                         std::cref(a.object), a.line, std::cref(a.message)) <
         std::make_tuple(-static_cast<int>(b.severity), std::cref(b.rule),
                         std::cref(b.object), b.line, std::cref(b.message));
}

void sort_diagnostics(std::vector<Diagnostic>& diags) {
  std::stable_sort(diags.begin(), diags.end(), diagnostic_before);
}

bool diagnostic_json_before(const Diagnostic& a, const Diagnostic& b) {
  return std::make_tuple(std::cref(a.rule), std::cref(a.object), a.line,
                         std::cref(a.message), static_cast<int>(a.severity)) <
         std::make_tuple(std::cref(b.rule), std::cref(b.object), b.line,
                         std::cref(b.message), static_cast<int>(b.severity));
}

void sort_diagnostics_for_json(std::vector<Diagnostic>& diags) {
  std::stable_sort(diags.begin(), diags.end(), diagnostic_json_before);
}

std::string format_diagnostic(const Diagnostic& d) {
  std::string out = severity_name(d.severity);
  out += '[';
  out += d.rule;
  out += "] ";
  out += d.object;
  if (d.line > 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ":%d", d.line);
    out += buf;
  }
  out += ": ";
  out += d.message;
  if (!d.hint.empty()) {
    out += " (hint: ";
    out += d.hint;
    out += ')';
  }
  return out;
}

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string diagnostic_to_json(const Diagnostic& d) {
  std::string out = "{\"severity\": ";
  out += json_quote(severity_name(d.severity));
  out += ", \"rule\": ";
  out += json_quote(d.rule);
  out += ", \"object\": ";
  out += json_quote(d.object);
  out += ", \"line\": ";
  out += std::to_string(d.line);
  out += ", \"message\": ";
  out += json_quote(d.message);
  out += ", \"hint\": ";
  out += json_quote(d.hint);
  out += '}';
  return out;
}

int DiagnosticReport::count(Severity s) const {
  int n = 0;
  for (const auto& d : diags_) {
    if (d.severity == s) ++n;
  }
  return n;
}

Severity DiagnosticReport::max_severity() const {
  Severity worst = Severity::kInfo;
  for (const auto& d : diags_) worst = std::max(worst, d.severity);
  return worst;
}

void DiagnosticReport::merge(std::vector<Diagnostic> extra) {
  diags_.insert(diags_.end(), std::make_move_iterator(extra.begin()),
                std::make_move_iterator(extra.end()));
  sort_diagnostics(diags_);
}

std::string DiagnosticReport::json_diagnostics() const {
  std::vector<Diagnostic> sorted = diags_;
  sort_diagnostics_for_json(sorted);
  std::string out = "  \"diagnostics\": [";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    out += diagnostic_to_json(sorted[i]);
  }
  out += sorted.empty() ? "]\n" : "\n  ]\n";
  return out;
}

}  // namespace nsdc
