#pragma once
// Console / CSV table emitter used by the benchmark harness so every
// reproduced table and figure prints in a uniform, diff-friendly format.

#include <iosfwd>
#include <string>
#include <vector>

namespace nsdc {

/// Column-aligned text table with optional CSV export.
///
/// Usage:
///   Table t({"cell", "-3s err %", "+3s err %"});
///   t.add_row({"NOR2x1", "3.57", "4.81"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  void add_row_numeric(const std::string& label,
                       const std::vector<double>& values, int digits = 3);

  /// Returns a cell (row index excludes the header).
  const std::string& cell(std::size_t row, std::size_t col) const;

  /// Pretty-prints with aligned columns and a rule under the header.
  void print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (quotes fields containing commas/quotes).
  void write_csv(std::ostream& os) const;

  /// Writes to a .csv file; returns false on I/O failure.
  bool save_csv(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace nsdc
