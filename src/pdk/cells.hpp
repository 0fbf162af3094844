#pragma once
// Standard-cell library metadata: logic functions, drive strengths,
// transistor topologies and sizing. Mirrors the cell set the paper
// evaluates (INV / NAND2 / NOR2 / AOI21 at x1/x2/x4/x8, paper Table II
// calls the AOI family "AOI2") plus BUF and OAI21 used by the synthetic
// netlists.

#include <span>
#include <string>
#include <vector>

#include "pdk/tech.hpp"

namespace nsdc {

enum class CellFunc { kInv, kBuf, kNand2, kNor2, kAoi21, kOai21 };

const char* cell_func_name(CellFunc func);
int cell_func_num_inputs(CellFunc func);
/// True if output falls when the pin rises (all our gates except BUF).
bool cell_func_inverting(CellFunc func);

/// Symbolic net tags inside a cell topology.
enum class NetTag { kGnd, kVdd, kOut, kInt1, kInt2, kIn0, kIn1, kIn2 };

/// One transistor of a cell topology. Widths are in units of the
/// technology's minimum width for the device type, before the drive
/// strength multiplier.
struct TransistorSpec {
  bool nmos = true;
  NetTag gate = NetTag::kIn0;
  NetTag drain = NetTag::kOut;
  NetTag source = NetTag::kGnd;
  double w_units = 1.0;
};

/// Topology (shared across strengths of the same function).
struct CellTopology {
  std::vector<TransistorSpec> fets;
  int stack_n = 1;  ///< max NMOS stack depth (the `n` of paper Eq. 5)
  int stack_p = 1;
};

const CellTopology& cell_topology(CellFunc func);

/// Non-controlling logic values for all pins when `active_pin` switches
/// (1.0 => VDD, 0.0 => GND). The active pin's entry is the initial value
/// of a rising input (callers invert for falling).
std::vector<double> side_input_values(CellFunc func, int active_pin);

/// A concrete library cell: function + drive strength.
class CellType {
 public:
  CellType(CellFunc func, int strength);

  const std::string& name() const { return name_; }
  CellFunc func() const { return func_; }
  int strength() const { return strength_; }
  int num_inputs() const { return cell_func_num_inputs(func_); }
  bool inverting() const { return cell_func_inverting(func_); }
  const CellTopology& topology() const { return cell_topology(func_); }

  /// Paper Eq. 5 "number of stacked transistors" n — the worst stack depth.
  int stack_count() const;

  /// Total gate capacitance presented by one input pin (F): over the FETs
  /// the pin gates, in topology order, cox*W*L + 2*c_overlap*W with
  /// W = w_units * strength * w_min of the device type, folded over the
  /// gate list the constructor records for the pin. Throws
  /// std::out_of_range for a pin outside [0, num_inputs()).
  double input_cap(const TechParams& tech, int pin) const;

  /// Nominal output-stage drive resistance estimate (for tstop heuristics).
  double drive_resistance_estimate(const TechParams& tech) const;

 private:
  /// One FET gated by an input pin: w_units * strength, and its type.
  struct GateFet {
    double w_strength;
    bool nmos;
  };

  CellFunc func_;
  int strength_;
  std::string name_;
  /// Per input pin, the FETs it gates in topology order.
  std::vector<std::vector<GateFet>> pin_gates_;
};

/// The full characterized library (6 functions x strengths 1/2/4/8).
class CellLibrary {
 public:
  static CellLibrary standard();

  std::span<const CellType> cells() const { return cells_; }
  /// Throws std::out_of_range for unknown names.
  const CellType& by_name(const std::string& name) const;
  const CellType& by_func(CellFunc func, int strength) const;
  bool contains(const std::string& name) const;

 private:
  std::vector<CellType> cells_;
};

}  // namespace nsdc
