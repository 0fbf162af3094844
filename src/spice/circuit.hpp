#pragma once
// Flat transistor-level circuit description for the transient engine.
//
// Node 0 is ground. Devices reference nodes by id. The MOSFET is an
// EKV-style transregional model (continuous from subthreshold through
// strong inversion) — the property that matters for this reproduction,
// because near-threshold delay variability comes from the exponential
// sensitivity of the drain current to Vth in weak/moderate inversion.

#include <vector>

#include "spice/waveform.hpp"

namespace nsdc {

using NodeId = int;
inline constexpr NodeId kGround = 0;

/// EKV-style MOSFET parameters (already variation-adjusted per instance).
struct MosParams {
  bool nmos = true;
  double w = 100e-9;          ///< channel width (m)
  double l = 30e-9;           ///< channel length (m)
  double vth = 0.42;          ///< threshold voltage magnitude (V)
  double n_slope = 1.35;      ///< subthreshold slope factor
  double kp = 3e-4;           ///< mobility * Cox (A/V^2)
  double lambda = 0.08;       ///< channel-length modulation (1/V)
  double vt_thermal = 0.02585;///< kT/q at 300 K (V)
  /// Bulk rail voltage: 0 for NMOS, the supply for PMOS. EKV terminal
  /// voltages are bulk-referenced, so the PMOS mirror must reflect about
  /// its rail, not about ground.
  double rail = 0.0;

  /// Specific current Is = 2 n kp (W/L) Vt^2 (A).
  double specific_current() const {
    return 2.0 * n_slope * kp * (w / l) * vt_thermal * vt_thermal;
  }
};

/// Drain current (d->s) and terminal derivatives at a bias point.
struct MosEval {
  double ids = 0.0;
  double gm = 0.0;   ///< d ids / d vg
  double gds = 0.0;  ///< d ids / d vd
  double gs = 0.0;   ///< d ids / d vs
};

/// Evaluates the EKV drain current. `vd/vg/vs` are node voltages relative
/// to ground; PMOS is handled internally via symmetry.
MosEval mos_eval(const MosParams& p, double vd, double vg, double vs);

struct Resistor {
  NodeId a = 0, b = 0;
  double r = 0.0;
};

struct Capacitor {
  NodeId a = 0, b = 0;
  double c = 0.0;
};

struct VSource {
  NodeId pos = 0, neg = 0;
  Pwl wave;
};

struct Mosfet {
  NodeId d = 0, g = 0, s = 0;
  MosParams params;
};

/// Builder/container for one flat circuit.
class Circuit {
 public:
  Circuit();

  /// Creates a new node and returns its id (>= 1).
  NodeId make_node();
  int num_nodes() const { return static_cast<int>(initial_voltage_.size()); }

  void add_resistor(NodeId a, NodeId b, double ohms);
  void add_capacitor(NodeId a, NodeId b, double farads);
  /// Returns the source index (its branch current is an MNA unknown).
  int add_vsource(NodeId pos, NodeId neg, Pwl wave);
  void add_mosfet(NodeId d, NodeId g, NodeId s, const MosParams& params);

  /// Initial-condition hint for the DC solve (defaults to 0 V).
  void set_initial_voltage(NodeId n, double volts);
  double initial_voltage(NodeId n) const;

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<VSource>& vsources() const { return vsources_; }
  const std::vector<Mosfet>& mosfets() const { return mosfets_; }

 private:
  void check_node(NodeId n) const;

  std::vector<double> initial_voltage_;  ///< one per node, ground included
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<VSource> vsources_;
  std::vector<Mosfet> mosfets_;
};

}  // namespace nsdc
