#pragma once
// The N-sigma wire delay model (paper Sec. IV).
//
// Mean wire delay is Elmore (Eq. 4). Wire-delay variability
// X_w = sigma_w / mu_w is modeled as a linear combination of the driver
// and load cells' own delay variabilities with cell-specific coefficients
// (Eq. 6-7), motivated by Pelgrom's law: variability scales like
// 1/sqrt(stack * strength), normalized to the FO4 inverter INVx4 (Eq. 5).
// The quantiles are T_w(n sigma) = (1 + n * X_w) * T_Elmore (Eq. 9).
//
// The X coefficients are fitted jointly from the wire Monte-Carlo
// observations of the characterized library: each observation supplies one
// equation  X_w(d,l) = X_w0 + X_FI(d) * V_d + X_FO(l) * V_l  with V_c the
// cell's delay variability at the reference condition.
//
// Two deliberate deviations from the paper's Eq. 7, both documented in
// DESIGN.md and covered by the ablation bench:
//  * X_w0 is an intrinsic-wire variability intercept. Our synthetic BEOL
//    carries explicit R/C process variation, which dominates sigma_w/mu_w;
//    the paper folds this into its fitted coefficients. Without the
//    intercept the per-cell terms absorb a constant and lose meaning.
//  * Coefficients are fitted per FUNCTION FAMILY (INV, NAND2, ...), with
//    the strength dependence carried by V_c itself (Pelgrom, Eq. 5). The
//    per-cell form is not identifiable from X_w observations alone: adding
//    delta/V_d to every driver coefficient and subtracting delta/V_l from
//    every load coefficient leaves every equation unchanged.

#include <array>
#include <map>
#include <string>
#include <vector>

#include "liberty/charlib.hpp"
#include "pdk/cells.hpp"

namespace nsdc {

/// Left-tail floor of a wire delay, as a fraction of its Elmore mean: a
/// large X_w never drives a -n sigma wire delay below 5% of Elmore.
inline constexpr double kWireDelayFloor = 0.05;

/// Wire delay at standard score z, Eq. 9 with the left-tail floor:
/// max(kWireDelayFloor * elmore, elmore * (1 + xw * z)). The one function
/// NetlistMonteCarlo samples, AnalyticSsta integrates and quantile_at
/// evaluates.
inline double wire_stage_delay(double elmore, double xw, double z) {
  double d = elmore * (1.0 + xw * z);
  const double floor_w = kWireDelayFloor * elmore;
  if (d < floor_w) d = floor_w;
  return d;
}

class NSigmaWireModel {
 public:
  /// Per-observation fit diagnostics (paper Fig. 9 / Fig. 10 inputs).
  struct ObservationReport {
    std::string driver_cell;
    std::string load_cell;
    int tree_id = 0;
    double measured_xw = 0.0;   ///< MC sigma_w / mu_w
    double predicted_xw = 0.0;  ///< Eq. 7 with fitted coefficients
  };

  static NSigmaWireModel fit(const CharLib& lib, const CellLibrary& cells);

  /// Cell-specific coefficients (Eq. 6). Unknown cells fall back to the
  /// family estimate; throws only if the family is entirely unknown.
  double x_drive(const std::string& cell) const;  ///< X_FI
  double x_load(const std::string& cell) const;   ///< X_FO

  /// Cell delay variability V_c = sigma_c / mu_c at reference conditions.
  double cell_variability(const std::string& cell) const;

  /// sigma_FO4 / mu_FO4 of INVx4 — the Eq. 5/6 normalization baseline.
  double fo4_variability() const { return fo4_variability_; }

  /// Intrinsic-wire variability intercept X_w0 (see header comment).
  double intrinsic_variability() const { return x_intrinsic_; }

  /// Eq. 7 (extended): X_w = X_w0 + X_FI V_FI + X_FO V_FO, clamped >= 0.01.
  double xw(const std::string& driver_cell, const std::string& load_cell) const;

  /// Eq. 8: sigma_w = T_Elmore * X_w.
  double sigma_w(double elmore, double xw_value) const {
    return elmore * xw_value;
  }

  /// Eq. 9: T_w(n sigma) for level index 0..6 <-> -3..+3.
  double quantile(double elmore, double xw_value, int level_index) const;
  std::array<double, 7> quantiles(double elmore, double xw_value) const;

  /// Eq. 9 at an arbitrary sigma level (clamped to [-6, 6]):
  /// wire_stage_delay at that level, floor included.
  double quantile_at(double elmore, double xw_value, double n_sigma) const;

  const std::vector<ObservationReport>& report() const { return report_; }

 private:
  std::map<std::string, double> x_drive_;  ///< keyed by function family
  std::map<std::string, double> x_load_;
  std::map<std::string, double> variability_;
  double fo4_variability_ = 0.1;
  double x_intrinsic_ = 0.0;
  double fallback_x_drive_ = 1.0;
  double fallback_x_load_ = 1.0;
  std::vector<ObservationReport> report_;

  double family_estimate(const std::map<std::string, double>& table,
                         const std::string& cell, double fallback) const;
};

}  // namespace nsdc
