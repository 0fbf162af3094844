#pragma once
// Process-variation sampling: die-to-die (global) corners plus Pelgrom-law
// local mismatch. This is the mechanism behind both paper observations the
// model encodes: delay distributions skew at low VDD (exponential current
// sensitivity to Vth) and variability shrinks as 1/sqrt(strength * stack)
// (area averaging, Eq. 5).

#include "pdk/tech.hpp"
#include "util/rng.hpp"

namespace nsdc {

/// One die-to-die corner draw shared by every device in a MC sample.
struct GlobalCorner {
  double dvth_n = 0.0;       ///< NMOS threshold shift (V)
  double dvth_p = 0.0;       ///< PMOS threshold shift (V)
  double mu_n_factor = 1.0;  ///< NMOS mobility multiplier
  double mu_p_factor = 1.0;  ///< PMOS mobility multiplier
  double l_factor = 1.0;     ///< gate-length multiplier
  double wire_r_factor = 1.0;
  double wire_c_factor = 1.0;

  static GlobalCorner nominal() { return {}; }
};

class VariationModel {
 public:
  explicit VariationModel(const TechParams& tech) : tech_(tech) {}

  const TechParams& tech() const { return tech_; }

  GlobalCorner sample_global(Rng& rng) const;

  /// Pelgrom local threshold mismatch sigma for a device of area W*L.
  double sigma_vth_local(double w, double l) const;
  double sample_dvth_local(Rng& rng, double w, double l) const;

  /// Local relative current-factor (beta) mismatch, truncated at +-4 sigma
  /// to keep the multiplier positive.
  double sample_mu_factor_local(Rng& rng, double w, double l) const;

 private:
  TechParams tech_;
};

}  // namespace nsdc
