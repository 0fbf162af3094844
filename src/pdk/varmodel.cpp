#include "pdk/varmodel.hpp"

#include <algorithm>
#include <cmath>

namespace nsdc {

GlobalCorner VariationModel::sample_global(Rng& rng) const {
  GlobalCorner g;
  g.dvth_n = rng.normal(0.0, tech_.sigma_vth_global);
  // NMOS/PMOS global shifts are strongly but not perfectly correlated.
  g.dvth_p = 0.8 * g.dvth_n +
             0.6 * rng.normal(0.0, tech_.sigma_vth_global);
  const double mu_common = rng.normal(0.0, tech_.sigma_mu_global);
  g.mu_n_factor = std::max(0.5, 1.0 + mu_common +
                                    0.3 * rng.normal(0.0, tech_.sigma_mu_global));
  g.mu_p_factor = std::max(0.5, 1.0 + mu_common +
                                    0.3 * rng.normal(0.0, tech_.sigma_mu_global));
  g.l_factor = std::max(0.8, rng.normal(1.0, tech_.sigma_l_global));
  g.wire_r_factor = std::max(0.5, rng.normal(1.0, tech_.sigma_wire_r_global));
  g.wire_c_factor = std::max(0.5, rng.normal(1.0, tech_.sigma_wire_c_global));
  return g;
}

double VariationModel::sigma_vth_local(double w, double l) const {
  return tech_.avt / std::sqrt(w * l);
}

double VariationModel::sample_dvth_local(Rng& rng, double w, double l) const {
  return rng.normal(0.0, sigma_vth_local(w, l));
}

double VariationModel::sample_mu_factor_local(Rng& rng, double w,
                                              double l) const {
  const double sigma = tech_.a_beta / std::sqrt(w * l);
  const double z = std::clamp(rng.normal(), -4.0, 4.0);
  return std::max(0.2, 1.0 + sigma * z);
}

}  // namespace nsdc
