#include "analysis/interval.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/nsigma_wire.hpp"

namespace nsdc::analysis {

namespace {

/// Widens [lo, hi] by kRangeGuard relative to its magnitude so a rounded
/// stationary point can never leave a true extremum outside the range.
Interval guarded(double lo, double hi) {
  const double mag = std::max(std::abs(lo), std::abs(hi));
  const double pad = kRangeGuard * mag;
  return {lo - pad, hi + pad};
}

}  // namespace

Interval iv_add(const Interval& a, const Interval& b) {
  return {a.lo + b.lo, a.hi + b.hi};
}

Interval iv_max(const Interval& a, const Interval& b) {
  return {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval iv_hull(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval iv_mul(const Interval& a, const Interval& b) {
  const double p1 = a.lo * b.lo, p2 = a.lo * b.hi;
  const double p3 = a.hi * b.lo, p4 = a.hi * b.hi;
  return {std::min(std::min(p1, p2), std::min(p3, p4)),
          std::max(std::max(p1, p2), std::max(p3, p4))};
}

Interval iv_floor_at(const Interval& a, double floor_value) {
  return {std::max(a.lo, floor_value), std::max(a.hi, floor_value)};
}

Interval cubic_range(double a3, double a2, double a1, double a0, double zlo,
                     double zhi) {
  const auto eval = [&](double z) {
    return ((a3 * z + a2) * z + a1) * z + a0;
  };
  double lo = eval(zlo), hi = eval(zlo);
  const auto consider = [&](double z) {
    if (!(z > zlo && z < zhi)) return;
    const double v = eval(z);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  };
  {
    const double v = eval(zhi);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // Stationary points of the cubic: roots of 3*a3*z^2 + 2*a2*z + a1.
  if (a3 != 0.0) {
    const double qa = 3.0 * a3, qb = 2.0 * a2, qc = a1;
    const double disc = qb * qb - 4.0 * qa * qc;
    if (disc >= 0.0) {
      const double sq = std::sqrt(disc);
      // Citardauq-stable pair: q/qa and qc/q cover both roots without the
      // cancellation of the textbook formula.
      const double q = -0.5 * (qb + std::copysign(sq, qb));
      consider(q / qa);
      if (q != 0.0) consider(qc / q);
    }
  } else if (a2 != 0.0) {
    consider(-a1 / (2.0 * a2));
  }
  return guarded(lo, hi);
}

Interval cf_shape_range(const Interval& g6, const Interval& k24,
                        const Interval& g36, double z_max) {
  // shape(z) = z + g6*(z^2 - 1) + k24*z*(z^2 - 3) - g36*z*(2z^2 - 5)
  //          = (k24 - 2*g36)*z^3 + g6*z^2 + (1 - 3*k24 + 5*g36)*z - g6.
  // Linear in each coefficient at fixed z, so the extrema over the box sit
  // at its corners; the z-range per corner is an exact cubic range.
  Interval out{std::numeric_limits<double>::infinity(),
               -std::numeric_limits<double>::infinity()};
  for (double g : {g6.lo, g6.hi}) {
    for (double k : {k24.lo, k24.hi}) {
      for (double s : {g36.lo, g36.hi}) {
        const Interval r = cubic_range(k - 2.0 * s, g, 1.0 - 3.0 * k + 5.0 * s,
                                       -g, -z_max, z_max);
        out = iv_hull(out, r);
      }
    }
  }
  return out;
}

MomentIntervals surface_moment_range(const CalibrationSurface& surface,
                                     const Interval& slew, double load) {
  MomentIntervals out;
  const double dc = (load - surface.c_ref) / surface.c_scale;

  // mu/sigma: bilinear with UNclamped inputs — linear in ds at fixed dc,
  // so interval endpoints give the exact range.
  const auto bilinear = [&](const std::array<double, 3>& k, double base,
                            double s) {
    const double ds = (s - surface.s_ref) / surface.s_scale;
    return base + k[0] * ds + k[1] * dc + k[2] * ds * dc;
  };
  const auto endpoint_range = [&](const std::array<double, 3>& k,
                                  double base) {
    const double a = bilinear(k, base, slew.lo);
    const double b = bilinear(k, base, slew.hi);
    return Interval{std::min(a, b), std::max(a, b)};
  };
  out.mu = endpoint_range(surface.mu_coef, surface.ref.mu);
  out.sigma = endpoint_range(surface.sigma_coef, surface.ref.sigma);
  // Physical guard, identical to moments_at (monotone, so endpoint-exact).
  out.sigma = iv_floor_at(out.sigma, 0.05 * surface.ref.sigma);

  // gamma/kappa: cubics in the CLAMPED scaled slew at fixed clamped load.
  const double dcc =
      (std::clamp(load, surface.c_min, surface.c_max) - surface.c_ref) /
      surface.c_scale;
  const double dsc_lo =
      (std::clamp(slew.lo, surface.s_min, surface.s_max) - surface.s_ref) /
      surface.s_scale;
  const double dsc_hi =
      (std::clamp(slew.hi, surface.s_min, surface.s_max) - surface.s_ref) /
      surface.s_scale;
  const auto cubic_in_slew = [&](const std::array<double, 7>& k,
                                 double base) {
    // base + k0*s + k1*c + k2*s^2 + k3*c^2 + k4*s^3 + k5*c^3 + k6*s*c
    // regrouped as a univariate cubic in s = dsc.
    const double c0 =
        base + k[1] * dcc + k[3] * dcc * dcc + k[5] * dcc * dcc * dcc;
    const double c1 = k[0] + k[6] * dcc;
    return cubic_range(k[4], k[2], c1, c0, dsc_lo, dsc_hi);
  };
  const auto clamp_iv = [](const Interval& v, double lo, double hi) {
    return Interval{std::clamp(v.lo, lo, hi), std::clamp(v.hi, lo, hi)};
  };
  out.gamma = clamp_iv(cubic_in_slew(surface.gamma_coef, surface.ref.gamma),
                       -2.0, 5.0);
  out.kappa = clamp_iv(cubic_in_slew(surface.kappa_coef, surface.ref.kappa),
                       -1.5, 15.0);
  return out;
}

Interval grid_range_x(const Grid2D& grid, const Interval& x_iv, double y) {
  double lo = grid.lookup(x_iv.lo, y);
  double hi = lo;
  const auto consider = [&](double v) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  };
  consider(grid.lookup(x_iv.hi, y));
  // Interior breakpoints: lookup at fixed y is piecewise linear in x with
  // kinks only at the grid's x samples.
  for (double x : grid.xs()) {
    if (x > x_iv.lo && x < x_iv.hi) consider(grid.lookup(x, y));
  }
  return guarded(lo, hi);
}

Interval cell_stat_range(const MomentIntervals& m, double z_max,
                         bool moment_shaping) {
  Interval shape{-z_max, z_max};
  if (moment_shaping) {
    // StatArc::cell's coefficient construction (no from_moments clamps):
    // g6 = gamma/6, k24 = kappa/24, g36 = gamma^2/36. Treating g36 as an
    // independent box is conservative (sound) w.r.t. its correlation with
    // g6; for a degenerate gamma interval it is exact.
    const Interval g6{m.gamma.lo / 6.0, m.gamma.hi / 6.0};
    const Interval k24{m.kappa.lo / 24.0, m.kappa.hi / 24.0};
    const double s1 = m.gamma.lo * m.gamma.lo / 36.0;
    const double s2 = m.gamma.hi * m.gamma.hi / 36.0;
    Interval g36{std::min(s1, s2), std::max(s1, s2)};
    if (m.gamma.lo < 0.0 && m.gamma.hi > 0.0) g36.lo = 0.0;
    shape = cf_shape_range(g6, k24, g36, z_max);
  }
  const Interval spread = iv_mul(m.sigma, shape);
  return iv_floor_at(iv_add(m.mu, spread), 0.0);
}

Interval wire_range(double elmore, double xw, double z_max) {
  // Inner affine term elmore * (1 + xw * z) is monotone in z, so its range
  // is spanned by the z = +-z_max endpoints; wire_stage_delay's left-tail
  // floor is monotone and endpoint-exact.
  const double a = elmore * (1.0 - xw * z_max);
  const double b = elmore * (1.0 + xw * z_max);
  return iv_floor_at({std::min(a, b), std::max(a, b)},
                     kWireDelayFloor * elmore);
}

}  // namespace nsdc::analysis
