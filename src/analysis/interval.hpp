#pragma once
// Closed-interval algebra for the static analysis passes (src/analysis).
//
// The framework certifies per-net arrival bounds without sampling: every
// per-arc delay is replaced by a conservative [lo, hi] interval and
// propagated through the levelized graph with interval addition and the
// (monotone) interval max. The algebra here is where soundness lives, so
// each range helper mirrors one concrete engine formula exactly:
//
//   grid_range_x       Grid2D::lookup over a slew interval at fixed load.
//                      Bilinear lookup with clamped-cell extrapolation is
//                      piecewise-LINEAR in x at fixed y, so the exact range
//                      is attained at the interval endpoints or interior
//                      grid breakpoints — no conservatism.
//   surface_moment_range
//                      CalibrationSurface::moments_at over a slew interval
//                      at fixed load, including the sigma floor and the
//                      gamma/kappa clamps (all monotone, so applying them
//                      to interval endpoints is exact). mu/sigma are linear
//                      in slew at fixed load; gamma/kappa are univariate
//                      cubics in the clamped slew, whose exact range is
//                      endpoints plus real roots of the derivative.
//   cf_shape_range     CornishFisher::shape over z in [-z_max, z_max] for
//                      coefficient boxes (g6, k24, g36). shape is linear in
//                      the coefficients at fixed z, so the sup over the box
//                      is attained at a corner; per corner the z-range is
//                      an exact cubic range. StatArc::cell builds
//                      g6 = gamma/6, k24 = kappa/24, g36 = gamma^2/36
//                      WITHOUT the from_moments clamps; the boxes follow
//                      that construction.
//   cell_stat_range    cell_stage_delay over a StatArc whose moments lie
//                      in the boxes: max(0, mu + sigma * shape(z)), the
//                      function NetlistMonteCarlo samples and AnalyticSsta
//                      integrates (Gauss-Hermite nodes at order 16 lie
//                      within +-4.7 < z_max's default 6).
//   wire_range         wire_stage_delay: max(kWireDelayFloor * elmore,
//                      elmore * (1 + xw * z)), Eq. 9 with the left-tail
//                      floor.
//
// Every bound is a "z_max certificate": it holds for all standard scores
// with |z| <= z_max per draw. Computed ranges are widened by a relative
// kRangeGuard so floating-point rounding in root extraction can never
// shave a true extremum off the interval.

#include <array>

#include "core/nsigma_cell.hpp"
#include "stats/grid.hpp"

namespace nsdc::analysis {

/// Relative widening applied to computed ranges (see header comment).
inline constexpr double kRangeGuard = 1e-9;

/// A closed interval [lo, hi]. Default: the degenerate point {0, 0}.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  static Interval point(double v) { return {v, v}; }

  bool contains(double v, double tol = 0.0) const {
    return v >= lo - tol && v <= hi + tol;
  }
  double width() const { return hi - lo; }
  bool valid() const { return lo <= hi; }
};

/// Elementwise sum: [a.lo + b.lo, a.hi + b.hi].
Interval iv_add(const Interval& a, const Interval& b);

/// Interval image of max(x, y): [max(a.lo, b.lo), max(a.hi, b.hi)].
/// Sound on BOTH sides because max is monotone in each argument.
Interval iv_max(const Interval& a, const Interval& b);

/// Smallest interval containing both (the union hull).
Interval iv_hull(const Interval& a, const Interval& b);

/// Exact product range {x * y : x in a, y in b} (four-corner rule).
Interval iv_mul(const Interval& a, const Interval& b);

/// Image of x -> max(floor_value, x).
Interval iv_floor_at(const Interval& a, double floor_value);

/// Exact range of a3*z^3 + a2*z^2 + a1*z + a0 over [zlo, zhi]: endpoints
/// plus any real stationary points inside, then widened by kRangeGuard.
Interval cubic_range(double a3, double a2, double a1, double a0, double zlo,
                     double zhi);

/// Range of CornishFisher::shape(z) = z + g6*(z^2-1) + k24*z*(z^2-3)
/// - g36*z*(2z^2-5) over z in [-z_max, z_max] and coefficients anywhere in
/// the given boxes (hull over the 8 coefficient corners; exact per corner).
Interval cf_shape_range(const Interval& g6, const Interval& k24,
                        const Interval& g36, double z_max);

/// The four calibrated moments as intervals.
struct MomentIntervals {
  Interval mu, sigma, gamma, kappa;
};

/// CalibrationSurface::moments_at over `slew` at the (scalar) `load`,
/// guards and clamps included. Exact (see header comment).
MomentIntervals surface_moment_range(const CalibrationSurface& surface,
                                     const Interval& slew, double load);

/// Grid2D::lookup range over x in `x_iv` at fixed y. Exact.
Interval grid_range_x(const Grid2D& grid, const Interval& x_iv, double y);

/// Range of the sampled cell delay max(0, mu + sigma_scaled * shape(z))
/// over the moment boxes and |z| <= z_max. `sigma` must already carry the
/// variation scale; when `moment_shaping` is false shape is the identity
/// (Gaussian draws), matching StatModelOptions::moment_shaping.
Interval cell_stat_range(const MomentIntervals& m, double z_max,
                         bool moment_shaping);

/// Range of wire_stage_delay(elmore, xw, z) over |z| <= z_max. `xw` must
/// already carry the variation scale.
Interval wire_range(double elmore, double xw, double z_max);

}  // namespace nsdc::analysis
