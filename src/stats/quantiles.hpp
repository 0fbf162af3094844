#pragma once
// Empirical quantiles and the sigma-level <-> probability mapping used by
// the N-sigma model (paper Table I: -3s..+3s correspond to the Gaussian
// percentiles 0.14%, 2.28%, 15.87%, 50%, 84.13%, 97.72%, 99.86%).

#include <array>
#include <span>
#include <vector>

#include "stats/moments.hpp"

namespace nsdc {

/// Standard normal CDF.
double normal_cdf(double x);
/// Standard normal PDF.
double normal_pdf(double x);
/// Inverse standard normal CDF (Acklam's rational approximation, |err|<1e-9).
double normal_quantile(double p);

/// Probability mass below the n-sigma point of a standard normal, i.e. the
/// "percent defective" column of Table I (n = -3 -> 0.00135, n = 0 -> 0.5).
double sigma_level_probability(double n_sigma);

/// Sigma levels evaluated by the paper.
inline constexpr std::array<int, 7> kSigmaLevels{-3, -2, -1, 0, 1, 2, 3};

/// Empirical p-quantile (type-7 linear interpolation, the R/NumPy default).
/// `sorted` must be ascending.
double quantile_sorted(std::span<const double> sorted, double p);

/// Empirical quantile of an unsorted sample (copies + sorts).
double quantile(std::span<const double> samples, double p);

/// All seven sigma-level quantiles of a sample, ordered -3s..+3s.
std::array<double, 7> sigma_quantiles(std::span<const double> samples);

/// Tail quantile via peaks-over-threshold: a generalized-Pareto fit
/// (probability-weighted moments) to the empirical tail beyond the
/// `tail_fraction` threshold, evaluated at probability p. Falls back to
/// the order-statistic estimate when p is not in the fitted tail or the
/// fit degenerates. This is the low-variance estimator characterization
/// uses for its +-2s/+-3s labels — with a few hundred samples the raw
/// 0.135% order statistic is essentially the sample minimum.
double pot_quantile_sorted(std::span<const double> sorted, double p,
                           double tail_fraction = 0.12);

/// Seven sigma-level quantiles with POT-smoothed +-2s/+-3s entries and
/// order-statistic inner levels.
std::array<double, 7> sigma_quantiles_smoothed(std::span<const double> samples);

/// Sorted copy helper.
std::vector<double> sorted_copy(std::span<const double> samples);

/// Cornish-Fisher shaping polynomial: maps a standard normal score z to a
/// score whose distribution approximates the target skewness/kurtosis,
///   x(z) = z + g6*(z^2-1) + k24*z*(z^2-3) - g36*z*(2*z^2-5),
/// with g6 = gamma/6, k24 = kappa/24, g36 = gamma^2/36 (kappa is EXCESS
/// kurtosis, so gamma = kappa = 0 is the identity). This is the transform
/// the Monte-Carlo samplers draw through and the quantile form the
/// analytic SSTA engine reports through — shared here so sampler and
/// analytic engine are moment-consistent by construction.
struct CornishFisher {
  double g6 = 0.0;
  double k24 = 0.0;
  double g36 = 0.0;

  /// Coefficients for a target (gamma, kappa). The shape parameters are
  /// clamped to gamma in [-3, 3], kappa in [-2, 6]: outside that range the
  /// third-order expansion loses monotonicity long before it loses
  /// accuracy, and calibrated stage moments never leave it.
  static CornishFisher from_moments(double gamma, double kappa);

  /// Shaped standard score. Kept to the exact expression (and evaluation
  /// order) of the MC hot loops so shared goldens cannot drift.
  double shape(double z) const {
    const double z2 = z * z;
    return z + g6 * (z2 - 1.0) + k24 * z * (z2 - 3.0) -
           g36 * z * (2.0 * z2 - 5.0);
  }
};

/// N-sigma quantile of a four-moment summary via the Cornish-Fisher
/// expansion: mu + sigma * shape(n_sigma). Gaussian moments reduce it to
/// mu + n*sigma exactly.
double cornish_fisher_quantile(const Moments& m, double n_sigma);

/// Probability density of the Cornish-Fisher four-moment family at its
/// own quantile point q(n_sigma) — phi(n) / q'(n). Used to turn empirical
/// MC quantiles into standard-error estimates (SE = sqrt(p(1-p)/n) / f).
double cornish_fisher_density_at(const Moments& m, double n_sigma);

/// Gauss-Hermite quadrature in probabilists' form: nodes x_i and weights
/// w_i with sum(w_i) = 1 such that sum(w_i f(x_i)) = E[f(Z)], Z ~ N(0,1),
/// exactly for polynomials of degree <= 2n-1. Nodes ascend; the rule is
/// computed once per order and cached (deterministic bisection on the
/// interlacing Hermite roots, no randomness).
struct GaussHermite {
  std::vector<double> nodes;
  std::vector<double> weights;

  static const GaussHermite& order(int n);
};

}  // namespace nsdc
