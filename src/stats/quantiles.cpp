#include "stats/quantiles.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numbers>
#include <stdexcept>

namespace nsdc {

double normal_pdf(double x) {
  return std::exp(-0.5 * x * x) / std::sqrt(2.0 * std::numbers::pi);
}

double normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::numbers::sqrt2);
}

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::domain_error("normal_quantile: p must be in (0,1)");
  }
  // Acklam's algorithm.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;
  double x = 0.0;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= p_high) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step for ~1e-15 accuracy.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * std::numbers::pi) * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

double sigma_level_probability(double n_sigma) { return normal_cdf(n_sigma); }

namespace {

/// The two order statistics a type-7 quantile at p interpolates between
/// in a sample of n >= 2, and the weight of the upper one.
struct Type7Bracket {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;
};

Type7Bracket type7_bracket(std::size_t n, double p) {
  p = std::clamp(p, 0.0, 1.0);
  const double h = p * (static_cast<double>(n) - 1.0);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  return {lo, std::min(lo + 1, n - 1), h - static_cast<double>(lo)};
}

}  // namespace

double quantile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("quantile: empty sample");
  if (sorted.size() == 1) return sorted[0];
  const Type7Bracket b = type7_bracket(sorted.size(), p);
  return sorted[b.lo] + b.frac * (sorted[b.hi] - sorted[b.lo]);
}

double quantile(std::span<const double> samples, double p) {
  const std::vector<double> s = sorted_copy(samples);
  return quantile_sorted(s, p);
}

std::array<double, 7> sigma_quantiles(std::span<const double> samples) {
  const std::vector<double> s = sorted_copy(samples);
  std::array<double, 7> out{};
  for (std::size_t i = 0; i < kSigmaLevels.size(); ++i) {
    out[i] = quantile_sorted(s, sigma_level_probability(kSigmaLevels[i]));
  }
  return out;
}

namespace {

// Generalized-Pareto fit to exceedances by probability-weighted moments
// (Hosking & Wallis): returns {xi, sigma}; ok=false when degenerate.
struct GpdFit {
  double xi = 0.0;
  double sigma = 0.0;
  bool ok = false;
};

/// Samples below which pot_quantile_sorted falls back to the order statistic.
constexpr std::size_t kPotMinSamples = 80;
/// The tail fraction sigma_quantiles_smoothed fits (pot_quantile_sorted's
/// default).
constexpr double kPotTailFraction = 0.12;

/// Size of the upper (or lower) block pot_quantile_sorted fits.
std::size_t pot_tail_size(std::size_t n, double tail_fraction) {
  return static_cast<std::size_t>(
      std::floor(tail_fraction * static_cast<double>(n)));
}

GpdFit fit_gpd_pwm(const std::vector<double>& exceedances) {
  GpdFit fit;
  const std::size_t n = exceedances.size();
  if (n < 8) return fit;
  // exceedances must be sorted ascending.
  double b0 = 0.0, b1 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    b0 += exceedances[i];
    // Hosking's a1 = E[X (1 - F(X))], with plotting position
    // F_i = (i + 0.65)/n on the ascending exceedances.
    b1 += exceedances[i] *
          (1.0 - (static_cast<double>(i) + 0.65) / static_cast<double>(n));
  }
  b0 /= static_cast<double>(n);
  b1 /= static_cast<double>(n);
  const double denom = b0 - 2.0 * b1;
  if (std::fabs(denom) < 1e-300) return fit;
  fit.xi = 2.0 - b0 / denom;
  fit.sigma = 2.0 * b0 * b1 / denom;
  // Guard against wild shapes; |xi| > 1 means infinite-variance fits that
  // only amplify noise.
  if (!(fit.sigma > 0.0) || std::fabs(fit.xi) > 1.0) return fit;
  fit.ok = true;
  return fit;
}

}  // namespace

double pot_quantile_sorted(std::span<const double> sorted, double p,
                           double tail_fraction) {
  const std::size_t n = sorted.size();
  if (n == 0) throw std::invalid_argument("pot_quantile: empty sample");
  const bool lower = p < 0.5;
  const double tail_p = lower ? p : 1.0 - p;
  if (tail_p >= tail_fraction || n < kPotMinSamples) {
    return quantile_sorted(sorted, p);  // not in the fitted tail
  }
  const std::size_t n_tail = pot_tail_size(n, tail_fraction);
  // Threshold = the order statistic bounding the tail block.
  std::vector<double> exceed;
  exceed.reserve(n_tail);
  double u = 0.0;
  if (lower) {
    u = sorted[n_tail];
    for (std::size_t i = 0; i < n_tail; ++i) exceed.push_back(u - sorted[n_tail - 1 - i]);
  } else {
    u = sorted[n - 1 - n_tail];
    for (std::size_t i = 0; i < n_tail; ++i) {
      exceed.push_back(sorted[n - n_tail + i] - u);
    }
  }
  std::sort(exceed.begin(), exceed.end());
  const GpdFit fit = fit_gpd_pwm(exceed);
  if (!fit.ok) return quantile_sorted(sorted, p);
  const double pu = static_cast<double>(n_tail) / static_cast<double>(n);
  const double ratio = tail_p / pu;  // in (0,1)
  double y;
  if (std::fabs(fit.xi) < 1e-8) {
    y = -fit.sigma * std::log(ratio);
  } else {
    y = fit.sigma / fit.xi * (std::pow(ratio, -fit.xi) - 1.0);
  }
  return lower ? u - y : u + y;
}

namespace {

/// Moves into each index of `pos` (ascending, inside [begin, end)) the value
/// a full ascending sort of `s` puts there. [begin, end) must already hold
/// the values a full sort puts in that range; the partition around each
/// selected index keeps that true for the ranges on either side of it.
void select_order_statistics(std::vector<double>& s, std::size_t begin,
                             std::size_t end,
                             std::span<const std::size_t> pos) {
  if (pos.empty()) return;
  const std::size_t mid = pos.size() / 2;
  const auto at = s.begin();
  std::nth_element(at + static_cast<std::ptrdiff_t>(begin),
                   at + static_cast<std::ptrdiff_t>(pos[mid]),
                   at + static_cast<std::ptrdiff_t>(end));
  select_order_statistics(s, begin, pos[mid], pos.first(mid));
  select_order_statistics(s, pos[mid] + 1, end, pos.subspan(mid + 1));
}

/// Leaves every entry of `s` that sigma_quantiles_smoothed reads where a
/// full ascending sort puts it: each level's type-7 bracket (the POT levels
/// read theirs when the fit falls back), the POT threshold and the upper
/// tail block, which is sorted as the fit reads it. Below the POT sample
/// floor the whole sample is sorted. Each read value equals the sorted
/// sample's, so every quantile keeps its bits.
void order_read_positions(std::vector<double>& s) {
  const std::size_t n = s.size();
  if (n < kPotMinSamples) {
    std::sort(s.begin(), s.end());
    return;
  }
  const std::size_t top = n - pot_tail_size(n, kPotTailFraction);
  std::array<std::size_t, 2 * kSigmaLevels.size() + 1> pos{};
  for (std::size_t i = 0; i < kSigmaLevels.size(); ++i) {
    const Type7Bracket b =
        type7_bracket(n, sigma_level_probability(kSigmaLevels[i]));
    pos[2 * i] = b.lo;
    pos[2 * i + 1] = b.hi;
  }
  pos.back() = top - 1;  // the POT threshold
  std::sort(pos.begin(), pos.end());
  // The tail block's sort below places the indices at or past `top`.
  const auto last =
      std::unique(pos.begin(), std::lower_bound(pos.begin(), pos.end(), top));
  select_order_statistics(s, 0, n,
                          std::span<const std::size_t>(pos.begin(), last));
  std::sort(s.begin() + static_cast<std::ptrdiff_t>(top), s.end());
}

}  // namespace

std::array<double, 7> sigma_quantiles_smoothed(
    std::span<const double> samples) {
  std::vector<double> s(samples.begin(), samples.end());
  order_read_positions(s);
  std::array<double, 7> out{};
  for (std::size_t i = 0; i < kSigmaLevels.size(); ++i) {
    const double p = sigma_level_probability(kSigmaLevels[i]);
    const int lvl = kSigmaLevels[i];
    // POT only where it wins: the heavy upper tail. The lower tail of a
    // delay distribution is short/compressed, where the order statistic
    // is already tight and the GPD fit adds noise.
    out[i] = lvl >= 2 ? pot_quantile_sorted(s, p, kPotTailFraction)
                      : quantile_sorted(s, p);
  }
  // POT fits of the two tail levels are independent; enforce ordering.
  for (std::size_t i = 1; i < out.size(); ++i) {
    out[i] = std::max(out[i], out[i - 1]);
  }
  return out;
}

std::vector<double> sorted_copy(std::span<const double> samples) {
  std::vector<double> s(samples.begin(), samples.end());
  std::sort(s.begin(), s.end());
  return s;
}

CornishFisher CornishFisher::from_moments(double gamma, double kappa) {
  const double g = std::clamp(gamma, -3.0, 3.0);
  const double k = std::clamp(kappa, -2.0, 6.0);
  CornishFisher cf;
  cf.g6 = g / 6.0;
  cf.k24 = k / 24.0;
  cf.g36 = g * g / 36.0;
  return cf;
}

double cornish_fisher_quantile(const Moments& m, double n_sigma) {
  const CornishFisher cf = CornishFisher::from_moments(m.gamma, m.kappa);
  return m.mu + m.sigma * cf.shape(n_sigma);
}

double cornish_fisher_density_at(const Moments& m, double n_sigma) {
  const CornishFisher cf = CornishFisher::from_moments(m.gamma, m.kappa);
  // dq/dn = sigma * shape'(n); density at q(n) is phi(n) / (dq/dn).
  const double z = n_sigma;
  const double dshape = 1.0 + cf.g6 * 2.0 * z + cf.k24 * (3.0 * z * z - 3.0) -
                        cf.g36 * (6.0 * z * z - 5.0);
  const double slope = m.sigma * std::max(dshape, 1e-6);
  if (!(slope > 0.0)) return 0.0;
  return normal_pdf(z) / slope;
}

namespace {

// Probabilists' Hermite polynomial He_n(x) by the three-term recurrence.
double hermite_he(int n, double x) {
  double hm = 1.0;  // He_0
  if (n == 0) return hm;
  double h = x;  // He_1
  for (int k = 1; k < n; ++k) {
    const double next = x * h - static_cast<double>(k) * hm;
    hm = h;
    h = next;
  }
  return h;
}

GaussHermite build_gauss_hermite(int n) {
  // Roots of He_n bracketed by the interlacing roots of He_{n-1} (plus the
  // outer bound sqrt(4n+2) > largest root) and refined by bisection —
  // deterministic to the last bit regardless of libm quirks in iterative
  // polishers.
  GaussHermite rule;
  std::vector<double> prev;  // ascending roots of He_{n-1}
  for (int m = 1; m <= n; ++m) {
    std::vector<double> roots(static_cast<std::size_t>(m));
    const double bound = std::sqrt(4.0 * m + 2.0);
    for (int i = 0; i < m; ++i) {
      double lo = (i == 0) ? -bound : prev[static_cast<std::size_t>(i - 1)];
      double hi = (i == m - 1) ? bound : prev[static_cast<std::size_t>(i)];
      double flo = hermite_he(m, lo);
      for (int iter = 0; iter < 200; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi) break;
        const double fmid = hermite_he(m, mid);
        if ((flo < 0.0) == (fmid < 0.0)) {
          lo = mid;
          flo = fmid;
        } else {
          hi = mid;
        }
      }
      roots[static_cast<std::size_t>(i)] = 0.5 * (lo + hi);
    }
    prev = std::move(roots);
  }
  rule.nodes = prev;
  rule.weights.resize(static_cast<std::size_t>(n));
  // Probabilists' weights: w_i = (n-1)! / (n * He_{n-1}(x_i)^2), normalized
  // so they sum to 1 (E[1] = 1). Compute in log space to dodge overflow.
  double log_fact = 0.0;
  for (int k = 2; k < n; ++k) log_fact += std::log(static_cast<double>(k));
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const double h = hermite_he(n - 1, rule.nodes[static_cast<std::size_t>(i)]);
    const double w = std::exp(log_fact - std::log(static_cast<double>(n)) -
                              2.0 * std::log(std::fabs(h)));
    rule.weights[static_cast<std::size_t>(i)] = w;
    total += w;
  }
  for (double& w : rule.weights) w /= total;
  // Symmetrize: average mirrored nodes/weights so the rule is exactly odd
  // in nodes and even in weights (guards bisection's last-bit asymmetry).
  for (int i = 0, j = n - 1; i < j; ++i, --j) {
    const auto si = static_cast<std::size_t>(i);
    const auto sj = static_cast<std::size_t>(j);
    const double x = 0.5 * (rule.nodes[sj] - rule.nodes[si]);
    rule.nodes[si] = -x;
    rule.nodes[sj] = x;
    const double w = 0.5 * (rule.weights[si] + rule.weights[sj]);
    rule.weights[si] = w;
    rule.weights[sj] = w;
  }
  if (n % 2 == 1) rule.nodes[static_cast<std::size_t>(n / 2)] = 0.0;
  return rule;
}

}  // namespace

const GaussHermite& GaussHermite::order(int n) {
  if (n < 1 || n > 64) {
    throw std::invalid_argument("GaussHermite::order: n must be in [1,64]");
  }
  static std::array<GaussHermite, 65> cache;
  static std::array<std::once_flag, 65> flags;
  const auto idx = static_cast<std::size_t>(n);
  std::call_once(flags[idx], [idx, n] { cache[idx] = build_gauss_hermite(n); });
  return cache[idx];
}

}  // namespace nsdc
