#pragma once
// First-four-moment statistics.
//
// The N-sigma model (paper Sec. III) is parameterized by the moment vector
// [mu, sigma, gamma, kappa] of a delay sample set. Convention used across
// the library:
//   mu     — arithmetic mean
//   sigma  — standard deviation (unbiased, n-1)
//   gamma  — skewness, E[(x-mu)^3]/sigma^3
//   kappa  — EXCESS kurtosis, E[(x-mu)^4]/sigma^4 - 3
//
// kappa is stored as excess so that a Gaussian sample has gamma = kappa = 0
// and every Table-I quantile expression degenerates exactly to mu + n*sigma
// (the regression forms have no intercept, so this is the only convention
// under which the model is unbiased for Gaussian inputs).

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

namespace nsdc {

/// Moment vector of a sample set.
struct Moments {
  double mu = 0.0;     ///< mean
  double sigma = 0.0;  ///< standard deviation
  double gamma = 0.0;  ///< skewness
  double kappa = 0.0;  ///< excess kurtosis (Gaussian = 0)

  /// Coefficient of variation sigma/mu (wire-variability X in Sec. IV).
  double variability() const { return mu != 0.0 ? sigma / mu : 0.0; }
};

/// One-pass numerically stable accumulator for the first four moments
/// (Pebay's updating formulas — the 4th-order generalization of Welford).
///
/// Non-finite inputs (NaN/Inf — the signature of a diverged transient
/// simulation or an injected fault) are rejected instead of accumulated:
/// a single NaN would otherwise poison mean/variance/skew/kurtosis
/// irrecoverably. Rejections are counted so callers can quarantine-report
/// them (heavy-tailed delay distributions are exactly where rare overflow
/// samples would corrupt moment accumulation unnoticed).
class MomentAccumulator {
 public:
  /// Defined inline below: the netlist MC calls it once per sample and
  /// net-edge, a batch of samples back to back.
  void add(double x) noexcept;
  void merge(const MomentAccumulator& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  /// Non-finite inputs rejected by add() (merge() sums them).
  std::size_t rejected() const noexcept { return rejected_; }
  /// Finalized moments; requires count() >= 2 for sigma, >= 4 recommended.
  Moments moments() const noexcept;

  double mean() const noexcept { return mean_; }
  double variance() const noexcept;  ///< unbiased (n-1)

  /// Raw accumulator state, bit-exact — the checkpoint serialization unit.
  /// Restoring a state and continuing yields byte-identical results to an
  /// uninterrupted accumulation.
  struct State {
    std::uint64_t n = 0;
    std::uint64_t rejected = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double m3 = 0.0;
    double m4 = 0.0;
  };
  State state() const noexcept;
  static MomentAccumulator from_state(const State& s) noexcept;

 private:
  std::size_t n_ = 0;
  std::size_t rejected_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
};

inline void MomentAccumulator::add(double x) noexcept {
  if (!std::isfinite(x)) {
    ++rejected_;
    return;
  }
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ -
         4.0 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;
}

/// Batch helper: moments of a sample span.
Moments compute_moments(std::span<const double> samples);

}  // namespace nsdc
