#include "stats/moments.hpp"

#include <cmath>

namespace nsdc {

void MomentAccumulator::merge(const MomentAccumulator& other) noexcept {
  rejected_ += other.rejected_;
  if (other.n_ == 0) return;
  if (n_ == 0) {
    const std::size_t rejected = rejected_;
    *this = other;
    rejected_ = rejected;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double delta2 = delta * delta;
  const double delta3 = delta2 * delta;
  const double delta4 = delta3 * delta;

  const double m2 = m2_ + other.m2_ + delta2 * na * nb / n;
  const double m3 = m3_ + other.m3_ +
                    delta3 * na * nb * (na - nb) / (n * n) +
                    3.0 * delta * (na * other.m2_ - nb * m2_) / n;
  const double m4 =
      m4_ + other.m4_ +
      delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
      6.0 * delta2 * (na * na * other.m2_ + nb * nb * m2_) / (n * n) +
      4.0 * delta * (na * other.m3_ - nb * m3_) / n;

  mean_ += delta * nb / n;
  m2_ = m2;
  m3_ = m3;
  m4_ = m4;
  n_ = n_ + other.n_;
}

double MomentAccumulator::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

Moments MomentAccumulator::moments() const noexcept {
  Moments m;
  m.mu = mean_;
  if (n_ < 2) return m;
  const double n = static_cast<double>(n_);
  const double var_pop = m2_ / n;
  m.sigma = std::sqrt(m2_ / (n - 1.0));
  if (var_pop <= 0.0) return m;
  const double sd_pop = std::sqrt(var_pop);
  m.gamma = (m3_ / n) / (sd_pop * sd_pop * sd_pop);
  m.kappa = (m4_ / n) / (var_pop * var_pop) - 3.0;
  return m;
}

MomentAccumulator::State MomentAccumulator::state() const noexcept {
  State s;
  s.n = n_;
  s.rejected = rejected_;
  s.mean = mean_;
  s.m2 = m2_;
  s.m3 = m3_;
  s.m4 = m4_;
  return s;
}

MomentAccumulator MomentAccumulator::from_state(const State& s) noexcept {
  MomentAccumulator acc;
  acc.n_ = static_cast<std::size_t>(s.n);
  acc.rejected_ = static_cast<std::size_t>(s.rejected);
  acc.mean_ = s.mean;
  acc.m2_ = s.m2;
  acc.m3_ = s.m3;
  acc.m4_ = s.m4;
  return acc;
}

Moments compute_moments(std::span<const double> samples) {
  MomentAccumulator acc;
  for (double x : samples) acc.add(x);
  return acc.moments();
}

}  // namespace nsdc
