// End-to-end integration tests exercising the real transistor-level
// simulator through characterization, model fitting, STA and the golden
// path Monte-Carlo — with small sample counts to stay fast (< ~1 min).
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/mc_reference.hpp"
#include "liberty/charlib.hpp"
#include "sta/annotate.hpp"
#include "sta/timer.hpp"

namespace nsdc {
namespace {

CharConfig tiny_config() {
  CharConfig cfg;
  cfg.grid_samples = 150;
  cfg.wire_samples = 100;
  cfg.slew_grid = {10e-12, 150e-12, 400e-12};
  cfg.load_grid_rel = {1.0, 8.0, 25.0};
  return cfg;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tech_ = new TechParams(TechParams::nominal28());
    cells_ = new CellLibrary(CellLibrary::standard());
    // Characterize a minimal cell set by hand (build_or_load would do the
    // whole library).
    CellCharacterizer ch(*tech_, tiny_config());
    charlib_ = new CharLib();
    charlib_->set_tech(*tech_);
    charlib_->set_config(tiny_config());
    for (const char* name : {"INVx1", "INVx4"}) {
      for (bool rising : {true, false}) {
        charlib_->add_arc(
            ch.characterize_arc(cells_->by_name(name), 0, rising));
      }
    }
    WireGenerator wires(*tech_);
    const RcTree tree = wires.line(60.0, 6, "Z");
    for (const char* d : {"INVx1", "INVx4"}) {
      for (const char* l : {"INVx1", "INVx4"}) {
        charlib_->add_wire_observation(ch.run_wire_observation(
            cells_->by_name(d), cells_->by_name(l), tree, 0, 100));
      }
    }
  }

  static void TearDownTestSuite() {
    delete charlib_;
    delete cells_;
    delete tech_;
    charlib_ = nullptr;
    cells_ = nullptr;
    tech_ = nullptr;
  }

  static TechParams* tech_;
  static CellLibrary* cells_;
  static CharLib* charlib_;
};

TechParams* IntegrationTest::tech_ = nullptr;
CellLibrary* IntegrationTest::cells_ = nullptr;
CharLib* IntegrationTest::charlib_ = nullptr;

TEST_F(IntegrationTest, NearThresholdDelayIsRightSkewed) {
  // The paper's premise: at 0.6 V the delay distribution is asymmetric
  // with a heavy right tail.
  const auto& ref = charlib_->arc("INVx1", 0, true).ref();
  EXPECT_GT(ref.moments.gamma, 0.3);
  EXPECT_GT(ref.moments.kappa, 0.0);
  // Right tail wider than left: q(+3) - median > median - q(-3).
  const double right = ref.quantiles[6] - ref.quantiles[3];
  const double left = ref.quantiles[3] - ref.quantiles[0];
  EXPECT_GT(right, 1.2 * left);
}

TEST_F(IntegrationTest, MomentsGrowWithLoadAndSlew) {
  const auto& arc = charlib_->arc("INVx1", 0, true);
  // Mean grows monotonically with load at fixed slew (paper Fig. 4).
  for (std::size_t si = 0; si < arc.slews.size(); ++si) {
    for (std::size_t li = 1; li < arc.loads.size(); ++li) {
      EXPECT_GT(arc.at(si, li).moments.mu, arc.at(si, li - 1).moments.mu);
    }
  }
  // Sigma grows with load at the reference slew.
  EXPECT_GT(arc.at(0, 2).moments.sigma, arc.at(0, 0).moments.sigma);
}

TEST_F(IntegrationTest, StrongCellIsFasterAndLessVariable) {
  const auto& x1 = charlib_->arc("INVx1", 0, true).ref();
  const auto& x4 = charlib_->arc("INVx4", 0, true).ref();
  // Same relative load (c_ref scales with strength), so delay is similar
  // but variability falls with strength (Pelgrom averaging).
  EXPECT_LT(x4.moments.variability(), x1.moments.variability());
}

TEST_F(IntegrationTest, WireObservationsPhysical) {
  for (const auto& obs : charlib_->wire_observations()) {
    EXPECT_GT(obs.wire_moments.mu, 0.0);
    EXPECT_GT(obs.variability(), 0.0);
    EXPECT_LT(obs.variability(), 1.0);
    // Elmore is an upper-bound-flavored metric: the MC mean wire delay
    // should be below ~1.2x Elmore and above ~0.2x.
    EXPECT_LT(obs.wire_moments.mu, 1.2 * obs.elmore);
    EXPECT_GT(obs.wire_moments.mu, 0.2 * obs.elmore);
  }
}

TEST_F(IntegrationTest, ElmoreTracksWireDelayMean) {
  // In this substrate the MC mean wire delay stays close to Elmore
  // (paper Eq. 4: T_Elmore = mu_w), and the variability band is set by
  // the BEOL variation plus the driver/load coupling. The strength TRENDS
  // (paper Fig. 8) are exercised with large sample counts in
  // bench_fig8_strength_effect; a unit-test budget would make them flaky.
  for (const auto& obs : charlib_->wire_observations()) {
    EXPECT_NEAR(obs.wire_moments.mu, obs.elmore, 0.15 * obs.elmore)
        << obs.driver_cell << "->" << obs.load_cell;
    EXPECT_GT(obs.variability(), 0.03);
    EXPECT_LT(obs.variability(), 0.5);
  }
}

TEST_F(IntegrationTest, TimerEndToEndOnInverterChain) {
  NSigmaTimer timer(*charlib_, *cells_, *tech_);

  GateNetlist nl("chain5");
  int net = nl.add_primary_input("a");
  for (int i = 0; i < 5; ++i) {
    const int g = nl.add_cell("u" + std::to_string(i),
                              cells_->by_name(i % 2 ? "INVx4" : "INVx1"),
                              {net}, "w" + std::to_string(i));
    net = nl.cell(g).out_net;
  }
  nl.mark_primary_output(net);
  const ParasiticDb spef = generate_parasitics(nl, *tech_);

  const auto analysis = timer.analyze(nl, spef);
  ASSERT_EQ(analysis.critical_path.num_stages(), 5u);
  // Quantiles ordered and positive.
  EXPECT_GT(analysis.quantiles[0], 0.0);
  for (int lv = 1; lv < 7; ++lv) {
    EXPECT_GT(analysis.quantiles[static_cast<std::size_t>(lv)],
              analysis.quantiles[static_cast<std::size_t>(lv - 1)]);
  }

  // Golden MC cross-check at +-1 sigma (tails need more samples than a
  // unit test budget allows).
  McConfig mcc;
  mcc.samples = 120;
  mcc.seed = 99;
  PathMonteCarlo mc(*tech_);
  const auto ref = mc.run(analysis.critical_path, mcc);
  ASSERT_GE(ref.samples.size(), 100u);
  EXPECT_LT(std::fabs(analysis.quantiles[3] - ref.quantiles[3]),
            0.25 * ref.quantiles[3]);
  EXPECT_LT(std::fabs(analysis.quantiles[4] - ref.quantiles[4]),
            0.30 * ref.quantiles[4]);
  EXPECT_LT(std::fabs(analysis.quantiles[2] - ref.quantiles[2]),
            0.30 * ref.quantiles[2]);
  // Model evaluation is orders of magnitude faster than MC.
  EXPECT_LT(analysis.runtime_seconds, ref.runtime_seconds);
}

TEST_F(IntegrationTest, ShapeCalibrationHitsTargets) {
  CellCharacterizer ch(*tech_, tiny_config());
  const CellType& inv = cells_->by_name("INVx1");
  for (double target : {20e-12, 100e-12, 300e-12}) {
    const auto sp = ch.calibrate_shape(inv, 0, true, target);
    EXPECT_NEAR(sp.actual_slew, target, 0.08 * target) << target;
  }
}

}  // namespace
}  // namespace nsdc
