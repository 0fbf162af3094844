#include "core/pathdelay.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/yield.hpp"
#include "sta/engine.hpp"
#include "synthetic_charlib.hpp"

namespace nsdc {
namespace {

using testfix::make_charlib;

class PathDelayTest : public ::testing::Test {
 protected:
  PathDelayTest()
      : charlib(make_charlib()),
        cells(CellLibrary::standard()),
        cell_model(NSigmaCellModel::fit(charlib)),
        wire_model(NSigmaWireModel::fit(charlib, cells)),
        calc(cell_model, wire_model) {}

  PathStage make_stage(const std::string& cell, const std::string& next,
                       double wire_r = 200.0, double wire_c = 2e-15) {
    PathStage st;
    st.cell = &cells.by_name(cell);
    st.pin = 0;
    st.in_rising = true;
    st.input_slew = 50e-12;
    st.output_load = 3e-15;
    const int sink = st.wire.add_node(0, wire_r, wire_c);
    st.wire.mark_sink(sink, "next:0");
    st.sink_node = sink;
    st.load_cell = next;
    return st;
  }

  CharLib charlib;
  CellLibrary cells;
  NSigmaCellModel cell_model;
  NSigmaWireModel wire_model;
  PathDelayCalculator calc;
};

TEST_F(PathDelayTest, Equation10IsAdditive) {
  PathDescription p1;
  p1.stages.push_back(make_stage("INVx1", "INVx2"));
  PathDescription p2 = p1;
  p2.stages.push_back(make_stage("INVx2", "INVx4"));

  const auto q1 = calc.path_quantiles(p1);
  const auto q2 = calc.path_quantiles(p2);
  // Adding a stage adds exactly that stage's quantiles.
  PathDescription only2;
  only2.stages.push_back(make_stage("INVx2", "INVx4"));
  const auto qo = calc.path_quantiles(only2);
  for (int lv = 0; lv < 7; ++lv) {
    const auto l = static_cast<std::size_t>(lv);
    EXPECT_NEAR(q2[l], q1[l] + qo[l], 1e-20);
  }
}

TEST_F(PathDelayTest, BreakdownSumsToPathQuantiles) {
  PathDescription path;
  path.stages.push_back(make_stage("INVx1", "NAND2x2"));
  path.stages.push_back(make_stage("NAND2x2", "INVx4"));
  path.stages.push_back(make_stage("INVx4", ""));

  const auto breakdown = calc.breakdown(path);
  const auto total = calc.path_quantiles(path);
  ASSERT_EQ(breakdown.size(), 3u);
  for (int lv = 0; lv < 7; ++lv) {
    const auto l = static_cast<std::size_t>(lv);
    double sum = 0.0;
    for (const auto& b : breakdown) sum += b.cell[l] + b.wire[l];
    EXPECT_NEAR(sum, total[l], 1e-20);
  }
}

TEST_F(PathDelayTest, WireQuantilesUseDriverAndLoadCells) {
  PathDescription path;
  path.stages.push_back(make_stage("INVx1", "INVx1"));
  const auto b = calc.breakdown(path);
  EXPECT_NEAR(b[0].xw, wire_model.xw("INVx1", "INVx1"), 1e-12);
  EXPECT_NEAR(b[0].elmore, path.stages[0].wire.elmore(1), 1e-24);
  // Different load cell changes X_w.
  PathDescription path2;
  path2.stages.push_back(make_stage("INVx1", "NAND2x2"));
  const auto b2 = calc.breakdown(path2);
  EXPECT_NE(b[0].xw, b2[0].xw);
}

TEST_F(PathDelayTest, EmptyLoadCellDefaultsToFo4) {
  PathDescription path;
  path.stages.push_back(make_stage("INVx1", ""));
  const auto b = calc.breakdown(path);
  EXPECT_NEAR(b[0].xw, wire_model.xw("INVx1", "INVx4"), 1e-12);
}

TEST_F(PathDelayTest, WirelessStageHasZeroWireDelay) {
  PathStage st;
  st.cell = &cells.by_name("INVx1");
  st.pin = 0;
  st.in_rising = true;
  st.input_slew = 50e-12;
  st.output_load = 1e-15;
  st.sink_node = -1;
  PathDescription path;
  path.stages.push_back(st);
  const auto b = calc.breakdown(path);
  for (double w : b[0].wire) EXPECT_DOUBLE_EQ(w, 0.0);
  EXPECT_DOUBLE_EQ(b[0].elmore, 0.0);
}

TEST_F(PathDelayTest, NegativeWireQuantileGuard) {
  // With a (contrived) X_w > 1/3, the -3 sigma wire delay must stay
  // positive (clamped at 5% of Elmore).
  PathDescription path;
  path.stages.push_back(make_stage("INVx1", "INVx1"));
  const auto b = calc.breakdown(path);
  // Direct formula check through the model:
  const auto q = wire_model.quantiles(10e-12, 0.5);
  EXPECT_LT(q[0], 0.0);  // raw Eq. 9 goes negative...
  // ...but the calculator clamps:
  for (double w : b[0].wire) EXPECT_GT(w, 0.0);
}

TEST_F(PathDelayTest, QuantilesIncreaseWithLevel) {
  PathDescription path;
  for (int i = 0; i < 5; ++i) {
    path.stages.push_back(make_stage("NAND2x2", "NAND2x2"));
  }
  const auto q = calc.path_quantiles(path);
  for (int lv = 1; lv < 7; ++lv) {
    EXPECT_GT(q[static_cast<std::size_t>(lv)],
              q[static_cast<std::size_t>(lv - 1)]);
  }
}

// ----------------------------------------------------------------- yield

TEST_F(PathDelayTest, YieldInvertsQuantiles) {
  const TechParams tech = TechParams::nominal28();
  GateNetlist nl("y");
  int net = nl.add_primary_input("a");
  for (int i = 0; i < 4; ++i) {
    const int g = nl.add_cell("u" + std::to_string(i), cells.by_name("INVx2"),
                              {net}, "w" + std::to_string(i));
    net = nl.cell(g).out_net;
  }
  nl.mark_primary_output(net);
  ParasiticDb empty;
  StaEngine engine(cell_model, tech);
  const auto res = engine.run(nl, empty);
  const auto path = engine.extract_critical_path(nl, res);

  const auto q = calc.path_quantiles(path);
  EXPECT_NEAR(timing_yield(calc, path, q[6]), 0.99865, 1e-3);
  EXPECT_NEAR(timing_yield(calc, path, q[3]), 0.5, 1e-3);
  EXPECT_NEAR(timing_yield(calc, path, q[0]), 0.00135, 1e-3);
  // Outside the modeled range.
  EXPECT_LT(timing_yield(calc, path, 0.0), 1e-6);
  EXPECT_GT(timing_yield(calc, path, 1.0), 1.0 - 1e-6);
  // Inverse query round-trips.
  const double p99 = period_for_yield(calc, path, 0.99);
  EXPECT_NEAR(timing_yield(calc, path, p99), 0.99, 1e-6);
  EXPECT_THROW(period_for_yield(calc, path, 1.5), std::domain_error);
}

}  // namespace
}  // namespace nsdc
