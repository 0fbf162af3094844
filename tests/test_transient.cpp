#include "spice/transient.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "pdk/cellgen.hpp"

namespace nsdc {
namespace {

TEST(Dc, ResistorDivider) {
  Circuit ckt;
  const NodeId top = ckt.make_node();
  const NodeId mid = ckt.make_node();
  ckt.add_vsource(top, kGround, Pwl::constant(1.0));
  ckt.add_resistor(top, mid, 1000.0);
  ckt.add_resistor(mid, kGround, 3000.0);
  bool ok = false;
  const auto v = solve_dc(ckt, &ok);
  ASSERT_TRUE(ok);
  EXPECT_NEAR(v[static_cast<std::size_t>(top)], 1.0, 1e-9);
  EXPECT_NEAR(v[static_cast<std::size_t>(mid)], 0.75, 1e-9);
}

TEST(Dc, InverterOperatingPoints) {
  TechParams tech = TechParams::nominal28();
  Circuit ckt;
  const NodeId vdd = ckt.make_node();
  ckt.add_vsource(vdd, kGround, Pwl::constant(tech.vdd));
  const NodeId in = ckt.make_node();
  ckt.add_vsource(in, kGround, Pwl::constant(0.0));
  CellNetlister nl(tech);
  CellLibrary lib = CellLibrary::standard();
  const NodeId in_nodes[] = {in};
  const NodeId out = nl.instantiate(ckt, lib.by_name("INVx1"), in_nodes, vdd,
                                    GlobalCorner::nominal(), nullptr);
  ckt.set_initial_voltage(vdd, tech.vdd);
  ckt.set_initial_voltage(out, tech.vdd);
  bool ok = false;
  const auto v = solve_dc(ckt, &ok);
  ASSERT_TRUE(ok);
  // Input low -> output at the rail.
  EXPECT_NEAR(v[static_cast<std::size_t>(out)], tech.vdd, 5e-3);
}

TEST(Transient, RcStepResponseMatchesAnalytic) {
  // V -> R -> node -> C to ground. Step at t = 0 via a fast ramp.
  Circuit ckt;
  const NodeId src = ckt.make_node();
  const NodeId out = ckt.make_node();
  const double r = 1e4, c = 1e-15;  // tau = 10 ps
  ckt.add_vsource(src, kGround, Pwl::ramp(1e-12, 0.0, 1.0, 1e-15));
  ckt.add_resistor(src, out, r);
  ckt.add_capacitor(out, kGround, c);
  TransientOptions opts;
  opts.tstop = 100e-12;
  opts.dt_max = 0.05e-12;
  const auto res = run_transient(ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;
  const Trace& tr = res.traces[static_cast<std::size_t>(out)];
  const double tau = r * c;
  // Compare at several times; the ramp completes by ~2.25 ps.
  const double t0 = 1e-12 + 1.25e-15;
  for (double t : {2.0 * tau, 3.0 * tau, 5.0 * tau}) {
    const double expected = 1.0 - std::exp(-t / tau);
    EXPECT_NEAR(tr.at(t0 + t), expected, 0.01) << t;
  }
}

TEST(Transient, CapacitorHoldsChargeWithoutPath) {
  // A capacitor precharged by DC through a resistor to a source at 0.7 V
  // stays at 0.7 V when nothing changes.
  Circuit ckt;
  const NodeId src = ckt.make_node();
  const NodeId out = ckt.make_node();
  ckt.add_vsource(src, kGround, Pwl::constant(0.7));
  ckt.add_resistor(src, out, 1e3);
  ckt.add_capacitor(out, kGround, 1e-15);
  TransientOptions opts;
  opts.tstop = 1e-9;
  const auto res = run_transient(ckt, opts);
  ASSERT_TRUE(res.ok);
  const Trace& tr = res.traces[static_cast<std::size_t>(out)];
  EXPECT_NEAR(tr.v.front(), 0.7, 1e-6);
  EXPECT_NEAR(tr.v.back(), 0.7, 1e-6);
}

TEST(Transient, VsourceTracksPwl) {
  Circuit ckt;
  const NodeId a = ckt.make_node();
  ckt.add_vsource(a, kGround, Pwl({{0.0, 0.0}, {1e-9, 1.0}}));
  ckt.add_resistor(a, kGround, 1e6);
  TransientOptions opts;
  opts.tstop = 1e-9;
  const auto res = run_transient(ckt, opts);
  ASSERT_TRUE(res.ok);
  const Trace& tr = res.traces[static_cast<std::size_t>(a)];
  EXPECT_NEAR(tr.at(0.5e-9), 0.5, 1e-6);
  EXPECT_NEAR(tr.at(1e-9), 1.0, 1e-6);
}

TEST(Transient, InverterSwitchDelayInSaneRange) {
  TechParams tech = TechParams::nominal28();
  Circuit ckt;
  const NodeId vdd = ckt.make_node();
  ckt.add_vsource(vdd, kGround, Pwl::constant(tech.vdd));
  ckt.set_initial_voltage(vdd, tech.vdd);
  const NodeId in = ckt.make_node();
  ckt.add_vsource(in, kGround, Pwl::ramp(20e-12, 0.0, tech.vdd, 10e-12));
  CellNetlister nl(tech);
  CellLibrary lib = CellLibrary::standard();
  const NodeId in_nodes[] = {in};
  const NodeId out = nl.instantiate(ckt, lib.by_name("INVx1"), in_nodes, vdd,
                                    GlobalCorner::nominal(), nullptr);
  ckt.set_initial_voltage(out, tech.vdd);
  ckt.add_capacitor(out, kGround, 1.5e-15);
  TransientOptions opts;
  opts.tstop = 600e-12;
  const auto res = run_transient(ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;
  const auto d = measure_delay(res.traces[static_cast<std::size_t>(in)], true,
                               res.traces[static_cast<std::size_t>(out)], false,
                               tech.vdd);
  ASSERT_TRUE(d.has_value());
  // Near-threshold INVx1 into 1.5 fF: tens of ps.
  EXPECT_GT(*d, 5e-12);
  EXPECT_LT(*d, 300e-12);
}

TEST(Transient, RejectsNonpositiveTstop) {
  Circuit ckt;
  (void)ckt.make_node();
  TransientOptions opts;
  opts.tstop = 0.0;
  const auto res = run_transient(ckt, opts);
  EXPECT_FALSE(res.ok);
}

TEST(Transient, BreakpointsAreHit) {
  Circuit ckt;
  const NodeId a = ckt.make_node();
  ckt.add_vsource(a, kGround,
                  Pwl({{0.0, 0.0}, {0.35e-9, 0.0}, {0.4e-9, 1.0}}));
  ckt.add_resistor(a, kGround, 1e6);
  TransientOptions opts;
  opts.tstop = 1e-9;
  const auto res = run_transient(ckt, opts);
  ASSERT_TRUE(res.ok);
  // A recorded step must land exactly on each breakpoint time.
  const Trace& tr = res.traces[static_cast<std::size_t>(a)];
  bool hit = false;
  for (double t : tr.t) {
    if (std::fabs(t - 0.35e-9) < 1e-18) hit = true;
  }
  EXPECT_TRUE(hit);
}

TEST(Circuit, Validation) {
  Circuit ckt;
  const NodeId a = ckt.make_node();
  EXPECT_THROW(ckt.add_resistor(a, 99, 1.0), std::out_of_range);
  EXPECT_THROW(ckt.add_resistor(a, kGround, 0.0), std::invalid_argument);
  EXPECT_THROW(ckt.add_capacitor(a, kGround, -1.0), std::invalid_argument);
  EXPECT_NO_THROW(ckt.add_capacitor(a, kGround, 0.0));  // no-op
  EXPECT_EQ(ckt.capacitors().size(), 0u);
}

TEST(Circuit, InitialVoltageGroundStaysZero) {
  Circuit ckt;
  ckt.set_initial_voltage(kGround, 5.0);
  EXPECT_DOUBLE_EQ(ckt.initial_voltage(kGround), 0.0);
}

}  // namespace
}  // namespace nsdc
