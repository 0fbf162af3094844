#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "pdk/cellgen.hpp"
#include "pdk/cells.hpp"
#include "pdk/varmodel.hpp"
#include "stats/moments.hpp"

namespace nsdc {
namespace {

TEST(CellLibrary, StandardContents) {
  const CellLibrary lib = CellLibrary::standard();
  EXPECT_EQ(lib.cells().size(), 24u);  // 6 functions x 4 strengths
  EXPECT_TRUE(lib.contains("INVx1"));
  EXPECT_TRUE(lib.contains("AOI21x8"));
  EXPECT_FALSE(lib.contains("XOR2x1"));
  EXPECT_THROW(lib.by_name("XOR2x1"), std::out_of_range);
}

TEST(CellLibrary, LookupByFunc) {
  const CellLibrary lib = CellLibrary::standard();
  const CellType& c = lib.by_func(CellFunc::kNand2, 4);
  EXPECT_EQ(c.name(), "NAND2x4");
  EXPECT_EQ(c.strength(), 4);
  EXPECT_THROW(lib.by_func(CellFunc::kNand2, 3), std::out_of_range);
}

TEST(CellType, Arity) {
  EXPECT_EQ(CellType(CellFunc::kInv, 1).num_inputs(), 1);
  EXPECT_EQ(CellType(CellFunc::kNand2, 1).num_inputs(), 2);
  EXPECT_EQ(CellType(CellFunc::kAoi21, 1).num_inputs(), 3);
}

TEST(CellType, Inverting) {
  EXPECT_TRUE(CellType(CellFunc::kInv, 1).inverting());
  EXPECT_TRUE(CellType(CellFunc::kNor2, 1).inverting());
  EXPECT_FALSE(CellType(CellFunc::kBuf, 1).inverting());
}

TEST(CellType, StackCounts) {
  // Paper Eq. 5's n: NAND2 stacks two NMOS, NOR2 two PMOS, INV one.
  EXPECT_EQ(CellType(CellFunc::kInv, 1).stack_count(), 1);
  EXPECT_EQ(CellType(CellFunc::kNand2, 1).stack_count(), 2);
  EXPECT_EQ(CellType(CellFunc::kNor2, 1).stack_count(), 2);
  EXPECT_EQ(CellType(CellFunc::kAoi21, 1).stack_count(), 2);
}

TEST(CellType, InputCapScalesWithStrength) {
  const TechParams tech = TechParams::nominal28();
  const double c1 = CellType(CellFunc::kInv, 1).input_cap(tech, 0);
  const double c4 = CellType(CellFunc::kInv, 4).input_cap(tech, 0);
  EXPECT_GT(c1, 0.1e-15);
  EXPECT_LT(c1, 2e-15);
  EXPECT_NEAR(c4 / c1, 4.0, 1e-9);
}

TEST(CellType, InputCapPinBounds) {
  const TechParams tech = TechParams::nominal28();
  const CellType nand2(CellFunc::kNand2, 1);
  EXPECT_GT(nand2.input_cap(tech, 0), 0.0);
  EXPECT_GT(nand2.input_cap(tech, 1), 0.0);
  EXPECT_THROW(nand2.input_cap(tech, 2), std::out_of_range);
  EXPECT_THROW(nand2.input_cap(tech, -1), std::out_of_range);
}

/// input_cap as it was before the per-pin gate lists: a scan over every
/// FET of the topology, kept as the oracle.
double input_cap_full_scan(const CellType& c, const TechParams& tech,
                           int pin) {
  const NetTag want = static_cast<NetTag>(static_cast<int>(NetTag::kIn0) + pin);
  double cap = 0.0;
  for (const auto& fet : c.topology().fets) {
    if (fet.gate != want) continue;
    const double w = fet.w_units * static_cast<double>(c.strength()) *
                     (fet.nmos ? tech.w_min_n : tech.w_min_p);
    cap += tech.cox_per_area * w * tech.l_min +
           2.0 * tech.c_overlap_per_width * w;
  }
  return cap;
}

TEST(CellType, InputCapMatchesTheFullFetScan) {
  // A second process whose widths, length and cap densities all differ,
  // so no term of the fold can hide behind a nominal value.
  TechParams other = TechParams::nominal28();
  other.w_min_n = 117e-9;
  other.w_min_p = 193e-9;
  other.l_min = 27e-9;
  other.cox_per_area = 0.0313;
  other.c_overlap_per_width = 0.27e-9;
  const CellLibrary lib = CellLibrary::standard();
  std::vector<CellType> cells(lib.cells().begin(), lib.cells().end());
  cells.emplace_back(CellFunc::kAoi21, 3);  // built outside the library
  cells.emplace_back(CellFunc::kBuf, 16);
  for (const TechParams& tech : {TechParams::nominal28(), other}) {
    for (const CellType& c : cells) {
      for (int pin = 0; pin < c.num_inputs(); ++pin) {
        const double got = c.input_cap(tech, pin);
        const double want = input_cap_full_scan(c, tech, pin);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << c.name() << " pin " << pin << ": " << got << " vs " << want;
        EXPECT_GT(got, 0.0) << c.name() << " pin " << pin;
      }
      EXPECT_THROW(c.input_cap(tech, -1), std::out_of_range) << c.name();
      EXPECT_THROW(c.input_cap(tech, c.num_inputs()), std::out_of_range)
          << c.name();
    }
  }
}

TEST(CellType, DriveResistanceFallsWithStrength) {
  const TechParams tech = TechParams::nominal28();
  const double r1 = CellType(CellFunc::kInv, 1).drive_resistance_estimate(tech);
  const double r8 = CellType(CellFunc::kInv, 8).drive_resistance_estimate(tech);
  EXPECT_NEAR(r1 / r8, 8.0, 0.1);
}

TEST(CellType, BadStrengthThrows) {
  EXPECT_THROW(CellType(CellFunc::kInv, 0), std::invalid_argument);
}

TEST(SideInputs, NonControllingValues) {
  // NAND2: other input high; NOR2: other input low.
  EXPECT_EQ(side_input_values(CellFunc::kNand2, 0)[1], 1.0);
  EXPECT_EQ(side_input_values(CellFunc::kNor2, 0)[1], 0.0);
  // AOI21 A1 switching: A2 high, B low.
  const auto aoi = side_input_values(CellFunc::kAoi21, 0);
  EXPECT_EQ(aoi[1], 1.0);
  EXPECT_EQ(aoi[2], 0.0);
  // OAI21 B switching: one A input on.
  const auto oai = side_input_values(CellFunc::kOai21, 2);
  EXPECT_EQ(oai[0], 1.0);
  EXPECT_THROW(side_input_values(CellFunc::kInv, 1), std::out_of_range);
}

TEST(Topology, TransistorCounts) {
  EXPECT_EQ(cell_topology(CellFunc::kInv).fets.size(), 2u);
  EXPECT_EQ(cell_topology(CellFunc::kBuf).fets.size(), 4u);
  EXPECT_EQ(cell_topology(CellFunc::kNand2).fets.size(), 4u);
  EXPECT_EQ(cell_topology(CellFunc::kNor2).fets.size(), 4u);
  EXPECT_EQ(cell_topology(CellFunc::kAoi21).fets.size(), 6u);
  EXPECT_EQ(cell_topology(CellFunc::kOai21).fets.size(), 6u);
}

TEST(Netlister, InstantiateCreatesDevices) {
  const TechParams tech = TechParams::nominal28();
  Circuit ckt;
  const NodeId vdd = ckt.make_node();
  const NodeId in = ckt.make_node();
  CellNetlister nl(tech);
  const CellLibrary lib = CellLibrary::standard();
  const NodeId in_nodes[] = {in};
  const NodeId out = nl.instantiate(ckt, lib.by_name("INVx2"), in_nodes, vdd,
                                    GlobalCorner::nominal(), nullptr);
  EXPECT_GT(out, 0);
  EXPECT_EQ(ckt.mosfets().size(), 2u);
  EXPECT_FALSE(ckt.capacitors().empty());
  // Widths carry the x2 strength.
  EXPECT_NEAR(ckt.mosfets()[0].params.w, 2.0 * tech.w_min_n, 1e-12);
}

TEST(Netlister, ArityMismatchThrows) {
  const TechParams tech = TechParams::nominal28();
  Circuit ckt;
  const NodeId vdd = ckt.make_node();
  const NodeId in = ckt.make_node();
  CellNetlister nl(tech);
  const CellLibrary lib = CellLibrary::standard();
  const NodeId in_nodes[] = {in};
  EXPECT_THROW(nl.instantiate(ckt, lib.by_name("NAND2x1"), in_nodes, vdd,
                              GlobalCorner::nominal(), nullptr),
               std::invalid_argument);
}

TEST(Netlister, CornerShiftsParameters) {
  const TechParams tech = TechParams::nominal28();
  Circuit ckt;
  const NodeId vdd = ckt.make_node();
  const NodeId in = ckt.make_node();
  CellNetlister nl(tech);
  const CellLibrary lib = CellLibrary::standard();
  GlobalCorner corner;
  corner.dvth_n = 0.05;
  corner.mu_n_factor = 0.9;
  const NodeId in_nodes[] = {in};
  nl.instantiate(ckt, lib.by_name("INVx1"), in_nodes, vdd, corner, nullptr);
  const auto& fets = ckt.mosfets();
  const auto& nfet = fets[0].params.nmos ? fets[0].params : fets[1].params;
  EXPECT_NEAR(nfet.vth, tech.vth_n + 0.05, 1e-12);
  EXPECT_NEAR(nfet.kp, tech.kp_n * 0.9, 1e-12);
}

TEST(VariationModel, PelgromScaling) {
  const TechParams tech = TechParams::nominal28();
  const VariationModel vm(tech);
  const double s1 = vm.sigma_vth_local(100e-9, 30e-9);
  const double s4 = vm.sigma_vth_local(400e-9, 30e-9);
  EXPECT_NEAR(s1 / s4, 2.0, 1e-9);  // sigma ~ 1/sqrt(W L)
  EXPECT_GT(s1, 0.01);  // tens of mV for a minimum device
  EXPECT_LT(s1, 0.1);
}

TEST(VariationModel, GlobalCornerStatistics) {
  const TechParams tech = TechParams::nominal28();
  const VariationModel vm(tech);
  Rng rng(3);
  MomentAccumulator dvth;
  for (int i = 0; i < 50000; ++i) {
    const GlobalCorner g = vm.sample_global(rng);
    dvth.add(g.dvth_n);
    EXPECT_GT(g.mu_n_factor, 0.0);
    EXPECT_GT(g.wire_r_factor, 0.0);
  }
  const Moments m = dvth.moments();
  EXPECT_NEAR(m.mu, 0.0, 1e-3);
  EXPECT_NEAR(m.sigma, tech.sigma_vth_global, 0.05 * tech.sigma_vth_global);
}

TEST(VariationModel, LocalMuFactorPositive) {
  const TechParams tech = TechParams::nominal28();
  const VariationModel vm(tech);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(vm.sample_mu_factor_local(rng, 100e-9, 30e-9), 0.0);
  }
}

TEST(Tech, AtVoltageKeepsProcess) {
  const TechParams tech = TechParams::nominal28();
  const TechParams t05 = tech.at_voltage(0.5);
  EXPECT_DOUBLE_EQ(t05.vdd, 0.5);
  EXPECT_DOUBLE_EQ(t05.vth_n, tech.vth_n);
  EXPECT_DOUBLE_EQ(t05.avt, tech.avt);
}

class StrengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(StrengthSweep, NamesAndCapsConsistent) {
  const int s = GetParam();
  const TechParams tech = TechParams::nominal28();
  const CellType c(CellFunc::kNor2, s);
  EXPECT_EQ(c.name(), "NOR2x" + std::to_string(s));
  EXPECT_NEAR(c.input_cap(tech, 0) / CellType(CellFunc::kNor2, 1).input_cap(tech, 0),
              s, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Strengths, StrengthSweep, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace nsdc
