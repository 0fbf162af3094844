#include "netlist/designgen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sta/annotate.hpp"
#include "sta/engine.hpp"
#include "synthetic_charlib.hpp"

namespace nsdc {
namespace {

class DesignGenTest : public ::testing::Test {
 protected:
  CellLibrary lib = CellLibrary::standard();
  TechParams tech = TechParams::nominal28();
};

TEST_F(DesignGenTest, RandomMappedMatchesSpec) {
  RandomNetlistSpec spec;
  spec.name = "r1";
  spec.target_cells = 300;
  spec.num_primary_inputs = 20;
  spec.target_depth = 15;
  spec.seed = 5;
  const GateNetlist nl = generate_random_mapped(spec, lib);
  EXPECT_EQ(nl.num_cells(), 300u);
  EXPECT_EQ(nl.primary_inputs().size(), 20u);
  EXPECT_LE(nl.depth(), 15);
  EXPECT_GE(nl.depth(), 8);
  EXPECT_FALSE(nl.primary_outputs().empty());
  EXPECT_NO_THROW(nl.topological_order());
}

TEST_F(DesignGenTest, RandomMappedDeterministic) {
  RandomNetlistSpec spec;
  spec.target_cells = 100;
  spec.num_primary_inputs = 10;
  spec.target_depth = 10;
  spec.seed = 42;
  const GateNetlist a = generate_random_mapped(spec, lib);
  const GateNetlist b = generate_random_mapped(spec, lib);
  ASSERT_EQ(a.num_cells(), b.num_cells());
  for (std::size_t i = 0; i < a.num_cells(); ++i) {
    EXPECT_EQ(a.cell(static_cast<int>(i)).type->name(),
              b.cell(static_cast<int>(i)).type->name());
    EXPECT_EQ(a.cell(static_cast<int>(i)).fanin_nets,
              b.cell(static_cast<int>(i)).fanin_nets);
  }
}

TEST_F(DesignGenTest, RandomMappedSeedChangesStructure) {
  RandomNetlistSpec spec;
  spec.target_cells = 100;
  spec.num_primary_inputs = 10;
  spec.target_depth = 10;
  spec.seed = 1;
  const GateNetlist a = generate_random_mapped(spec, lib);
  spec.seed = 2;
  const GateNetlist b = generate_random_mapped(spec, lib);
  bool differs = false;
  for (std::size_t i = 0; i < a.num_cells() && !differs; ++i) {
    differs = a.cell(static_cast<int>(i)).fanin_nets !=
              b.cell(static_cast<int>(i)).fanin_nets;
  }
  EXPECT_TRUE(differs);
}

TEST_F(DesignGenTest, BadSpecThrows) {
  RandomNetlistSpec spec;
  spec.target_cells = 0;
  EXPECT_THROW(generate_random_mapped(spec, lib), std::invalid_argument);
}

TEST_F(DesignGenTest, Table3BenchmarkList) {
  const auto& stats = table3_benchmarks();
  EXPECT_EQ(stats.size(), 12u);
  const auto c432 = std::find_if(stats.begin(), stats.end(),
                                 [](const auto& s) { return s.name == "C432"; });
  ASSERT_NE(c432, stats.end());
  EXPECT_EQ(c432->cells, 655);
  EXPECT_EQ(c432->nets, 734);
}

TEST_F(DesignGenTest, IscasLikeMatchesPublishedCounts) {
  const GateNetlist nl = generate_iscas_like("C432", lib);
  EXPECT_EQ(nl.num_cells(), 655u);
  EXPECT_THROW(generate_iscas_like("C9999", lib), std::out_of_range);
}

TEST_F(DesignGenTest, RippleAdderStructure) {
  const GateNetlist nl = generate_ripple_adder(8, lib);
  // 9 NAND2 per full adder.
  EXPECT_EQ(nl.num_cells(), 8u * 9u);
  EXPECT_EQ(nl.primary_inputs().size(), 17u);  // 2*8 + cin
  EXPECT_EQ(nl.primary_outputs().size(), 9u);  // 8 sums + cout
  // Ripple carry: depth grows with width.
  EXPECT_GT(nl.depth(), 8);
}

TEST_F(DesignGenTest, SubtractorAddsInverters) {
  const GateNetlist add = generate_ripple_adder(8, lib);
  const GateNetlist sub = generate_subtractor(8, lib);
  EXPECT_EQ(sub.num_cells(), add.num_cells() + 8u);
}

TEST_F(DesignGenTest, MultiplierScalesQuadratically) {
  const GateNetlist m4 = generate_array_multiplier(4, lib);
  const GateNetlist m8 = generate_array_multiplier(8, lib);
  EXPECT_EQ(m4.primary_outputs().size(), 8u);
  EXPECT_EQ(m8.primary_outputs().size(), 16u);
  EXPECT_GT(m8.num_cells(), 3.3 * static_cast<double>(m4.num_cells()));
  EXPECT_NO_THROW(m8.topological_order());
}

TEST_F(DesignGenTest, DividerProducesQuotientAndRemainder) {
  const GateNetlist d = generate_array_divider(6, lib);
  EXPECT_EQ(d.primary_outputs().size(), 12u);  // 6 quotient + 6 remainder
  EXPECT_NO_THROW(d.topological_order());
  EXPECT_GT(d.depth(), 10);  // borrow/carry chains dominate
}

TEST_F(DesignGenTest, InsertBuffersCapsFanout) {
  RandomNetlistSpec spec;
  spec.target_cells = 400;
  spec.num_primary_inputs = 6;  // few PIs force big fanouts
  spec.target_depth = 10;
  spec.seed = 3;
  GateNetlist nl = generate_random_mapped(spec, lib);
  const int inserted = insert_buffers(nl, lib, 6);
  EXPECT_GT(inserted, 0);
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    EXPECT_LE(nl.net(static_cast<int>(n)).sinks.size(), 6u)
        << nl.net(static_cast<int>(n)).name;
  }
  EXPECT_NO_THROW(nl.topological_order());
}

TEST_F(DesignGenTest, InsertBuffersPreservesPortCounts) {
  RandomNetlistSpec spec;
  spec.target_cells = 200;
  spec.num_primary_inputs = 8;
  spec.target_depth = 8;
  spec.seed = 9;
  GateNetlist nl = generate_random_mapped(spec, lib);
  const auto pis = nl.primary_inputs().size();
  const auto pos = nl.primary_outputs().size();
  insert_buffers(nl, lib, 8);
  EXPECT_EQ(nl.primary_inputs().size(), pis);
  EXPECT_EQ(nl.primary_outputs().size(), pos);
}

TEST_F(DesignGenTest, LaterBufferPassesGetFreshNames) {
  // 100 sinks on one PI: the first pass splits them over 13 buffers, so
  // the PI still drives 13 > 8 sinks and a second pass re-buffers it.
  GateNetlist nl("fan100");
  const int a = nl.add_primary_input("a");
  for (int i = 0; i < 100; ++i) {
    const int g = nl.add_cell("u" + std::to_string(i), lib.by_name("INVx1"),
                              {a}, "y" + std::to_string(i));
    nl.mark_primary_output(nl.cell(g).out_net);
  }
  finalize_design(nl, lib, tech);
  EXPECT_TRUE(nl.duplicate_nets().empty());
  EXPECT_GE(nl.find_net("a_buf12"), 0);  // first-pass names are kept
  EXPECT_GE(nl.find_net("a_buf1_1"), 0);
  EXPECT_EQ(nl.net(nl.find_net("a")).sinks.size(), 2u);

  const CharLib charlib = testfix::make_full_charlib();
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);
  const StaEngine engine(model, tech);
  EXPECT_NO_THROW(engine.run(nl, generate_parasitics(nl, tech)));
}

TEST_F(DesignGenTest, SizeCellsUpsIzesLoadedGates) {
  GateNetlist nl("sz");
  const int a = nl.add_primary_input("a");
  const int drv = nl.add_cell("drv", lib.by_name("INVx1"), {a}, "w");
  // Eight heavy sinks on the driver's output.
  for (int i = 0; i < 8; ++i) {
    nl.add_cell("s" + std::to_string(i), lib.by_name("INVx8"),
                {nl.cell(drv).out_net}, "o" + std::to_string(i));
  }
  const int resizes = size_cells(nl, lib, tech);
  EXPECT_GT(resizes, 0);
  EXPECT_GT(nl.cell(drv).type->strength(), 1);
}

TEST_F(DesignGenTest, SizeCellsIsIdempotent) {
  RandomNetlistSpec spec;
  spec.target_cells = 150;
  spec.num_primary_inputs = 12;
  spec.target_depth = 10;
  spec.seed = 13;
  GateNetlist nl = generate_random_mapped(spec, lib);
  size_cells(nl, lib, tech);
  EXPECT_EQ(size_cells(nl, lib, tech), 0);  // fixed point reached
}

TEST_F(DesignGenTest, FinalizeKeepsValidity) {
  GateNetlist nl = generate_iscas_like("C1355", lib);
  finalize_design(nl, lib, tech);
  EXPECT_NO_THROW(nl.topological_order());
  EXPECT_GE(nl.num_cells(), 977u);  // buffers only add cells
}

class AdderWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdderWidthSweep, CellCountFormula) {
  const CellLibrary lib2 = CellLibrary::standard();
  const int bits = GetParam();
  const GateNetlist nl = generate_ripple_adder(bits, lib2);
  EXPECT_EQ(nl.num_cells(), static_cast<std::size_t>(9 * bits));
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderWidthSweep, ::testing::Values(1, 4, 16, 32));

/// Every generator in designgen.hpp, at a small size.
GateNetlist small_design(const std::string& generator, const CellLibrary& lib) {
  if (generator == "random_mapped") {
    RandomNetlistSpec spec;
    spec.target_cells = 300;
    spec.num_primary_inputs = 12;
    spec.target_depth = 12;
    return generate_random_mapped(spec, lib);
  }
  if (generator == "iscas_like") return generate_iscas_like("C432", lib);
  if (generator == "ripple_adder") return generate_ripple_adder(8, lib);
  if (generator == "subtractor") return generate_subtractor(8, lib);
  if (generator == "array_multiplier") return generate_array_multiplier(6, lib);
  if (generator == "array_divider") return generate_array_divider(12, lib);
  if (generator == "tiled_multiplier_array") {
    return generate_tiled_multiplier_array(4, 3, lib);
  }
  if (generator == "wide_crossbar") return generate_wide_crossbar(8, 4, lib);
  if (generator == "divider_chain") return generate_divider_chain(4, 4, lib);
  throw std::invalid_argument("unknown generator " + generator);
}

class DesignGenNames : public ::testing::TestWithParam<std::string> {};

// Net names key the parasitics: a duplicate makes its nets share one RC
// tree and parasitics-on STA fails on the first sink it cannot find.
TEST_P(DesignGenNames, NoDuplicateNetNames) {
  const CellLibrary lib = CellLibrary::standard();
  const GateNetlist nl = small_design(GetParam(), lib);
  EXPECT_TRUE(nl.duplicate_nets().empty())
      << nl.duplicate_nets().size() << " duplicates, first '"
      << nl.net(nl.duplicate_nets().front()).name << "'";
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, DesignGenNames,
    ::testing::Values("random_mapped", "iscas_like", "ripple_adder",
                      "subtractor", "array_multiplier", "array_divider",
                      "tiled_multiplier_array", "wide_crossbar",
                      "divider_chain"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace nsdc
