#include "parasitics/spef.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

namespace nsdc {
namespace {

RcTree sample_tree() {
  RcTree t;
  const int a = t.add_node(0, 100.0, 1e-15);
  const int b = t.add_node(a, 50.0, 0.5e-15);
  const int c = t.add_node(a, 75.0, 0.8e-15);
  t.add_cap(0, 0.2e-15);
  t.mark_sink(b, "u1:0");
  t.mark_sink(c, "u2:1");
  return t;
}

TEST(Spef, RoundTripSingleNet) {
  ParasiticDb db;
  db.add("n1", sample_tree());
  const std::string text = db.to_spef("testdesign");
  const ParasiticDb back = ParasiticDb::from_spef(text);
  ASSERT_TRUE(back.contains("n1"));
  const RcTree& t = back.net("n1");
  EXPECT_EQ(t.num_nodes(), 4);
  EXPECT_NEAR(t.total_cap(), sample_tree().total_cap(), 1e-27);
  EXPECT_NEAR(t.elmore(t.sink_node("u1:0")),
              sample_tree().elmore(sample_tree().sink_node("u1:0")), 1e-24);
  EXPECT_EQ(t.sinks().size(), 2u);
}

TEST(Spef, RoundTripManyNets) {
  ParasiticDb db;
  for (int i = 0; i < 10; ++i) {
    db.add("net" + std::to_string(i), sample_tree());
  }
  const ParasiticDb back = ParasiticDb::from_spef(db.to_spef("d"));
  EXPECT_EQ(back.size(), 10u);
  EXPECT_TRUE(back.contains("net7"));
}

TEST(Spef, RootCapSurvives) {
  ParasiticDb db;
  db.add("n1", sample_tree());
  const ParasiticDb back = ParasiticDb::from_spef(db.to_spef("d"));
  EXPECT_NEAR(back.net("n1").node_cap(0), 0.2e-15, 1e-28);
}

TEST(Spef, MissingNetThrows) {
  ParasiticDb db;
  EXPECT_THROW(db.net("nope"), std::out_of_range);
  EXPECT_FALSE(db.contains("nope"));
  EXPECT_EQ(db.find("nope"), nullptr);
}

TEST(Spef, ParseErrorsCarryLineInfo) {
  EXPECT_THROW(ParasiticDb::from_spef("garbage"), std::runtime_error);
  // *END without *D_NET.
  EXPECT_THROW(ParasiticDb::from_spef("*SPEF nsdc-lite 1\n*END\n"),
               std::runtime_error);
  // Missing final *END.
  EXPECT_THROW(
      ParasiticDb::from_spef("*SPEF nsdc-lite 1\n*D_NET x 0\n*NODES 1\n"),
      std::runtime_error);
}

// RcTree::elmore sweeps nodes in index order and needs every parent
// below its child; the parser must refuse any other node order.
constexpr const char* kNodeOutOfOrder =
    "*SPEF nsdc-lite 1\n*D_NET n1 0\n*NODES 3\n"
    "2 0 10 1e-15\n"  // line 4: node 2 before node 1
    "1 0 10 1e-15\n*SINKS\nu1:0 1\n*END\n";
constexpr const char* kParentNotBelowChild =
    "*SPEF nsdc-lite 1\n*D_NET n1 0\n*NODES 3\n"
    "1 0 10 1e-15\n"
    "2 2 10 1e-15\n"  // line 5: node 2 is its own parent
    "*SINKS\nu1:0 1\n*END\n";
constexpr const char* kParentAboveChild =
    "*SPEF nsdc-lite 1\n*D_NET n1 0\n*NODES 3\n"
    "1 0 10 1e-15\n"
    "2 3 10 1e-15\n"  // line 5: parent index above the node's own
    "*SINKS\nu1:0 1\n*END\n";

TEST(Spef, NodeOrderViolationsThrowWithoutDiagnosticsSink) {
  for (const char* text :
       {kNodeOutOfOrder, kParentNotBelowChild, kParentAboveChild}) {
    EXPECT_THROW(ParasiticDb::from_spef(text), std::runtime_error) << text;
  }
}

TEST(Spef, NodeOrderViolationsBecomeDiagnosticsAndAreSkipped) {
  const std::pair<const char*, int> cases[] = {
      {kNodeOutOfOrder, 4}, {kParentNotBelowChild, 5}, {kParentAboveChild, 5}};
  for (const auto& [text, line] : cases) {
    std::vector<Diagnostic> diags;
    const ParasiticDb db = ParasiticDb::from_spef(text, &diags);
    ASSERT_EQ(diags.size(), 1u) << text;
    EXPECT_EQ(diags[0].rule, "parse.spef");
    EXPECT_EQ(diags[0].severity, Severity::kError);
    EXPECT_EQ(diags[0].line, line);
    // The offending node line is gone; the rest of the net survives.
    const RcTree* tree = db.find("n1");
    ASSERT_NE(tree, nullptr);
    EXPECT_EQ(tree->num_nodes(), 2);
    EXPECT_EQ(tree->sink_node("u1:0"), 1);
  }
}

TEST(Spef, SaveLoadFile) {
  ParasiticDb db;
  db.add("n1", sample_tree());
  const std::string path = ::testing::TempDir() + "nsdc_spef_test.spef";
  ASSERT_TRUE(db.save(path, "d"));
  const auto back = ParasiticDb::load(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->contains("n1"));
  EXPECT_FALSE(ParasiticDb::load("/nonexistent/dir/file.spef").has_value());
}

TEST(Spef, LoadOfADirectoryIsNullopt) {
  // std::ifstream opens a directory and reads nothing from it; load must
  // report it as unopenable rather than return an empty database.
  EXPECT_FALSE(ParasiticDb::load(::testing::TempDir()).has_value());
  // An empty regular file still parses to an empty database.
  const std::string empty = ::testing::TempDir() + "nsdc_spef_empty.spef";
  std::ofstream(empty).close();
  const auto db = ParasiticDb::load(empty);
  std::remove(empty.c_str());
  ASSERT_TRUE(db.has_value());
  EXPECT_EQ(db->size(), 0u);
}

TEST(Spef, OverwriteNet) {
  ParasiticDb db;
  db.add("n", sample_tree());
  RcTree small;
  small.add_node(0, 1.0, 1e-18);
  db.add("n", small);
  EXPECT_EQ(db.net("n").num_nodes(), 2);
}

}  // namespace
}  // namespace nsdc
