#include "parasitics/spef.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
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

// The name -> tree map is hashed, so its iteration order depends on how the
// nets went in; to_spef sorts by name, so the text must not.
TEST(Spef, ToSpefIsIndependentOfInsertionOrder) {
  constexpr int kNets = 50;
  const auto tree = [](int i) {
    RcTree t;
    const int a = t.add_node(0, 10.0 + i, (1 + i) * 1e-16);
    t.add_node(a, 5.0 * i, 2e-16);
    t.mark_sink(a, "u" + std::to_string(i) + ":0");
    return t;
  };
  // "n10" sorts before "n2": name order is not insertion or number order.
  const auto name = [](int i) { return "n" + std::to_string(i); };
  std::vector<std::string> sorted;
  for (int i = 0; i < kNets; ++i) sorted.push_back(name(i));
  std::sort(sorted.begin(), sorted.end());

  ParasiticDb in_order;
  for (const std::string& n : sorted) {
    in_order.add(n, tree(std::stoi(n.substr(1))));
  }
  ParasiticDb shuffled;  // 37 is coprime to 50: a permutation of 0..49
  for (int k = 0; k < kNets; ++k) {
    const int i = k * 37 % kNets;
    shuffled.add(name(i), tree(i));
  }
  ParasiticDb reversed;
  for (int i = kNets - 1; i >= 0; --i) reversed.add(name(i), tree(i));

  const std::string text = in_order.to_spef("d");
  EXPECT_EQ(shuffled.to_spef("d"), text);
  EXPECT_EQ(reversed.to_spef("d"), text);
  std::size_t last = 0;
  for (const std::string& n : sorted) {
    const std::size_t at = text.find("*D_NET " + n + " ");
    ASSERT_NE(at, std::string::npos) << n;
    EXPECT_GT(at, last) << n << " is out of name order";
    last = at;
  }

  // find() on a view that is not a whole string: a hit and two misses.
  const std::string buffer = "n17n1";
  const RcTree* hit = shuffled.find(std::string_view(buffer).substr(0, 3));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit, &shuffled.net("n17"));
  EXPECT_EQ(hit->edge_res(1), 27.0);
  EXPECT_EQ(shuffled.find(std::string_view(buffer).substr(0, 4)), nullptr);
  EXPECT_EQ(shuffled.find(std::string_view("n50")), nullptr);

  // add() on a name already held replaces the tree and keeps the count.
  ASSERT_EQ(shuffled.size(), static_cast<std::size_t>(kNets));
  shuffled.add("n17", tree(3));
  EXPECT_EQ(shuffled.size(), static_cast<std::size_t>(kNets));
  EXPECT_EQ(shuffled.net("n17").edge_res(1), 13.0);
}

}  // namespace
}  // namespace nsdc
