#include "parasitics/rctree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "parasitics/spef.hpp"
#include "util/exec.hpp"
#include "util/threading.hpp"

namespace nsdc {
namespace {

// Two-segment line: root -R1- n1 -R2- n2, caps C1 at n1, C2 at n2.
RcTree line2(double r1, double c1, double r2, double c2) {
  RcTree t;
  const int n1 = t.add_node(0, r1, c1);
  const int n2 = t.add_node(n1, r2, c2);
  t.mark_sink(n2, "Z");
  return t;
}

TEST(RcTree, ElmoreLineHandComputed) {
  // Elmore to n2 = R1*(C1+C2) + R2*C2.
  const RcTree t = line2(100.0, 1e-15, 200.0, 2e-15);
  EXPECT_NEAR(t.elmore(2), 100.0 * 3e-15 + 200.0 * 2e-15, 1e-25);
  // Elmore to n1 = R1*(C1+C2).
  EXPECT_NEAR(t.elmore(1), 100.0 * 3e-15, 1e-25);
}

TEST(RcTree, ElmoreBranchedTree) {
  // Root - R1 - A; A - R2 - B (cap Cb); A - R3 - C (cap Cc).
  RcTree t;
  const int a = t.add_node(0, 100.0, 0.0);
  const int b = t.add_node(a, 200.0, 1e-15);
  const int c = t.add_node(a, 300.0, 2e-15);
  t.mark_sink(b, "B");
  t.mark_sink(c, "C");
  // Elmore(B) = R1*(Cb+Cc) + R2*Cb (R3 branch shares only R1).
  EXPECT_NEAR(t.elmore(b), 100.0 * 3e-15 + 200.0 * 1e-15, 1e-25);
  EXPECT_NEAR(t.elmore(c), 100.0 * 3e-15 + 300.0 * 2e-15, 1e-25);
}

TEST(RcTree, SecondMomentLine) {
  // For a single lumped RC (one node): m1 = RC, m2 = m1^2.
  RcTree t;
  const int n1 = t.add_node(0, 1000.0, 1e-15);
  EXPECT_NEAR(t.elmore(n1), 1e-12, 1e-24);
  EXPECT_NEAR(t.second_moment(n1), 1e-24, 1e-36);
}

TEST(RcTree, D2MEqualsLn2RCForSingleLump) {
  // Single-pole network: D2M = ln2 * m1^2/sqrt(m2) = ln2 * RC — the exact
  // 50% step-response delay of a one-pole system.
  RcTree t;
  const int n1 = t.add_node(0, 500.0, 2e-15);
  EXPECT_NEAR(t.d2m(n1), std::log(2.0) * 1e-12, 1e-20);
}

TEST(RcTree, D2MLessThanElmoreOnDistributedLine) {
  // For a distributed line D2M < Elmore (the known Elmore pessimism).
  RcTree t;
  int node = 0;
  for (int i = 0; i < 10; ++i) node = t.add_node(node, 100.0, 0.5e-15);
  EXPECT_LT(t.d2m(node), t.elmore(node));
  EXPECT_GT(t.d2m(node), 0.3 * t.elmore(node));
}

TEST(RcTree, TotalCapAndRes) {
  const RcTree t = line2(100.0, 1e-15, 200.0, 2e-15);
  EXPECT_NEAR(t.total_cap(), 3e-15, 1e-27);
  EXPECT_NEAR(t.total_res(), 300.0, 1e-9);
}

TEST(RcTree, AddCapAccumulates) {
  RcTree t = line2(100.0, 1e-15, 200.0, 2e-15);
  t.add_cap(2, 5e-15);
  EXPECT_NEAR(t.node_cap(2), 7e-15, 1e-27);
}

TEST(RcTree, SinkLookup) {
  const RcTree t = line2(1.0, 0.0, 1.0, 1e-15);
  EXPECT_EQ(t.sink_node("Z"), 2);
  EXPECT_THROW(t.sink_node("missing"), std::out_of_range);
}

TEST(RcTree, ScaledMultipliesRC) {
  const RcTree t = line2(100.0, 1e-15, 200.0, 2e-15);
  const RcTree s = t.scaled(2.0, 0.5);
  EXPECT_NEAR(s.total_res(), 600.0, 1e-9);
  EXPECT_NEAR(s.total_cap(), 1.5e-15, 1e-27);
  EXPECT_NEAR(s.elmore(2), t.elmore(2), 1e-24);  // RC product preserved here
}

TEST(RcTree, PerturbedStaysPositiveAndDeterministic) {
  const RcTree t = line2(100.0, 1e-15, 200.0, 2e-15);
  Rng a(5), b(5);
  const RcTree p1 = t.perturbed(a, 0.1, 1.1, 0.9);
  const RcTree p2 = t.perturbed(b, 0.1, 1.1, 0.9);
  EXPECT_NEAR(p1.total_res(), p2.total_res(), 1e-12);
  for (int n = 1; n < p1.num_nodes(); ++n) {
    EXPECT_GT(p1.edge_res(n), 0.0);
    EXPECT_GE(p1.node_cap(n), 0.0);
  }
  // Global factors shift the expectation.
  EXPECT_GT(p1.total_res(), t.total_res() * 0.8);
}

TEST(RcTree, Validation) {
  RcTree t;
  EXPECT_THROW(t.add_node(5, 1.0, 0.0), std::out_of_range);
  EXPECT_THROW(t.add_node(0, -1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(t.mark_sink(0, "root"), std::out_of_range);
  EXPECT_THROW(t.elmore(1), std::out_of_range);
  EXPECT_THROW(t.elmore(-1), std::out_of_range);
  EXPECT_THROW(t.second_moment(1), std::out_of_range);
}

TEST(RcTree, BuildSpiceStructure) {
  const RcTree t = line2(100.0, 1e-15, 200.0, 2e-15);
  Circuit ckt;
  const NodeId root = ckt.make_node();
  const auto ids = t.build_spice(ckt, root, 0.6);
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], root);
  EXPECT_EQ(ckt.resistors().size(), 2u);
  EXPECT_EQ(ckt.capacitors().size(), 2u);
  EXPECT_DOUBLE_EQ(ckt.initial_voltage(ids[2]), 0.6);
}

// ------------------------------------------------- bit-level oracle ----

/// The quadratic walk elmore() used before its index-order sweep, kept as
/// the oracle the sweep must match bit for bit. R_common(a, b) walks b's
/// root path upward and adds every edge a's root path shares, so each sum
/// starts at LCA(a, b) and runs up to the root.
class QuadraticWalk {
 public:
  explicit QuadraticWalk(const RcTree& t)
      : t_(t), m1_(static_cast<std::size_t>(t.num_nodes())) {
    for (int node = 0; node < t.num_nodes(); ++node) {
      const std::vector<char> on_path = root_path(node);
      double m1 = 0.0;
      for (int k = 1; k < t.num_nodes(); ++k) {
        m1 += common_resistance(on_path, k) * t.node_cap(k);
      }
      m1_[static_cast<std::size_t>(node)] = m1;
    }
  }

  double elmore(int node) const { return m1_[static_cast<std::size_t>(node)]; }

  double second_moment(int node) const {
    const std::vector<char> on_path = root_path(node);
    double m2 = 0.0;
    for (int k = 1; k < t_.num_nodes(); ++k) {
      m2 += common_resistance(on_path, k) * t_.node_cap(k) *
            m1_[static_cast<std::size_t>(k)];
    }
    return m2;
  }

 private:
  std::vector<char> root_path(int node) const {
    std::vector<char> on(static_cast<std::size_t>(t_.num_nodes()), 0);
    for (int n = node; n > 0; n = t_.parent(n)) {
      on[static_cast<std::size_t>(n)] = 1;
    }
    return on;
  }

  double common_resistance(const std::vector<char>& on_path_a, int b) const {
    double r = 0.0;
    for (int n = b; n > 0; n = t_.parent(n)) {
      if (on_path_a[static_cast<std::size_t>(n)]) r += t_.edge_res(n);
    }
    return r;
  }

  const RcTree& t_;
  std::vector<double> m1_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Values of elmore, second_moment and d2m, over every node, whose bits
/// differ from the quadratic walk's (d2m from the walk's m1 and m2).
int sweep_mismatches(const RcTree& t) {
  const QuadraticWalk walk(t);
  int bad = 0;
  for (int node = 0; node < t.num_nodes(); ++node) {
    const double m1 = walk.elmore(node);
    const double m2 = walk.second_moment(node);
    const double d2m = m2 <= 0.0 ? m1 * std::numbers::ln2
                                 : std::numbers::ln2 * m1 * m1 / std::sqrt(m2);
    bad += same_bits(t.elmore(node), m1) ? 0 : 1;
    bad += same_bits(t.second_moment(node), m2) ? 0 : 1;
    bad += same_bits(t.d2m(node), d2m) ? 0 : 1;
  }
  return bad;
}

/// Seeded random tree with parent < child: half the seeds draw parents
/// uniformly below the child (bushy), half from the last few nodes (deep).
/// About one R and one C in six is exactly zero, and some nodes get an
/// extra pin cap the way annotation adds one.
RcTree random_tree(std::uint64_t seed, int nodes) {
  Rng rng(seed);
  RcTree t;
  const bool deep = rng.uniform() < 0.5;
  for (int k = 1; k < nodes; ++k) {
    const std::int64_t lo = deep ? std::max(0, k - 3) : 0;
    const int parent = static_cast<int>(rng.uniform_int(lo, k - 1));
    const double r = rng.uniform() < 0.15 ? 0.0 : rng.uniform(1.0, 500.0);
    const double c = rng.uniform() < 0.15 ? 0.0 : rng.uniform(0.1e-15, 5e-15);
    t.add_node(parent, r, c);
    if (rng.uniform() < 0.2) t.add_cap(k, rng.uniform(0.5e-15, 2e-15));
  }
  if (rng.uniform() < 0.5) t.add_cap(0, 0.3e-15);
  return t;
}

TEST(RcTreeSweep, MatchesQuadraticWalkOnRandomTrees) {
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    const int nodes = 1 + static_cast<int>((seed * 37) % 160);
    EXPECT_EQ(sweep_mismatches(random_tree(seed, nodes)), 0)
        << "seed " << seed << ", " << nodes << " nodes";
  }
}

TEST(RcTreeSweep, MatchesQuadraticWalkOnRootOnlyTree) {
  const RcTree t;
  EXPECT_EQ(sweep_mismatches(t), 0);
  EXPECT_EQ(t.elmore(0), 0.0);
}

TEST(RcTreeSweep, MatchesQuadraticWalkOnLongChainAndWideStar) {
  Rng rng(11);
  RcTree chain;  // 700 nodes, one sink at the far end
  int node = 0;
  for (int i = 1; i < 700; ++i) {
    node = chain.add_node(node, rng.uniform(1.0, 50.0),
                          rng.uniform(0.1e-15, 1e-15));
  }
  chain.mark_sink(node, "Z");
  EXPECT_EQ(sweep_mismatches(chain), 0);

  RcTree star;  // a trunk edge, then 700 sinks on one hub
  const int hub = star.add_node(0, 80.0, 1e-15);
  for (int i = 0; i < 700; ++i) {
    const int leaf =
        star.add_node(hub, rng.uniform(5.0, 60.0), rng.uniform(0.2e-15, 2e-15));
    star.mark_sink(leaf, "u" + std::to_string(i) + ":0");
  }
  EXPECT_EQ(sweep_mismatches(star), 0);
}

TEST(RcTreeSweep, MatchesQuadraticWalkAfterSpefRoundTrip) {
  ParasiticDb db;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    db.add("n" + std::to_string(seed),
           random_tree(seed + 1000, 2 + static_cast<int>(seed * 7)));
  }
  const ParasiticDb back = ParasiticDb::from_spef(db.to_spef("d"));
  ASSERT_EQ(back.size(), db.size());
  for (const auto& [name, tree] : back.all()) {
    EXPECT_EQ(sweep_mismatches(tree), 0) << name;
  }
}

// ------------------------------------------------------ shared shapes ----

/// Every value a tree exposes, for bit-level before/after comparisons.
struct TreeBits {
  std::vector<int> parent;
  std::vector<double> res, cap, m1, m2;
  std::vector<std::pair<int, std::string>> sinks;
};

TreeBits bits_of(const RcTree& t) {
  TreeBits b;
  for (int n = 0; n < t.num_nodes(); ++n) {
    b.parent.push_back(t.parent(n));
    b.res.push_back(t.edge_res(n));
    b.cap.push_back(t.node_cap(n));
    b.m1.push_back(t.elmore(n));
    b.m2.push_back(t.second_moment(n));
  }
  for (const auto& s : t.sinks()) b.sinks.emplace_back(s.node, s.pin);
  return b;
}

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const TreeBits& a, const TreeBits& b) {
  return a.parent == b.parent && a.sinks == b.sinks &&
         same_doubles(a.res, b.res) && same_doubles(a.cap, b.cap) &&
         same_doubles(a.m1, b.m1) && same_doubles(a.m2, b.m2);
}

/// A random tree with every fourth node marked as a sink.
RcTree sinked_tree(std::uint64_t seed, int nodes) {
  RcTree t = random_tree(seed, nodes);
  for (int n = 1; n < t.num_nodes(); n += 4) {
    t.mark_sink(n, "u" + std::to_string(n) + ":A");
  }
  return t;
}

TEST(RcTreeShape, MutatingACopyOrItsOriginalLeavesTheOtherBitIdentical) {
  // Each call that can change a tree, applied the way callers apply it.
  const std::pair<const char*, std::function<void(RcTree&)>> mutations[] = {
      {"add_node", [](RcTree& t) { t.add_node(1, 42.0, 3e-15); }},
      {"mark_sink", [](RcTree& t) { t.mark_sink(2, "extra:B"); }},
      {"add_cap", [](RcTree& t) { t.add_cap(3, 1.5e-15); }},
      {"scaled", [](RcTree& t) { t = t.scaled(1.3, 0.7); }},
      {"perturbed",
       [](RcTree& t) {
         Rng rng(9);
         t = t.perturbed(rng, 0.1, 1.05, 0.95);
       }},
  };
  for (const auto& [name, mutate] : mutations) {
    RcTree original = sinked_tree(7, 24);
    RcTree copy = original;

    const TreeBits original_before = bits_of(original);
    mutate(copy);
    EXPECT_TRUE(same_bits(bits_of(original), original_before))
        << name << " on the copy reached the original";
    EXPECT_FALSE(same_bits(bits_of(copy), original_before))
        << name << " changed nothing";

    const TreeBits copy_before = bits_of(copy);
    mutate(original);
    EXPECT_TRUE(same_bits(bits_of(copy), copy_before))
        << name << " on the original reached the copy";
    EXPECT_TRUE(same_bits(bits_of(original), copy_before))
        << name << " is not deterministic";
  }
}

TEST(RcTreeShape, DefaultTreesAreRootOnlyAndIndependent) {
  RcTree a;
  RcTree b = a;
  for (const RcTree* t : {&a, &b}) {
    EXPECT_EQ(t->num_nodes(), 1);
    EXPECT_EQ(t->parent(0), -1);
    EXPECT_EQ(t->edge_res(0), 0.0);
    EXPECT_EQ(t->node_cap(0), 0.0);
    EXPECT_TRUE(t->sinks().empty());
  }
  a.add_node(0, 10.0, 1e-15);
  b.add_node(0, 20.0, 2e-15);
  b.add_node(1, 30.0, 3e-15);
  b.mark_sink(2, "Z");
  EXPECT_EQ(a.num_nodes(), 2);
  EXPECT_EQ(a.edge_res(1), 10.0);
  EXPECT_EQ(a.node_cap(1), 1e-15);
  EXPECT_TRUE(a.sinks().empty());
  EXPECT_EQ(b.num_nodes(), 3);
  EXPECT_EQ(b.edge_res(1), 20.0);
  const RcTree fresh;
  EXPECT_EQ(fresh.num_nodes(), 1);
  EXPECT_TRUE(fresh.sinks().empty());
}

/// Every value a root-only tree exposes, then the same for the trees
/// scaled() and perturbed() derive from it, and one draw of the Rng those
/// perturbed() calls shared: one vector, compared by memcmp.
std::vector<double> root_only_values(const RcTree& t) {
  const auto own = [](const RcTree& u) {
    return std::vector<double>{u.node_cap(0), u.total_cap(), u.elmore(0),
                               u.second_moment(0), u.d2m(0), u.edge_res(0),
                               static_cast<double>(u.num_nodes())};
  };
  std::vector<double> v = own(t);
  Rng rng(17);
  for (const RcTree& d :
       {t.scaled(2.0, -1.0),
        t.scaled(1.0, std::numeric_limits<double>::quiet_NaN()),
        t.perturbed(rng, 0.1, 1.05, 0.95), t.perturbed(rng, 0.1, 1.0, -2.0)}) {
    const std::vector<double> dv = own(d);
    v.insert(v.end(), dv.begin(), dv.end());
  }
  v.push_back(rng.normal());
  return v;
}

// A default tree holds no caps. add_cap(0, 0.0) materializes {0.0}, the
// caps every default tree held before, so the materialized tree is the
// oracle: the default tree, a copy of it, and every tree scaled() and
// perturbed() derive from them must carry its bits (-0.0 and NaN roots
// included).
TEST(RcTreeShape, DefaultTreeMatchesAMaterializedRootBitForBit) {
  const RcTree fresh;
  const RcTree copy = fresh;
  const RcTree materialized = [] {
    RcTree t;
    t.add_cap(0, 0.0);
    return t;
  }();
  const std::vector<double> want = root_only_values(materialized);
  EXPECT_TRUE(same_doubles(root_only_values(fresh), want));
  EXPECT_TRUE(same_doubles(root_only_values(copy), want));
  for (const RcTree* t : {&fresh, &copy, &materialized}) {
    EXPECT_THROW(t->node_cap(1), std::out_of_range);
    EXPECT_THROW(t->node_cap(-1), std::out_of_range);
  }

  RcTree written = copy;
  written.add_cap(0, 1.5e-15);
  EXPECT_EQ(written.node_cap(0), 1.5e-15);
  EXPECT_EQ(written.total_cap(), 1.5e-15);
  EXPECT_TRUE(same_doubles(root_only_values(copy), want));
  EXPECT_TRUE(same_doubles(root_only_values(fresh), want));

  // The root is the driving pin's own node: a root-only tree adds no element.
  for (const RcTree* t : {&fresh, &materialized}) {
    Circuit ckt;
    const NodeId root = ckt.make_node();
    EXPECT_EQ(t->build_spice(ckt, root, 0.6), std::vector<NodeId>{root});
    EXPECT_TRUE(ckt.capacitors().empty());
    EXPECT_TRUE(ckt.resistors().empty());
  }
}

/// True when `t` is root-only: one node with no parent, R, C or sinks.
bool root_only(const RcTree& t) {
  return t.num_nodes() == 1 && t.parent(0) == -1 && t.edge_res(0) == 0.0 &&
         t.node_cap(0) == 0.0 && t.sinks().empty();
}

// Default trees share one root shape that holds no reference count, so
// every call that writes a shape must copy it first, and threads copy and
// drop default trees with no shared count to touch.
TEST(RcTreeShape, DefaultTreesNeverWriteTheSharedRoot) {
  const RcTree before;
  RcTree t;
  EXPECT_THROW(t.mark_sink(0, "root"), std::out_of_range);
  t.add_node(0, 10.0, 1e-15);
  t.mark_sink(1, "Z");
  t = t.scaled(1.5, 0.5);
  Rng rng(3);
  t = t.perturbed(rng, 0.1, 1.05, 0.95);
  EXPECT_EQ(t.num_nodes(), 2);
  EXPECT_EQ(t.sinks().size(), 1u);
  const RcTree plain;
  EXPECT_TRUE(root_only(plain.scaled(2.0, 3.0)));
  EXPECT_TRUE(root_only(plain.perturbed(rng, 0.1, 2.0, 3.0)));
  const RcTree after;
  for (const RcTree* d : {&before, &plain, &after}) {
    EXPECT_TRUE(root_only(*d));
  }

  constexpr int kThreads = 4;
  std::vector<int> bad(kThreads, 0);
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&bad, k] {
      for (int i = 0; i < 2000; ++i) {
        const RcTree fresh;
        std::vector<RcTree> copies(8, fresh);
        RcTree kept = copies[static_cast<std::size_t>(i % 8)];
        copies.clear();
        if (!root_only(kept)) ++bad[static_cast<std::size_t>(k)];
        kept.add_node(0, 1.0, 1e-15);
        if (!root_only(fresh)) ++bad[static_cast<std::size_t>(k)];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad, std::vector<int>(kThreads, 0));
  EXPECT_TRUE(root_only(RcTree{}));
}

TEST(RcTreeShape, PoolThreadsCopyAnnotateAndPerturbOneTree) {
  const RcTree base = sinked_tree(21, 60);
  const TreeBits base_before = bits_of(base);
  // One annotation plus one variation sample per task, the way
  // characterization and annotation copy a shared tree.
  auto task = [&base](std::size_t i) {
    RcTree t = base;
    std::vector<double> out;
    for (const auto& s : t.sinks()) {
      t.add_cap(s.node, 1e-15 * static_cast<double>(1 + (i + s.node) % 5));
    }
    for (const auto& s : t.sinks()) out.push_back(t.elmore(s.node));
    Rng rng(1000 + i);
    const RcTree p = t.perturbed(rng, 0.1, 1.02, 0.98);
    for (const auto& s : p.sinks()) {
      out.push_back(p.elmore(s.node));
      out.push_back(p.second_moment(s.node));
    }
    return out;
  };
  constexpr std::size_t kTasks = 64;
  std::vector<std::vector<double>> serial(kTasks);
  std::vector<std::vector<double>> pooled(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) serial[i] = task(i);

  ThreadPool pool(3);
  ExecContext exec;
  exec.pool = &pool;
  exec.threads = 4;
  const unsigned blocks =
      exec.parallel_for(kTasks, [&](std::size_t i) { pooled[i] = task(i); });
  EXPECT_EQ(blocks, 4u);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_TRUE(same_doubles(pooled[i], serial[i])) << "task " << i;
  }
  EXPECT_TRUE(same_bits(bits_of(base), base_before));
}

TEST(RcTreeShape, SpefRoundTripOfAnAnnotatedCopyMatchesADirectBuild) {
  // Annotation copies the database tree and adds each receiver's pin cap
  // at its sink; the direct build adds the same caps to its own tree.
  const auto pin_cap = [](int node) { return 0.25e-15 * (1 + node % 3); };
  const RcTree stored = sinked_tree(33, 40);
  RcTree annotated = stored;
  RcTree direct = sinked_tree(33, 40);
  for (RcTree* t : {&annotated, &direct}) {
    for (const auto& s : t->sinks()) t->add_cap(s.node, pin_cap(s.node));
  }
  ParasiticDb from_copy;
  ParasiticDb from_direct;
  from_copy.add("n1", annotated);
  from_direct.add("n1", direct);
  const std::string spef = from_copy.to_spef("d");
  EXPECT_EQ(spef, from_direct.to_spef("d"));
  EXPECT_TRUE(same_bits(
      bits_of(ParasiticDb::from_spef(spef).net("n1")),
      bits_of(ParasiticDb::from_spef(from_direct.to_spef("d")).net("n1"))));

  // The stored tree the copy came from still writes its unannotated SPEF.
  ParasiticDb original;
  ParasiticDb rebuilt;
  original.add("n1", stored);
  rebuilt.add("n1", sinked_tree(33, 40));
  EXPECT_EQ(original.to_spef("d"), rebuilt.to_spef("d"));
  EXPECT_NE(original.to_spef("d"), spef);
}

}  // namespace
}  // namespace nsdc
