#include "sta/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/designgen.hpp"
#include "same_bits.hpp"
#include "sta/annotate.hpp"
#include "sta/timer.hpp"
#include "synthetic_charlib.hpp"
#include "util/cancel.hpp"
#include "util/errors.hpp"
#include "util/threading.hpp"

namespace nsdc {
namespace {

using testfix::make_charlib;

class StaTest : public ::testing::Test {
 protected:
  StaTest()
      : charlib(make_charlib()),
        cells(CellLibrary::standard()),
        model(NSigmaCellModel::fit(charlib)),
        tech(TechParams::nominal28()),
        engine(model, tech) {}

  CharLib charlib;
  CellLibrary cells;
  NSigmaCellModel model;
  TechParams tech;
  StaEngine engine;
};

TEST_F(StaTest, SingleInverterArrival) {
  GateNetlist nl("one");
  const int a = nl.add_primary_input("a");
  const int g = nl.add_cell("u1", cells.by_name("INVx1"), {a}, "y");
  nl.mark_primary_output(nl.cell(g).out_net);
  ParasiticDb empty;  // wireless: loads are pin caps only (none here)
  const auto res = engine.run(nl, empty);
  EXPECT_GT(res.max_arrival, 0.0);
  EXPECT_EQ(res.critical_net, nl.cell(g).out_net);
  // Arrival equals the mean-delay table at (PI slew, load 0-ish).
  const double expected = model.mean_delay("INVx1", 0, true, 10e-12, 0.0);
  const double expected_f = model.mean_delay("INVx1", 0, false, 10e-12, 0.0);
  EXPECT_NEAR(res.max_arrival, std::max(expected, expected_f), 1e-15);
}

TEST_F(StaTest, ChainArrivalsAccumulate) {
  GateNetlist nl("chain");
  int net = nl.add_primary_input("a");
  for (int i = 0; i < 4; ++i) {
    const int g = nl.add_cell("u" + std::to_string(i), cells.by_name("INVx2"),
                              {net}, "w" + std::to_string(i));
    net = nl.cell(g).out_net;
  }
  nl.mark_primary_output(net);
  ParasiticDb empty;
  const auto res = engine.run(nl, empty);
  // Strictly increasing arrivals along the chain.
  double prev = 0.0;
  for (std::size_t c = 0; c < nl.num_cells(); ++c) {
    const int out = nl.cell(static_cast<int>(c)).out_net;
    const auto& nt = res.nets[static_cast<std::size_t>(out)];
    const double arr = std::max(nt.arrival[0], nt.arrival[1]);
    EXPECT_GT(arr, prev);
    prev = arr;
  }
}

TEST_F(StaTest, DualRailInversionTracking) {
  // Through one inverter, the rising output arrival derives from the
  // falling input (and vice versa).
  GateNetlist nl("inv");
  const int a = nl.add_primary_input("a");
  const int g = nl.add_cell("u", cells.by_name("INVx1"), {a}, "y");
  nl.mark_primary_output(nl.cell(g).out_net);
  ParasiticDb empty;
  const auto res = engine.run(nl, empty);
  const auto& nt = res.nets[static_cast<std::size_t>(nl.cell(g).out_net)];
  // Rise at output uses the falling-input arc (in_rising=false).
  const double expect_rise = model.mean_delay("INVx1", 0, false, 10e-12, 0.0);
  const double expect_fall = model.mean_delay("INVx1", 0, true, 10e-12, 0.0);
  EXPECT_NEAR(nt.arrival[0], expect_rise, 1e-15);
  EXPECT_NEAR(nt.arrival[1], expect_fall, 1e-15);
}

TEST_F(StaTest, CriticalPathPicksSlowerBranch) {
  // Two parallel branches into a NAND: one INVx1 (slow), one chain of
  // nothing. The critical path must route through the slower pin.
  GateNetlist nl("br");
  const int a = nl.add_primary_input("a");
  const int b = nl.add_primary_input("b");
  const int slow1 = nl.add_cell("s1", cells.by_name("INVx1"), {a}, "m1");
  const int slow2 =
      nl.add_cell("s2", cells.by_name("INVx1"), {nl.cell(slow1).out_net}, "m2");
  const int g = nl.add_cell("g", cells.by_name("NAND2x2"),
                            {nl.cell(slow2).out_net, b}, "y");
  nl.mark_primary_output(nl.cell(g).out_net);
  ParasiticDb empty;
  const auto res = engine.run(nl, empty);
  const auto path = engine.extract_critical_path(nl, res);
  ASSERT_EQ(path.stages.size(), 3u);
  EXPECT_EQ(path.stages[0].cell->name(), "INVx1");
  EXPECT_EQ(path.stages[1].cell->name(), "INVx1");
  EXPECT_EQ(path.stages[2].cell->name(), "NAND2x2");
  EXPECT_EQ(path.stages[2].pin, 0);  // the slow pin
  // Stage metadata links: load cell of stage i is stage i+1's cell.
  EXPECT_EQ(path.stages[0].load_cell, "INVx1");
  EXPECT_EQ(path.stages[1].load_cell, "NAND2x2");
}

TEST_F(StaTest, AnnotatedWiresAddElmoreDelay) {
  GateNetlist nl("wired");
  const int a = nl.add_primary_input("a");
  const int g1 = nl.add_cell("u1", cells.by_name("INVx2"), {a}, "m");
  const int g2 =
      nl.add_cell("u2", cells.by_name("INVx2"), {nl.cell(g1).out_net}, "y");
  nl.mark_primary_output(nl.cell(g2).out_net);

  const ParasiticDb spef = generate_parasitics(nl, tech);
  ParasiticDb empty;
  const auto with_wires = engine.run(nl, spef);
  const auto without = engine.run(nl, empty);
  EXPECT_GT(with_wires.max_arrival, without.max_arrival);
}

TEST_F(StaTest, NetLoadIncludesWireAndPins) {
  GateNetlist nl("load");
  const int a = nl.add_primary_input("a");
  const int g1 = nl.add_cell("u1", cells.by_name("INVx2"), {a}, "m");
  const int g2 =
      nl.add_cell("u2", cells.by_name("INVx8"), {nl.cell(g1).out_net}, "y");
  nl.mark_primary_output(nl.cell(g2).out_net);
  const ParasiticDb spef = generate_parasitics(nl, tech);
  const auto res = engine.run(nl, spef);
  const auto m_net = static_cast<std::size_t>(nl.cell(g1).out_net);
  const double wire_cap = spef.net("m").total_cap();
  const double pin_cap = cells.by_name("INVx8").input_cap(tech, 0);
  EXPECT_NEAR(res.net_load[m_net], wire_cap + pin_cap, 1e-20);
}

TEST_F(StaTest, ThrowsWithoutReachablePo) {
  GateNetlist nl("empty");
  nl.add_primary_input("a");
  ParasiticDb empty;
  EXPECT_THROW(engine.run(nl, empty), std::runtime_error);
}

TEST_F(StaTest, ExtractedPathSlewsArePropagated) {
  GateNetlist nl("slew");
  int net = nl.add_primary_input("a");
  for (int i = 0; i < 3; ++i) {
    const int g = nl.add_cell("u" + std::to_string(i), cells.by_name("NAND2x1"),
                              {net, net}, "w" + std::to_string(i));
    net = nl.cell(g).out_net;
  }
  nl.mark_primary_output(net);
  ParasiticDb empty;
  const auto res = engine.run(nl, empty);
  const auto path = engine.extract_critical_path(nl, res);
  // First stage sees the PI slew; later stages see table-driven slews.
  EXPECT_NEAR(path.stages[0].input_slew, 10e-12, 1e-15);
  for (const auto& st : path.stages) {
    EXPECT_GT(st.input_slew, 1e-12);
    EXPECT_LT(st.input_slew, 2e-9);
  }
}

TEST_F(StaTest, WorstPathsSortedAndCapped) {
  // Three endpoints of different depth; paths must come back ordered by
  // arrival and respect the cap.
  GateNetlist nl("multi");
  const int a = nl.add_primary_input("a");
  int net = a;
  std::vector<int> po_nets;
  for (int depth = 1; depth <= 3; ++depth) {
    const int g = nl.add_cell("u" + std::to_string(depth),
                              cells.by_name("INVx1"), {net},
                              "w" + std::to_string(depth));
    net = nl.cell(g).out_net;
    nl.mark_primary_output(net);
    po_nets.push_back(net);
  }
  ParasiticDb empty;
  const auto res = engine.run(nl, empty);
  const auto paths = engine.extract_worst_paths(nl, res, 10);
  ASSERT_EQ(paths.size(), 3u);  // one per PO
  EXPECT_EQ(paths[0].stages.size(), 3u);
  EXPECT_EQ(paths[1].stages.size(), 2u);
  EXPECT_EQ(paths[2].stages.size(), 1u);
  EXPECT_FALSE(paths[0].note.empty());

  const auto capped = engine.extract_worst_paths(nl, res, 2);
  EXPECT_EQ(capped.size(), 2u);
  // Entry 0 equals the critical path.
  const auto crit = engine.extract_critical_path(nl, res);
  EXPECT_EQ(capped[0].stages.size(), crit.stages.size());
}

TEST_F(StaTest, TimerAnalyzePathsConsistentWithAnalyze) {
  NSigmaTimer timer(charlib, cells, tech);
  GateNetlist nl("tp");
  const int a = nl.add_primary_input("a");
  int net = a;
  for (int i = 0; i < 3; ++i) {
    const int g = nl.add_cell("u" + std::to_string(i), cells.by_name("INVx2"),
                              {net}, "w" + std::to_string(i));
    net = nl.cell(g).out_net;
    if (i >= 1) nl.mark_primary_output(net);
  }
  const ParasiticDb spef = generate_parasitics(nl, tech);
  const auto analysis = timer.analyze(nl, spef);
  const auto reports = timer.analyze_paths(nl, spef, 10);
  ASSERT_EQ(reports.size(), 2u);  // two POs
  // Entry 0 matches the single-path analyze() result.
  for (int lv = 0; lv < 7; ++lv) {
    EXPECT_NEAR(reports[0].quantiles[static_cast<std::size_t>(lv)],
                analysis.quantiles[static_cast<std::size_t>(lv)], 1e-18);
  }
  EXPECT_GT(reports[0].quantiles[3], reports[1].quantiles[3]);
}

TEST_F(StaTest, FeedThroughPoHasNoPath) {
  // y is driven by a cell; b is a primary input that is also an output.
  GateNetlist nl("feed");
  const int a = nl.add_primary_input("a");
  const int b = nl.add_primary_input("b");
  const int g = nl.add_cell("u1", cells.by_name("INVx1"), {a}, "y");
  nl.mark_primary_output(nl.cell(g).out_net);
  nl.mark_primary_output(b);
  const ParasiticDb spef = generate_parasitics(nl, tech);
  const auto res = engine.run(nl, spef);
  const auto paths = engine.extract_worst_paths(nl, res, 10);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].stages.size(), 1u);
  EXPECT_EQ(paths[0].note.rfind("endpoint y ", 0), 0u) << paths[0].note;

  const NSigmaTimer timer(charlib, cells, tech);
  const auto reports = timer.analyze_paths(nl, spef, 10);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].path.stages.size(), 1u);
}

// ------------------------------------------------- parallel path reports --
// The reports run on a 3-worker pool with grain 1 and min_parallel_cells 1,
// so even small designs spread their backtracks over the lanes and the
// stage chunks split paths.

StaConfig pool_config(ThreadPool& pool, unsigned lanes,
                      CancellationToken* cancel = nullptr) {
  StaConfig cfg;
  cfg.exec.pool = &pool;
  cfg.exec.threads = lanes;
  cfg.exec.grain = 1;
  cfg.exec.cancel = cancel;
  cfg.min_parallel_cells = 1;
  return cfg;
}

/// Each stage's load cell is the next stage's cell, the next stage switches
/// on the edge this stage drives, and the last stage has no load cell: a
/// check of the report that needs no second report.
void expect_chained(const PathDescription& p) {
  ASSERT_FALSE(p.stages.empty());
  for (std::size_t s = 0; s < p.stages.size(); ++s) {
    const PathStage& st = p.stages[s];
    ASSERT_NE(st.cell, nullptr) << "stage " << s;
    if (s + 1 == p.stages.size()) {
      EXPECT_EQ(st.load_cell, "");
      break;
    }
    const PathStage& next = p.stages[s + 1];
    ASSERT_NE(next.cell, nullptr) << "stage " << s + 1;
    EXPECT_EQ(st.load_cell, next.cell->name()) << "stage " << s;
    EXPECT_EQ(next.in_rising, st.cell->inverting() != st.in_rising)
        << "stage " << s;
  }
}

TEST_F(StaTest, ParallelReportsSameBitsAt1To8LanesOnAPool) {
  // C432-like: over a hundred endpoints with parasitics. DIVCHAIN: a
  // critical path of over 2,000 stages, which several chunks share.
  const NSigmaCellModel full =
      NSigmaCellModel::fit(testfix::make_full_charlib());
  ThreadPool pool(3);
  struct Case {
    const char* name;
    GateNetlist nl;
    std::size_t max_paths;
    std::size_t min_paths;
    std::size_t min_critical_stages;
  };
  const std::vector<Case> cases = {
      {"C432-like", generate_iscas_like("C432", cells), 1000, 100, 20},
      {"DIVCHAIN", generate_divider_chain(16, 4, cells), 4, 4, 2000}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ParasiticDb spef = generate_parasitics(c.nl, tech);
    const StaEngine serial(full, tech, pool_config(pool, 1));
    const StaEngine::Result res = serial.run(c.nl, spef);
    const auto ref = serial.extract_worst_paths(c.nl, res, c.max_paths);
    const PathDescription ref_critical = serial.extract_critical_path(c.nl, res);
    ASSERT_GE(ref.size(), c.min_paths);
    ASSERT_GE(ref_critical.stages.size(), c.min_critical_stages);
    for (const PathDescription& p : ref) expect_chained(p);
    expect_chained(ref_critical);
    // Entry 0 is the critical path, note aside.
    PathDescription first = ref.front();
    first.note.clear();
    EXPECT_EQ(testfix::path_diff(first, ref_critical), "");

    for (const unsigned lanes : {1u, 2u, 4u, 8u}) {
      const StaEngine engine(full, tech, pool_config(pool, lanes));
      EXPECT_EQ(testfix::path_diff(
                    engine.extract_worst_paths(c.nl, res, c.max_paths), ref),
                "")
          << lanes << " lanes";
      EXPECT_EQ(testfix::path_diff(engine.extract_critical_path(c.nl, res),
                                   ref_critical),
                "")
          << lanes << " lanes";
    }
  }
}

/// Runs `report` and returns the message of the error it throws, prefixed
/// with "runtime_error: " or "out_of_range: ", or "no throw".
std::string thrown(const std::function<void()>& report) {
  try {
    report();
  } catch (const std::out_of_range& e) {
    return std::string("out_of_range: ") + e.what();
  } catch (const std::runtime_error& e) {
    return std::string("runtime_error: ") + e.what();
  }
  return "no throw";
}

TEST_F(StaTest, ParallelReportRethrowsTheLowestEndpointsErrorThenRunsClean) {
  // Twelve disjoint inverter chains of 20..31 cells, one PO each: a path's
  // stage count names its chain, and breaking a chain breaks one path.
  GateNetlist nl("chains");
  std::vector<std::vector<int>> chain_nets;
  for (int c = 0; c < 12; ++c) {
    int net = nl.add_primary_input("a" + std::to_string(c));
    chain_nets.emplace_back();
    for (int i = 0; i < 20 + c; ++i) {
      const int g = nl.add_cell(
          "u" + std::to_string(c) + "_" + std::to_string(i),
          cells.by_name("INVx1"), {net},
          "w" + std::to_string(c) + "_" + std::to_string(i));
      net = nl.cell(g).out_net;
      chain_nets.back().push_back(net);
    }
    nl.mark_primary_output(net);
  }
  const ParasiticDb spef = generate_parasitics(nl, tech);
  ThreadPool pool(3);
  const StaEngine engine(model, tech, pool_config(pool, 4));
  const StaEngine::Result res = engine.run(nl, spef);
  const auto ref = engine.extract_worst_paths(nl, res, 12);
  ASSERT_EQ(ref.size(), 12u);
  const auto mid_net = [&](std::size_t p) {
    const std::vector<int>& nets = chain_nets.at(ref[p].stages.size() - 20);
    return static_cast<std::size_t>(nets[nets.size() / 2]);
  };
  // Breaks path p's backtrack halfway (both edges, whichever it takes).
  const auto break_backtrack = [&](StaEngine::Result& r, std::size_t p) {
    r.nets[mid_net(p)].from_pin = {-1, -1};
  };
  // Gives path p's middle stage a wire without the next stage's sink, so
  // its stage fill throws std::out_of_range.
  const auto drop_sink = [&](StaEngine::Result& r, std::size_t p) {
    RcTree wire;
    wire.add_node(0, 10.0, 1e-16);
    wire.mark_sink(1, "elsewhere");
    r.annotated[mid_net(p)] = wire;
  };
  const std::string broken =
      "runtime_error: StaEngine: broken backtrack in chains";
  const auto report = [&](const StaEngine::Result& r) {
    return thrown([&] { (void)engine.extract_worst_paths(nl, r, 12); });
  };
  const auto expect_clean = [&] {
    EXPECT_EQ(testfix::path_diff(engine.extract_worst_paths(nl, res, 12), ref),
              "");
  };

  {
    SCOPED_TRACE("one broken endpoint");
    StaEngine::Result r = res;
    break_backtrack(r, 5);
    EXPECT_EQ(report(r), broken);
    break_backtrack(r, 0);
    EXPECT_EQ(thrown([&] { (void)engine.extract_critical_path(nl, r); }),
              broken);
    expect_clean();
  }
  {
    SCOPED_TRACE("two broken endpoints");
    StaEngine::Result r = res;
    break_backtrack(r, 3);
    break_backtrack(r, 9);
    EXPECT_EQ(report(r), broken);
    expect_clean();
  }
  // The lower endpoint's error wins whichever phase raises it.
  {
    SCOPED_TRACE("lower endpoint fails its stage fill");
    StaEngine::Result r = res;
    drop_sink(r, 2);
    break_backtrack(r, 6);
    EXPECT_EQ(report(r).rfind("out_of_range: ", 0), 0u) << report(r);
    expect_clean();
  }
  {
    SCOPED_TRACE("lower endpoint fails its backtrack");
    StaEngine::Result r = res;
    break_backtrack(r, 2);
    drop_sink(r, 6);
    EXPECT_EQ(report(r), broken);
    expect_clean();
  }
}

TEST_F(StaTest, ParallelReportPollsTheCancellationToken) {
  const GateNetlist nl = generate_divider_chain(8, 2, cells);
  const ParasiticDb spef = generate_parasitics(nl, tech);
  ThreadPool pool(3);
  CancellationToken token;
  token.request_cancel();
  const StaEngine plain(model, tech, pool_config(pool, 4));
  const StaEngine cancelled(model, tech, pool_config(pool, 4, &token));
  const StaEngine::Result res = plain.run(nl, spef);
  const auto ref = plain.extract_worst_paths(nl, res, 8);
  EXPECT_THROW((void)cancelled.extract_worst_paths(nl, res, 8),
               CancelledError);
  EXPECT_THROW((void)cancelled.extract_critical_path(nl, res), CancelledError);
  EXPECT_EQ(testfix::path_diff(plain.extract_worst_paths(nl, res, 8), ref), "");
}

TEST(Annotate, SinkNamingConvention) {
  CellInst inst;
  inst.name = "u42";
  EXPECT_EQ(sink_pin_name(inst, 1), "u42:1");
}

TEST(Annotate, EveryDrivenNetGetsATree) {
  const TechParams tech = TechParams::nominal28();
  const CellLibrary cells = CellLibrary::standard();
  GateNetlist nl("ann");
  const int a = nl.add_primary_input("a");
  const int g1 = nl.add_cell("u1", cells.by_name("INVx1"), {a}, "m");
  nl.mark_primary_output(nl.cell(g1).out_net);
  const ParasiticDb db = generate_parasitics(nl, tech);
  EXPECT_TRUE(db.contains("a"));
  EXPECT_TRUE(db.contains("m"));  // PO net gets a "PO" sink
  EXPECT_NO_THROW(db.net("m").sink_node("PO"));
  EXPECT_NO_THROW(db.net("a").sink_node("u1:0"));
}

TEST(Annotate, DeterministicBySeed) {
  const TechParams tech = TechParams::nominal28();
  const CellLibrary cells = CellLibrary::standard();
  GateNetlist nl("det");
  const int a = nl.add_primary_input("a");
  const int g1 = nl.add_cell("u1", cells.by_name("INVx1"), {a}, "m");
  nl.mark_primary_output(nl.cell(g1).out_net);
  const ParasiticDb d1 = generate_parasitics(nl, tech);
  const ParasiticDb d2 = generate_parasitics(nl, tech);
  EXPECT_NEAR(d1.net("a").total_cap(), d2.net("a").total_cap(), 1e-30);
}

}  // namespace
}  // namespace nsdc
