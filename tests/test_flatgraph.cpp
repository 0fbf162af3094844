// FlatTimingGraph contract tests: compile/round-trip equivalence against
// the source GateNetlist, CSR adjacency invariants, level contiguity,
// interned-name fidelity. Byte identity: StaEngine must match the
// independent GateNetlist reference pass (reference_sta.hpp) at 1 and 4
// threads (1, 2, 4 and 8 on a deep, narrow design), and the bound per-arc
// records must match the name-keyed lookups they replace;
// NetlistMonteCarlo, AnalyticSsta and interval propagation are
// pinned on a C432-like design by golden CSVs (regenerate after an
// intentional model change with NSDC_REGEN_GOLDEN=1 ./tests/test_flatgraph)
// and by 1-vs-4-thread memcmps. Plus the scale gate: a 100k-cell designgen
// netlist compiles under a wall bound, and the 100k+ generators are
// structurally lint-clean DAGs.
#include "netlist/flatgraph.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.hpp"
#include "lint/lint.hpp"
#include "netlist/benchio.hpp"
#include "netlist/designgen.hpp"
#include "sta/annotate.hpp"
#include "sta/flatsta.hpp"
#include "liberty/synthlib.hpp"
#include "sta/netmc.hpp"
#include "sta/ssta_analytic.hpp"
#include "util/threading.hpp"
#include "reference_sta.hpp"
#include "same_bits.hpp"

namespace nsdc {
namespace {

std::string repo_path(const std::string& rel) {
  return std::string(NSDC_SOURCE_DIR) + "/" + rel;
}

/// StaConfig pinned to `threads` lanes with the parallel path forced on
/// (the default min_parallel_cells would keep these designs serial, and
/// the autotuned minimum block would run their narrow levels inline).
StaConfig exec_config(unsigned threads) {
  StaConfig cfg;
  cfg.exec.threads = threads;
  cfg.exec.grain = 1;
  cfg.min_parallel_cells = threads > 1 ? 1 : 1u << 30;
  return cfg;
}

/// Owns library + models + one design + its parasitics (CellInst stores
/// CellType* into the fixture's own CellLibrary, which must outlive the
/// netlist).
struct DesignFixture {
  CellLibrary cells = CellLibrary::standard();
  TechParams tech = TechParams::nominal28();
  CharLib charlib;
  NSigmaCellModel model;
  NSigmaWireModel wire_model;
  GateNetlist nl;
  ParasiticDb spef;

  template <class BuildFn>
  explicit DesignFixture(BuildFn&& build)
      : charlib(make_synthetic_charlib()),
        model(NSigmaCellModel::fit(charlib)),
        wire_model(NSigmaWireModel::fit(charlib, cells)),
        nl(build(cells)),
        spef(generate_parasitics(nl, tech)) {}
};

GateNetlist build_c17(const CellLibrary& cells) {
  return load_bench(repo_path("data/c17.bench"), cells);
}
GateNetlist build_c432(const CellLibrary& cells) {
  return generate_iscas_like("C432", cells);
}
GateNetlist build_random500(const CellLibrary& cells) {
  RandomNetlistSpec spec;
  spec.target_cells = 500;
  spec.seed = 17;
  return generate_random_mapped(spec, cells);
}

using BuildFn = GateNetlist (*)(const CellLibrary&);
const std::vector<std::pair<const char*, BuildFn>>& design_matrix() {
  static const std::vector<std::pair<const char*, BuildFn>> designs = {
      {"c17", &build_c17},
      {"C432-like", &build_c432},
      {"random-500", &build_random500},
  };
  return designs;
}

/// Bitwise equality of two doubles (distinguishes -0.0 and NaN payloads).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// ------------------------------------------------ compile round-trip

TEST(FlatGraph, CompileRoundTripsEveryDesign) {
  for (const auto& [name, build] : design_matrix()) {
    const DesignFixture fx(build);
    const GateNetlist& nl = fx.nl;
    const FlatTimingGraph g = FlatTimingGraph::compile(nl);
    using Id = FlatTimingGraph::Id;

    ASSERT_EQ(g.num_cells(), nl.num_cells()) << name;
    ASSERT_EQ(g.num_nets(), nl.num_nets()) << name;
    EXPECT_EQ(g.design_name(), nl.name()) << name;
    EXPECT_EQ(g.source_generation(), nl.generation()) << name;

    // Per cell: position round-trip, out net, type, inverting, fanin
    // arcs, interned instance name.
    for (std::size_t c = 0; c < nl.num_cells(); ++c) {
      const Id pos = g.position_of_cell(static_cast<Id>(c));
      ASSERT_LT(pos, g.num_cells()) << name;
      ASSERT_EQ(g.cell_id(pos), static_cast<Id>(c)) << name;
      const CellInst& inst = nl.cell(static_cast<int>(c));
      EXPECT_EQ(g.cell_out_net(pos), static_cast<Id>(inst.out_net)) << name;
      EXPECT_EQ(g.cell_type(pos), inst.type) << name;
      EXPECT_EQ(g.inverting(pos), inst.type->inverting()) << name;
      EXPECT_EQ(g.cell_name(pos), std::string_view(inst.name)) << name;
      ASSERT_EQ(g.fanin_end(pos) - g.fanin_begin(pos),
                static_cast<Id>(inst.fanin_nets.size()))
          << name;
      for (std::size_t p = 0; p < inst.fanin_nets.size(); ++p) {
        const Id arc = g.fanin_begin(pos) + static_cast<Id>(p);
        if (inst.fanin_nets[p] < 0) {
          EXPECT_EQ(g.fanin_net(arc), FlatTimingGraph::kNoId) << name;
          EXPECT_EQ(g.fanin_sink(arc), FlatTimingGraph::kNoId) << name;
        } else {
          EXPECT_EQ(g.fanin_net(arc),
                    static_cast<Id>(inst.fanin_nets[p]))
              << name;
        }
      }
    }

    // Per net: driver position, fanout entries in net.sinks order,
    // interned names (net and pre-rendered "<inst>:<pin>" sink names).
    for (std::size_t n = 0; n < nl.num_nets(); ++n) {
      const Net& net = nl.net(static_cast<int>(n));
      const Id id = static_cast<Id>(n);
      EXPECT_EQ(g.net_name(id), std::string_view(net.name)) << name;
      if (net.driver_cell < 0) {
        EXPECT_EQ(g.net_driver_pos(id), FlatTimingGraph::kNoId) << name;
      } else {
        EXPECT_EQ(g.net_driver_pos(id),
                  g.position_of_cell(static_cast<Id>(net.driver_cell)))
            << name;
      }
      ASSERT_EQ(g.fanout_end(id) - g.fanout_begin(id),
                static_cast<Id>(net.sinks.size()))
          << name;
      for (std::size_t s = 0; s < net.sinks.size(); ++s) {
        const Id f = g.fanout_begin(id) + static_cast<Id>(s);
        const NetSink& sink = net.sinks[s];
        EXPECT_EQ(g.fanout_pos(f),
                  g.position_of_cell(static_cast<Id>(sink.cell)))
            << name;
        EXPECT_EQ(g.fanout_pin(f), static_cast<Id>(sink.pin)) << name;
        EXPECT_EQ(g.sink_name(f),
                  std::string_view(
                      sink_pin_name(nl.cell(sink.cell), sink.pin)))
            << name;
      }
    }

    // Boundary lists match (PO list comes from the generation cache).
    ASSERT_EQ(g.primary_inputs().size(), nl.primary_inputs().size()) << name;
    for (std::size_t i = 0; i < nl.primary_inputs().size(); ++i) {
      EXPECT_EQ(g.primary_inputs()[i],
                static_cast<Id>(nl.primary_inputs()[i]))
          << name;
    }
    const auto& pos = nl.primary_outputs();
    ASSERT_EQ(g.primary_outputs().size(), pos.size()) << name;
    for (std::size_t i = 0; i < pos.size(); ++i) {
      EXPECT_EQ(g.primary_outputs()[i], static_cast<Id>(pos[i])) << name;
    }
  }
}

TEST(FlatGraph, LevelContiguityMatchesLevelization) {
  for (const auto& [name, build] : design_matrix()) {
    const DesignFixture fx(build);
    const FlatTimingGraph g = FlatTimingGraph::compile(fx.nl);
    const auto& lev = fx.nl.levelization();
    using Id = FlatTimingGraph::Id;
    ASSERT_EQ(g.num_levels(), static_cast<Id>(lev.levels.size())) << name;
    Id expect_begin = 0;
    for (std::size_t l = 0; l < lev.levels.size(); ++l) {
      const Id li = static_cast<Id>(l);
      EXPECT_EQ(g.level_begin(li), expect_begin) << name;
      ASSERT_EQ(g.level_end(li) - g.level_begin(li),
                static_cast<Id>(lev.levels[l].size()))
          << name;
      // Positions replay the per-level ascending-cell-index order the
      // legacy engine's parallel_for visits.
      for (std::size_t i = 0; i < lev.levels[l].size(); ++i) {
        EXPECT_EQ(g.cell_id(g.level_begin(li) + static_cast<Id>(i)),
                  static_cast<Id>(lev.levels[l][i]))
            << name;
      }
      expect_begin = g.level_end(li);
    }
    EXPECT_EQ(expect_begin, g.num_cells()) << name;
  }
}

// CSR structural invariants: offsets are monotone and exhaustive, and the
// arc -> fanout-entry mapping is a bijection onto the connected arcs.
TEST(FlatGraph, CsrAdjacencyProperties) {
  for (const auto& [name, build] : design_matrix()) {
    const DesignFixture fx(build);
    const FlatTimingGraph g = FlatTimingGraph::compile(fx.nl);
    using Id = FlatTimingGraph::Id;

    // Fanin offsets: monotone, covering [0, num_arcs).
    EXPECT_EQ(g.fanin_begin(0), 0u) << name;
    for (Id pos = 0; pos < g.num_cells(); ++pos) {
      EXPECT_LE(g.fanin_begin(pos), g.fanin_end(pos)) << name;
      if (pos + 1 < g.num_cells()) {
        EXPECT_EQ(g.fanin_end(pos), g.fanin_begin(pos + 1)) << name;
      }
    }
    EXPECT_EQ(g.fanin_end(g.num_cells() - 1), g.num_arcs()) << name;

    // Fanout offsets: monotone, covering [0, num_fanouts).
    EXPECT_EQ(g.fanout_begin(0), 0u) << name;
    for (Id n = 0; n < g.num_nets(); ++n) {
      EXPECT_LE(g.fanout_begin(n), g.fanout_end(n)) << name;
      if (n + 1 < g.num_nets()) {
        EXPECT_EQ(g.fanout_end(n), g.fanout_begin(n + 1)) << name;
      }
    }
    EXPECT_EQ(g.fanout_end(g.num_nets() - 1), g.num_fanouts()) << name;

    // fanin_sink is a bijection: every connected arc maps to a distinct
    // fanout entry that points straight back at it.
    std::set<Id> seen;
    Id connected = 0;
    for (Id pos = 0; pos < g.num_cells(); ++pos) {
      for (Id arc = g.fanin_begin(pos); arc < g.fanin_end(pos); ++arc) {
        const Id f = g.fanin_sink(arc);
        if (g.fanin_net(arc) == FlatTimingGraph::kNoId) {
          EXPECT_EQ(f, FlatTimingGraph::kNoId) << name;
          continue;
        }
        ++connected;
        ASSERT_LT(f, g.num_fanouts()) << name;
        EXPECT_TRUE(seen.insert(f).second) << name << ": duplicate entry";
        EXPECT_EQ(g.fanout_pos(f), pos) << name;
        EXPECT_EQ(g.fanout_pin(f), arc - g.fanin_begin(pos)) << name;
        // The entry lives in the fanin net's CSR range.
        const Id net = g.fanin_net(arc);
        EXPECT_GE(f, g.fanout_begin(net)) << name;
        EXPECT_LT(f, g.fanout_end(net)) << name;
        // A level-respecting edge: source driver strictly below sink.
        const Id drv = g.net_driver_pos(net);
        if (drv != FlatTimingGraph::kNoId) {
          EXPECT_LT(drv, pos) << name << ": edge violates level order";
        }
      }
    }
    EXPECT_EQ(connected, g.num_fanouts()) << name;
  }
}

/// Where `name` starts in `g`'s name arena (net 0's name opens it).
std::ptrdiff_t arena_offset(const FlatTimingGraph& g, std::string_view name) {
  return name.data() - g.net_name(0).data();
}

/// The first accessor on which `a` and `b` differ, "" when none: sizes,
/// provenance, boundary lists, every per-level, per-position, per-cell,
/// per-arc, per-net and per-fanout array, and each interned name's bytes
/// and arena offset.
std::string graph_diff(const FlatTimingGraph& a, const FlatTimingGraph& b) {
  using Id = FlatTimingGraph::Id;
  const auto at = [](const char* what, Id i) {
    return std::string(what) + "[" + std::to_string(i) + "]";
  };
  const auto same_name = [&](std::string_view x, std::string_view y) {
    return x == y && arena_offset(a, x) == arena_offset(b, y);
  };
  if (a.num_cells() != b.num_cells() || a.num_nets() != b.num_nets() ||
      a.num_levels() != b.num_levels() || a.num_arcs() != b.num_arcs() ||
      a.num_fanouts() != b.num_fanouts()) {
    return "sizes";
  }
  if (a.design_name() != b.design_name() ||
      a.source_generation() != b.source_generation()) {
    return "provenance";
  }
  if (a.primary_inputs() != b.primary_inputs()) return "primary_inputs";
  if (a.primary_outputs() != b.primary_outputs()) return "primary_outputs";
  for (Id l = 0; l < a.num_levels(); ++l) {
    if (a.level_begin(l) != b.level_begin(l) ||
        a.level_end(l) != b.level_end(l)) {
      return at("level", l);
    }
  }
  for (Id p = 0; p < a.num_cells(); ++p) {
    if (a.cell_id(p) != b.cell_id(p)) return at("cell_id", p);
    if (a.cell_out_net(p) != b.cell_out_net(p)) return at("cell_out_net", p);
    if (a.cell_type(p) != b.cell_type(p)) return at("cell_type", p);
    if (a.inverting(p) != b.inverting(p)) return at("inverting", p);
    if (a.fanin_begin(p) != b.fanin_begin(p) ||
        a.fanin_end(p) != b.fanin_end(p)) {
      return at("fanin_begin", p);
    }
    if (!same_name(a.cell_name(p), b.cell_name(p))) return at("cell_name", p);
    if (a.position_of_cell(p) != b.position_of_cell(p)) {
      return at("position_of_cell", p);
    }
  }
  for (Id arc = 0; arc < a.num_arcs(); ++arc) {
    if (a.fanin_net(arc) != b.fanin_net(arc)) return at("fanin_net", arc);
    if (a.fanin_sink(arc) != b.fanin_sink(arc)) return at("fanin_sink", arc);
  }
  for (Id n = 0; n < a.num_nets(); ++n) {
    if (a.net_driver_pos(n) != b.net_driver_pos(n)) {
      return at("net_driver_pos", n);
    }
    if (a.fanout_begin(n) != b.fanout_begin(n) ||
        a.fanout_end(n) != b.fanout_end(n)) {
      return at("fanout_begin", n);
    }
    if (!same_name(a.net_name(n), b.net_name(n))) return at("net_name", n);
  }
  for (Id f = 0; f < a.num_fanouts(); ++f) {
    if (a.fanout_pos(f) != b.fanout_pos(f)) return at("fanout_pos", f);
    if (a.fanout_pin(f) != b.fanout_pin(f)) return at("fanout_pin", f);
    if (!same_name(a.sink_name(f), b.sink_name(f))) return at("sink_name", f);
  }
  return "";
}

// compile sizes and fills its arrays over the caller's lanes. Every array
// and all three name arenas must match the 1-lane compile at 1/2/4/8 lanes
// and grain 0/1; the 24k-cell design splits each fill pass into several
// blocks even at the default grain.
TEST(FlatGraph, CompileIsIdenticalAtEveryLaneAndGrain) {
  const CellLibrary cells = CellLibrary::standard();
  RandomNetlistSpec spec;
  spec.target_cells = 24000;
  spec.seed = 23;
  std::vector<std::pair<const char*, GateNetlist>> designs;
  designs.emplace_back("c17", build_c17(cells));
  designs.emplace_back("C432-like", build_c432(cells));
  designs.emplace_back("random-24k", generate_random_mapped(spec, cells));
  ASSERT_GE(designs.back().second.num_cells(), 20000u);
  ThreadPool pool(3);
  for (const auto& [name, nl] : designs) {
    ExecContext exec;
    exec.pool = &pool;
    exec.threads = 1;
    const FlatTimingGraph ref = FlatTimingGraph::compile(nl, exec);
    ASSERT_EQ(ref.num_cells(), nl.num_cells()) << name;
    for (const unsigned lanes : {1u, 2u, 4u, 8u}) {
      for (const std::size_t grain : {std::size_t{0}, std::size_t{1}}) {
        exec.threads = lanes;
        exec.grain = grain;
        EXPECT_EQ(graph_diff(FlatTimingGraph::compile(nl, exec), ref), "")
            << name << " @" << lanes << " lanes, grain " << grain;
      }
    }
  }
}

TEST(FlatGraph, StaleGraphIsRejected) {
  DesignFixture fx(&build_c17);
  const FlatTimingGraph g = FlatTimingGraph::compile(fx.nl);
  const StaEngine engine(fx.model, fx.tech);
  // Any edit bumps generation() and invalidates the compiled snapshot.
  fx.nl.set_cell_type(0, fx.cells.by_func(fx.nl.cell(0).type->func(), 2));
  EXPECT_THROW(engine.run(g, fx.nl, fx.spef), std::invalid_argument);
}

TEST(FlatGraph, MemoryBytesIsPopulated) {
  const DesignFixture fx(&build_c432);
  const FlatTimingGraph g = FlatTimingGraph::compile(fx.nl);
  // SoA arrays + arena: at least a few bytes per cell, and bounded well
  // under the pointer-heavy legacy representation's per-cell footprint.
  EXPECT_GT(g.memory_bytes(), static_cast<std::size_t>(g.num_cells()) * 16);
  EXPECT_LT(g.memory_bytes(), static_cast<std::size_t>(g.num_cells()) * 4096);
}

// ------------------------------------------------------- reference walk

TEST(FlatGraphIdentity, StaEngineMatchesKernelReferenceAt1And4Threads) {
  for (const auto& [name, build] : design_matrix()) {
    const DesignFixture fx(build);
    for (unsigned threads : {1u, 4u}) {
      const StaConfig cfg = exec_config(threads);
      const StaEngine engine(fx.model, fx.tech, cfg);
      const StaEngine::Result got = engine.run(fx.nl, fx.spef);
      const StaEngine::Result ref =
          testfix::reference_sta_run(fx.nl, fx.spef, fx.model, fx.tech, cfg);
      const std::string what =
          std::string(name) + " @" + std::to_string(threads) + "t";
      ASSERT_EQ(testfix::sta_diff(got, ref), "") << what;
      for (std::size_t n = 0; n < ref.nets.size(); ++n) {
        ASSERT_EQ(got.annotated[n].num_nodes(), ref.annotated[n].num_nodes())
            << what << ": net " << n;
        ASSERT_TRUE(same_bits(got.annotated[n].total_cap(),
                              ref.annotated[n].total_cap()))
            << what << ": net " << n;
      }
    }
  }
}

// A deep, narrow design (~10 cells per level, with parasitics): at the
// default grain every level is below the autotuned minimum block and runs
// inline on the caller; at grain 1 each level spreads over the pool. Both
// schedules must reproduce the serial reference walk bit for bit.
TEST(FlatGraphIdentity, DeepNarrowMatchesKernelReferenceAtEveryLaneAndGrain) {
  const DesignFixture fx([](const CellLibrary& cells) {
    RandomNetlistSpec spec;
    spec.name = "deep_narrow";
    spec.target_cells = 20000;
    spec.target_depth = 2000;
    spec.seed = 11;
    return generate_random_mapped(spec, cells);
  });
  const FlatTimingGraph graph = FlatTimingGraph::compile(fx.nl);
  ASSERT_GE(graph.num_levels(), 1000u);
  ASSERT_LE(graph.num_cells(), 20u * graph.num_levels());
  const StaEngine::Result ref = testfix::reference_sta_run(
      fx.nl, fx.spef, fx.model, fx.tech, exec_config(1));
  for (const unsigned lanes : {1u, 2u, 4u, 8u}) {
    for (const std::size_t grain : {std::size_t{0}, std::size_t{1}}) {
      StaConfig cfg = exec_config(lanes);
      cfg.exec.grain = grain;
      const StaEngine engine(fx.model, fx.tech, cfg);
      EXPECT_EQ(testfix::sta_diff(engine.run(fx.nl, fx.spef), ref), "")
          << "deep-narrow @" << lanes << "t grain " << grain;
    }
  }
}

// The per-arc records the flat engines read (charlib handle, Elmore, raw
// X_w) against the name-keyed lookups they stand in for: the ones the
// reference pass makes per visit and the wire-model query.
TEST(FlatGraphIdentity, BoundRecordsMatchNameKeyedLookups) {
  for (const auto& [name, build] : design_matrix()) {
    const DesignFixture fx(build);
    const FlatTimingGraph g = FlatTimingGraph::compile(fx.nl);
    const StaEngine engine(fx.model, fx.tech);
    FlatArcRecords rec;
    const StaEngine::Result res = engine.run(g, fx.nl, fx.spef, &rec);
    flat_kernel::bind_wire_xw(g, fx.wire_model, rec);
    using Id = FlatTimingGraph::Id;
    std::size_t with_tree = 0;
    for (std::size_t c = 0; c < fx.nl.num_cells(); ++c) {
      const CellInst& inst = fx.nl.cell(static_cast<int>(c));
      const Id pos = g.position_of_cell(static_cast<Id>(c));
      for (std::size_t pin = 0; pin < inst.fanin_nets.size(); ++pin) {
        const Id arc = g.fanin_begin(pos) + static_cast<Id>(pin);
        const std::string what =
            std::string(name) + ": " + inst.name + " pin " +
            std::to_string(pin);
        for (int e = 0; e < 2; ++e) {
          EXPECT_EQ(rec.arc_model[static_cast<std::size_t>(e)][arc],
                    &fx.model.arc(inst.type->name(), static_cast<int>(pin),
                                  e == 0))
              << what;
        }
        const int fan = inst.fanin_nets[pin];
        const RcTree* tree =
            fan < 0 ? nullptr : &res.annotated[static_cast<std::size_t>(fan)];
        if (tree == nullptr || tree->num_nodes() <= 1) {
          EXPECT_EQ(rec.has_tree[arc], 0) << what;
          EXPECT_TRUE(same_bits(rec.elmore[arc], 0.0)) << what;
          EXPECT_TRUE(same_bits(rec.xw[arc], 0.0)) << what;
          continue;
        }
        ++with_tree;
        EXPECT_EQ(rec.has_tree[arc], 1) << what;
        const double elmore = tree->elmore(
            tree->sink_node(sink_pin_name(inst, static_cast<int>(pin))));
        EXPECT_TRUE(same_bits(rec.elmore[arc], elmore)) << what;
        const int drv = fx.nl.net(fan).driver_cell;
        const std::string drv_name =
            drv >= 0 ? fx.nl.cell(drv).type->name() : "INVx4";
        EXPECT_TRUE(same_bits(rec.xw[arc],
                              fx.wire_model.xw(drv_name, inst.type->name())))
            << what;
      }
    }
    EXPECT_GT(with_tree, 0u) << name;
  }
}

/// bind_arc_records as it was before it bound wire records per net: one
/// pass over positions, each arc reading its fanin net's tree at its
/// fanin_sink name. Kept as the oracle.
FlatArcRecords bind_per_position(const FlatTimingGraph& g,
                                 const NSigmaCellModel& model,
                                 const StaEngine::Result& res) {
  using Id = FlatTimingGraph::Id;
  FlatArcRecords rec;
  rec.arc_model[0].assign(g.num_arcs(), nullptr);
  rec.arc_model[1].assign(g.num_arcs(), nullptr);
  rec.elmore.assign(g.num_arcs(), 0.0);
  rec.has_tree.assign(g.num_arcs(), 0);
  for (Id pos = 0; pos < g.num_cells(); ++pos) {
    const auto h = flat_kernel::resolve_arc_models(model, *g.cell_type(pos));
    for (Id arc = g.fanin_begin(pos); arc < g.fanin_end(pos); ++arc) {
      rec.arc_model[0][arc] = h[0];
      rec.arc_model[1][arc] = h[1];
      const Id fan = g.fanin_net(arc);
      if (fan == FlatTimingGraph::kNoId) continue;
      const RcTree& tree = res.annotated[fan];
      const bool wired = tree.num_nodes() > 1;
      rec.has_tree[arc] = wired ? 1 : 0;
      rec.elmore[arc] =
          wired ? tree.elmore(tree.sink_node(g.sink_name(g.fanin_sink(arc))))
                : 0.0;
    }
  }
  return rec;
}

/// "" when `a` and `b` hold the same handles, flags and Elmore bits, else
/// the first differing field with its arc.
std::string records_diff(const FlatArcRecords& a, const FlatArcRecords& b) {
  if (a.elmore.size() != b.elmore.size()) return "size";
  if (a.xw.size() != b.xw.size()) return "xw.size";
  for (std::size_t arc = 0; arc < a.elmore.size(); ++arc) {
    const std::string at = "[" + std::to_string(arc) + "]";
    for (std::size_t e = 0; e < 2; ++e) {
      if (a.arc_model[e].size() != b.arc_model[e].size()) return "arc_model";
      if (a.arc_model[e][arc] != b.arc_model[e][arc]) {
        return "arc_model[" + std::to_string(e) + "]" + at;
      }
    }
    if (a.has_tree.at(arc) != b.has_tree.at(arc)) return "has_tree" + at;
    if (!same_bits(a.elmore[arc], b.elmore[arc])) return "elmore" + at;
  }
  return "";
}

/// Net `n1` feeds both pins of u2, u3's pin 1 is unconnected, `n3` has no
/// parasitic tree (the fixture drops it) and `po` is a PO with no sinks.
GateNetlist build_bind_corners(const CellLibrary& cells) {
  GateNetlist nl("bind_corners");
  const int a = nl.add_primary_input("a");
  const int b = nl.add_primary_input("b");
  const CellType& nand = cells.by_name("NAND2x1");
  const auto out = [&nl](int cell) { return nl.cell(cell).out_net; };
  const int n1 = out(nl.add_cell("u1", nand, {a, b}, "n1"));
  const int n2 = out(nl.add_cell("u2", nand, {n1, n1}, "n2"));
  const int u3 = nl.add_cell("u3", nand, {n2, b}, "n3");
  nl.rewire_fanin(u3, 1, -1);
  const int n4 = out(nl.add_cell("u4", nand, {out(u3), n2}, "n4"));
  nl.mark_primary_output(n4);
  nl.mark_primary_output(
      out(nl.add_cell("u5", cells.by_name("INVx2"), {n1}, "po")));
  return nl;
}

// bind_arc_records binds wire records per net, over each net's fanout
// entries; the per-position loop it replaced is the oracle, at 1 and 4
// lanes, on c17, the C432-like design and the crafted corner cases.
TEST(FlatGraphIdentity, BindArcRecordsPerNetMatchesThePerPositionLoop) {
  const std::vector<std::pair<std::string, BuildFn>> designs = {
      {"c17", &build_c17},
      {"C432-like", &build_c432},
      {"bind-corners", &build_bind_corners}};
  ThreadPool pool(3);
  for (const auto& [name, build] : designs) {
    DesignFixture fx(build);
    if (name == "bind-corners") {
      ParasiticDb kept;
      for (const auto& [net, tree] : fx.spef.all()) {
        if (net != "n3") kept.add(net, tree);
      }
      ASSERT_EQ(kept.size() + 1, fx.spef.size());
      fx.spef = kept;
    }
    const FlatTimingGraph g = FlatTimingGraph::compile(fx.nl);
    const StaEngine::Result res =
        StaEngine(fx.model, fx.tech).run(g, fx.nl, fx.spef);
    const FlatArcRecords want = bind_per_position(g, fx.model, res);
    std::size_t wired = 0;
    for (const std::uint8_t t : want.has_tree) wired += t;
    EXPECT_GT(wired, 0u) << name;
    for (const unsigned lanes : {1u, 4u}) {
      ExecContext exec;
      exec.pool = &pool;
      exec.threads = lanes;
      FlatArcRecords got;
      flat_kernel::bind_arc_records(g, fx.model, res, exec, got);
      EXPECT_EQ(records_diff(got, want), "") << name << " @" << lanes;
    }
    if (name != "bind-corners") continue;
    // The corners are really there: a doubled sink, an unconnected arc, a
    // sunk net with a root-only tree and a PO net with no fanout entry.
    const auto net_id = [&](const char* n) {
      return static_cast<FlatTimingGraph::Id>(fx.nl.find_net(n));
    };
    EXPECT_EQ(g.fanout_end(net_id("n1")) - g.fanout_begin(net_id("n1")), 3u);
    const FlatTimingGraph::Id u3 =
        g.position_of_cell(static_cast<FlatTimingGraph::Id>(2));
    EXPECT_EQ(g.fanin_net(g.fanin_begin(u3) + 1), FlatTimingGraph::kNoId);
    EXPECT_EQ(res.annotated[net_id("n3")].num_nodes(), 1);
    EXPECT_GT(g.fanout_end(net_id("n3")), g.fanout_begin(net_id("n3")));
    EXPECT_EQ(g.fanout_end(net_id("po")), g.fanout_begin(net_id("po")));
    EXPECT_GT(res.annotated[net_id("po")].num_nodes(), 1);
  }
}

// ------------------------------------------------ C432 goldens

/// Compares `rows` (a name column, then numbers) against a golden CSV at
/// 1e-9 relative — the 12 significant digits the file holds. With
/// NSDC_REGEN_GOLDEN set the file is rewritten instead and the test skips.
/// Call it last in a test body.
void check_golden_csv(
    const std::string& rel_path, const std::string& header,
    const std::vector<std::pair<std::string, std::vector<double>>>& rows) {
  const std::string path = repo_path(rel_path);
  if (std::getenv("NSDC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << header << "\n";
    char buf[64];
    for (const auto& [name, vals] : rows) {
      out << name;
      for (double v : vals) {
        std::snprintf(buf, sizeof(buf), ",%.12e", v);
        out << buf;
      }
      out << "\n";
    }
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file: " << path;
  std::map<std::string, std::vector<double>> golden;
  std::string line;
  std::getline(in, line);
  ASSERT_EQ(line, header) << path;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss(line);
    std::string name, field;
    std::getline(ss, name, ',');
    std::vector<double> vals;
    while (std::getline(ss, field, ',')) vals.push_back(std::stod(field));
    golden[name] = vals;
  }
  ASSERT_EQ(golden.size(), rows.size()) << path;
  const double rtol = 1e-9;
  for (const auto& [name, vals] : rows) {
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << name << " missing from " << path;
    ASSERT_EQ(it->second.size(), vals.size()) << name;
    for (std::size_t i = 0; i < vals.size(); ++i) {
      const double g = it->second[i];
      EXPECT_NEAR(vals[i], g, rtol * std::fabs(g) + 1e-18)
          << path << ": " << name << " column " << i + 1;
    }
  }
}

TEST(FlatGraphGolden, NetMcC432MatchesGoldenAt1And4Threads) {
  const DesignFixture fx(&build_c432);
  const NetlistMonteCarlo mc(fx.model, fx.wire_model, fx.tech);
  McConfig cfg;
  cfg.samples = 512;
  cfg.seed = 99;
  cfg.threads = 1;
  const auto ref = mc.run(fx.nl, fx.spef, cfg);
  cfg.threads = 4;
  EXPECT_EQ(testfix::netmc_diff(mc.run(fx.nl, fx.spef, cfg), ref), "")
      << "netmc 1 vs 4 lanes";
  EXPECT_EQ(ref.total_quarantined, 0u);

  std::vector<std::pair<std::string, std::vector<double>>> rows;
  for (std::size_t p = 0; p < ref.po_nets.size(); ++p) {
    std::vector<double> vals = {ref.po_moments[p].mu, ref.po_moments[p].sigma};
    vals.insert(vals.end(), ref.po_quantiles[p].begin(),
                ref.po_quantiles[p].end());
    rows.emplace_back(fx.nl.net(ref.po_nets[p]).name, std::move(vals));
  }
  check_golden_csv("data/c432_golden_netmc.csv",
                   "po_net,mu,sigma,qm3,qm2,qm1,q0,qp1,qp2,qp3", rows);
}

TEST(FlatGraphGolden, AnalyticSstaC432MatchesGoldenAt1And4Threads) {
  const DesignFixture fx(&build_c432);
  AnalyticSstaOptions opt1, opt4;
  opt1.sta = exec_config(1);
  opt4.sta = exec_config(4);
  const auto ref =
      AnalyticSsta(fx.model, fx.wire_model, fx.tech, opt1).run(fx.nl, fx.spef);
  const auto got =
      AnalyticSsta(fx.model, fx.wire_model, fx.tech, opt4).run(fx.nl, fx.spef);
  EXPECT_EQ(testfix::ssta_diff(got, ref), "") << "ssta 1 vs 4 lanes";

  std::vector<std::pair<std::string, std::vector<double>>> rows;
  for (std::size_t p = 0; p < ref.po_nets.size(); ++p) {
    const Moments& m = ref.po_moments[p];
    std::vector<double> vals = {m.mu, m.sigma, m.gamma, m.kappa};
    vals.insert(vals.end(), ref.po_quantiles[p].begin(),
                ref.po_quantiles[p].end());
    rows.emplace_back(fx.nl.net(ref.po_nets[p]).name, std::move(vals));
  }
  check_golden_csv(
      "data/ssta_c432_golden.csv",
      "po_net,mu,sigma,gamma,kappa,qm3,qm2,qm1,q0,qp1,qp2,qp3", rows);
}

TEST(FlatGraphGolden, IntervalsC432MatchGoldenAt1And4Threads) {
  const DesignFixture fx(&build_c432);
  const FlatTimingGraph graph = FlatTimingGraph::compile(fx.nl);
  const StaEngine::Result annotated =
      StaEngine(fx.model, fx.tech).run(graph, fx.nl, fx.spef);
  AnalysisInput input;
  input.netlist = &fx.nl;
  input.parasitics = &fx.spef;
  input.charlib = &fx.charlib;
  input.cell_model = &fx.model;
  input.wire_model = &fx.wire_model;
  input.tech = &fx.tech;
  AnalysisOptions opt1, opt4;
  opt1.exec.threads = 1;
  opt4.exec.threads = 4;
  const IntervalResult ref =
      propagate_intervals(input, opt1, graph, annotated);
  const IntervalResult got =
      propagate_intervals(input, opt4, graph, annotated);
  ASSERT_EQ(got.nets.size(), ref.nets.size());
  for (std::size_t n = 0; n < ref.nets.size(); ++n) {
    const NetBounds& a = got.nets[n];
    const NetBounds& b = ref.nets[n];
    EXPECT_EQ(a.reachable, b.reachable) << n;
    EXPECT_EQ(std::memcmp(&a.arrival, &b.arrival, sizeof a.arrival), 0) << n;
    EXPECT_EQ(std::memcmp(&a.slew, &b.slew, sizeof a.slew), 0) << n;
  }
  ASSERT_EQ(got.po_nets, ref.po_nets);

  std::vector<std::pair<std::string, std::vector<double>>> rows;
  for (std::size_t p = 0; p < ref.po_nets.size(); ++p) {
    rows.emplace_back(fx.nl.net(ref.po_nets[p]).name,
                      std::vector<double>{ref.po_bounds[p].lo,
                                          ref.po_bounds[p].hi});
  }
  check_golden_csv("data/c432_golden_intervals.csv", "po_net,lo,hi", rows);
}

// ------------------------------------------------ scale generators

/// Structural rules only: the scale smoke cares about DAG well-formedness,
/// not charlib-domain warnings (which need a charlib anyway).
int structural_diag_count(const GateNetlist& nl) {
  static const std::set<std::string> structural = {
      "net.unconnected-pin", "net.comb-loop",       "net.multi-driver",
      "net.undriven",        "net.dangling-output", "net.driver-mismatch"};
  LintInput in;
  in.netlist = &nl;
  const LintReport report = run_lint(in);
  int n = 0;
  for (const auto& d : report.diagnostics()) {
    if (structural.count(d.rule)) ++n;
  }
  return n;
}

TEST(FlatGraphScale, NewGeneratorsAreStructurallyCleanDags) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist tm = generate_tiled_multiplier_array(5, 3, cells);
  const GateNetlist xb = generate_wide_crossbar(12, 9, cells);
  const GateNetlist dc = generate_divider_chain(4, 3, cells);
  for (const GateNetlist* nl : {&tm, &xb, &dc}) {
    EXPECT_EQ(structural_diag_count(*nl), 0) << nl->name();
    EXPECT_NO_THROW(nl->levelization()) << nl->name();  // acyclic
    const DesignStats st = design_stats(*nl);
    EXPECT_EQ(st.cells, nl->num_cells()) << nl->name();
    EXPECT_EQ(st.nets, nl->num_nets()) << nl->name();
    EXPECT_GT(st.avg_fanout, 0.5) << nl->name();
    EXPECT_GT(st.max_level, 0) << nl->name();
    const std::string line = design_stats_line(*nl);
    EXPECT_NE(line.find("design_stats name=" + nl->name()), std::string::npos);
    EXPECT_NE(line.find("cells=" + std::to_string(nl->num_cells())),
              std::string::npos);
    EXPECT_NE(line.find("avg_fanout="), std::string::npos);
  }
  // Tiling scales cells linearly; the chain scales depth linearly.
  EXPECT_GT(generate_tiled_multiplier_array(5, 6, cells).num_cells(),
            2 * tm.num_cells() - 10);
  EXPECT_GT(design_stats(generate_divider_chain(4, 6, cells)).max_level,
            static_cast<int>(1.8 * design_stats(dc).max_level));
}

TEST(FlatGraphScale, HundredKCellDesignCompilesUnderWallBound) {
  const CellLibrary cells = CellLibrary::standard();
  // ~103k cells: 144x144 AND-OR crossbar.
  const GateNetlist nl = generate_wide_crossbar(144, 144, cells);
  ASSERT_GE(nl.num_cells(), 100000u);
  nl.levelization();  // levelize outside the timed region, like engines do
  const auto t0 = std::chrono::steady_clock::now();
  const FlatTimingGraph g = FlatTimingGraph::compile(nl);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(g.num_cells(), nl.num_cells());
  // Native compiles run in well under a second; the bound is generous for
  // sanitizer builds while still catching superlinear blowups.
  EXPECT_LT(seconds, 30.0);
}

}  // namespace
}  // namespace nsdc
