// IncrementalSta correctness: after any sequence of netlist edits, the
// incrementally-updated result must be byte-identical to a fresh full
// StaEngine::run() on the edited netlist, at any thread count — while
// doing work proportional to the edit's fanout cone, not the design.
#include "sta/incremental.hpp"

#include <gtest/gtest.h>

#include "netlist/designgen.hpp"
#include "same_bits.hpp"
#include "sta/annotate.hpp"
#include "synthetic_charlib.hpp"
#include "util/rng.hpp"

namespace nsdc {
namespace {

/// StaConfig that actually exercises the pool at `threads` lanes (the
/// default min_parallel_cells would keep small cones serial, and the
/// autotuned minimum block would run narrow levels inline).
StaConfig exec_config(unsigned threads) {
  StaConfig cfg;
  cfg.exec.threads = threads;
  cfg.exec.grain = 1;
  cfg.min_parallel_cells = threads > 1 ? 1 : 1u << 30;
  return cfg;
}

class IncrementalStaTest : public ::testing::Test {
 protected:
  IncrementalStaTest()
      : charlib(testfix::make_full_charlib()),
        lib(CellLibrary::standard()),
        model(NSigmaCellModel::fit(charlib)),
        tech(TechParams::nominal28()) {}

  CharLib charlib;
  CellLibrary lib;
  NSigmaCellModel model;
  TechParams tech;
};

/// Random retype edit: a random cell to a random strength of its function.
void random_retype(GateNetlist& nl, const CellLibrary& lib, Rng& rng) {
  const int c = static_cast<int>(
      rng.uniform_int(0, static_cast<std::int64_t>(nl.num_cells()) - 1));
  const int strengths[] = {1, 2, 4, 8};
  const int s = strengths[rng.uniform_int(0, 3)];
  nl.set_cell_type(c, lib.by_func(nl.cell(c).type->func(), s));
}

/// Random rewire edit that provably keeps the graph acyclic: pick a cell
/// and reconnect a random pin to a net whose driver sits at a strictly
/// lower level (or to a primary input).
void random_rewire(GateNetlist& nl, const CellLibrary& lib, Rng& rng) {
  (void)lib;
  const auto& lev = nl.levelization();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const int c = static_cast<int>(
        rng.uniform_int(0, static_cast<std::int64_t>(nl.num_cells()) - 1));
    const int my_level = lev.cell_level[static_cast<std::size_t>(c)];
    const int pin = static_cast<int>(rng.uniform_int(
        0, static_cast<std::int64_t>(nl.cell(c).fanin_nets.size()) - 1));
    const int target = static_cast<int>(
        rng.uniform_int(0, static_cast<std::int64_t>(nl.num_nets()) - 1));
    const int d = nl.net(target).driver_cell;
    if (d >= 0 && lev.cell_level[static_cast<std::size_t>(d)] >= my_level) {
      continue;  // could create a cycle or lengthen into itself
    }
    nl.rewire_fanin(c, pin, target);
    return;
  }
}

/// Cross-function retype with the same arity: INV<->BUF (flips the
/// inverting flag), NAND2<->NOR2, AOI21<->OAI21, at the cell's strength.
void random_cross_retype(GateNetlist& nl, const CellLibrary& lib, Rng& rng) {
  const int c = static_cast<int>(
      rng.uniform_int(0, static_cast<std::int64_t>(nl.num_cells()) - 1));
  const CellType& cur = *nl.cell(c).type;
  CellFunc other = CellFunc::kInv;
  switch (cur.func()) {
    case CellFunc::kInv: other = CellFunc::kBuf; break;
    case CellFunc::kBuf: other = CellFunc::kInv; break;
    case CellFunc::kNand2: other = CellFunc::kNor2; break;
    case CellFunc::kNor2: other = CellFunc::kNand2; break;
    case CellFunc::kAoi21: other = CellFunc::kOai21; break;
    case CellFunc::kOai21: other = CellFunc::kAoi21; break;
  }
  nl.set_cell_type(c, lib.by_func(other, cur.strength()));
}

/// A pin the harness disconnected, to be reconnected to `net`.
struct OpenPin {
  int cell = -1;
  int pin = -1;
  int net = -1;
};

/// Disconnects a random pin (rewire_fanin to -1), or, when a previous call
/// left one open, reconnects that pin to its original net.
void toggle_open_pin(GateNetlist& nl, Rng& rng, OpenPin& open) {
  if (open.cell >= 0) {
    nl.rewire_fanin(open.cell, open.pin, open.net);
    open = OpenPin{};
    return;
  }
  const int c = static_cast<int>(
      rng.uniform_int(0, static_cast<std::int64_t>(nl.num_cells()) - 1));
  const int pin = static_cast<int>(rng.uniform_int(
      0, static_cast<std::int64_t>(nl.cell(c).fanin_nets.size()) - 1));
  open = {c, pin, nl.cell(c).fanin_nets[static_cast<std::size_t>(pin)]};
  nl.rewire_fanin(c, pin, -1);
}

/// Relative weights of the harness's edit kinds.
struct EditMix {
  double retype = 1.0;        ///< random strength, same function
  double rewire = 0.0;        ///< random acyclic fanin rewire
  double cross_retype = 0.0;  ///< same arity, other function
  double open_pin = 0.0;      ///< pin disconnect, then reconnect
};

/// Drives `edits` random edits through two incremental timers (1 and 4
/// lanes) and checks each against a fresh full run at the same lane count
/// after every edit.
void run_equivalence(const GateNetlist& base, const CellLibrary& lib,
                     const NSigmaCellModel& model, const TechParams& tech,
                     const ParasiticDb& parasitics, int edits,
                     const EditMix& mix, std::uint64_t seed) {
  GateNetlist nl = base;
  IncrementalSta inc1(model, tech, exec_config(1));
  IncrementalSta inc4(model, tech, exec_config(4));
  inc1.bind(nl, parasitics);
  inc4.bind(nl, parasitics);
  const StaEngine full1(model, tech, exec_config(1));
  const StaEngine full4(model, tech, exec_config(4));

  Rng rng(seed);
  OpenPin open;
  std::size_t recomputed = 0;
  const double total =
      mix.retype + mix.rewire + mix.cross_retype + mix.open_pin;
  for (int e = 0; e < edits; ++e) {
    double u = rng.uniform() * total;
    if ((u -= mix.rewire) < 0.0) {
      random_rewire(nl, lib, rng);
    } else if ((u -= mix.cross_retype) < 0.0) {
      random_cross_retype(nl, lib, rng);
    } else if ((u -= mix.open_pin) < 0.0) {
      toggle_open_pin(nl, rng, open);
    } else {
      random_retype(nl, lib, rng);
    }
    ASSERT_TRUE(nl.invariants_ok()) << "edit " << e;
    const auto& got1 = inc1.update();
    const auto& got4 = inc4.update();
    EXPECT_FALSE(inc1.last_stats().full_rerun) << "edit " << e;
    recomputed += inc1.last_stats().cells_recomputed;
    ASSERT_EQ(testfix::sta_diff(got1, full1.run(nl, parasitics)), "")
        << "edit " << e << " (1 lane)";
    ASSERT_EQ(testfix::sta_diff(got4, full4.run(nl, parasitics)), "")
        << "edit " << e << " (4 lanes)";
  }
  // The point of the exercise: total incremental work must be far below
  // one full propagation per edit.
  EXPECT_LT(recomputed, static_cast<std::size_t>(edits) * nl.num_cells() / 4)
      << "incremental updates recomputed almost the whole design per edit";
}

TEST_F(IncrementalStaTest, RandomRetypesMatchFullRunC432) {
  GateNetlist nl = generate_iscas_like("C432", lib);
  const ParasiticDb parasitics = generate_parasitics(nl, tech);
  run_equivalence(nl, lib, model, tech, parasitics, /*edits=*/100,
                  EditMix{}, /*seed=*/11);
}

// Edits that change what the kept graph holds for a cell beyond its
// strength, on extracted wires: a cross-function retype flips the
// inverting flag (INV<->BUF) or swaps the arc tables, and a pin
// disconnected and later reconnected moves its sink out of and back into
// an RC tree (appended to the net's sink list, so the pin-cap order
// changes too).
TEST_F(IncrementalStaTest, CrossFunctionRetypesAndPinReconnectsMatchC432) {
  GateNetlist nl = generate_iscas_like("C432", lib);
  const ParasiticDb parasitics = generate_parasitics(nl, tech);
  EditMix mix;
  mix.cross_retype = 1.0;
  mix.open_pin = 1.0;
  run_equivalence(nl, lib, model, tech, parasitics, /*edits=*/120, mix,
                  /*seed=*/29);
}

TEST_F(IncrementalStaTest, RandomMixedEditsMatchFullRunDesigngen) {
  RandomNetlistSpec spec;
  spec.name = "incmix";
  spec.target_cells = 420;
  spec.num_primary_inputs = 24;
  spec.target_depth = 18;
  spec.seed = 5;
  GateNetlist nl = generate_random_mapped(spec, lib);
  // Wireless (pin-cap loads): rewired sinks have no pre-extracted RC pin
  // to land on, which matches how full STA treats un-annotated nets.
  const ParasiticDb empty;
  EditMix mix;
  mix.retype = 0.6;
  mix.rewire = 0.4;
  run_equivalence(nl, lib, model, tech, empty, /*edits=*/120, mix,
                  /*seed=*/23);
}

TEST_F(IncrementalStaTest, ConvergenceCutStopsUnchangedCone) {
  // Re-applying a cell's existing type is journaled like any retype, but
  // every recomputed value converges immediately: the wave must die at the
  // seeds instead of sweeping the fanout cone.
  GateNetlist nl("chain");
  int net = nl.add_primary_input("a");
  std::vector<int> cells;
  for (int i = 0; i < 50; ++i) {
    cells.push_back(nl.add_cell("u" + std::to_string(i),
                                lib.by_name("INVx2"), {net},
                                "w" + std::to_string(i)));
    net = nl.cell(cells.back()).out_net;
  }
  nl.mark_primary_output(net);
  const ParasiticDb empty;
  IncrementalSta inc(model, tech);
  inc.bind(nl, empty);

  nl.set_cell_type(cells[25], lib.by_name("INVx2"));  // no-change retype
  inc.update();
  EXPECT_FALSE(inc.last_stats().full_rerun);
  // Seeds: the retyped cell and the driver of its fanin net.
  EXPECT_LE(inc.last_stats().cells_recomputed, 3u);
  EXPECT_GE(inc.last_stats().cells_converged, 1u);

  // A real retype near the tail touches only the short remaining cone.
  nl.set_cell_type(cells[47], lib.by_name("INVx8"));
  inc.update();
  EXPECT_FALSE(inc.last_stats().full_rerun);
  EXPECT_LE(inc.last_stats().cells_recomputed, 6u);
  const StaEngine engine(model, tech);
  EXPECT_EQ(testfix::sta_diff(inc.result(), engine.run(nl, empty)), "")
      << "tail edit";
}

TEST_F(IncrementalStaTest, OutNetMoveMatchesFullRun) {
  GateNetlist nl("move");
  const int a = nl.add_primary_input("a");
  const int u0 = nl.add_cell("u0", lib.by_name("INVx1"), {a}, "n0");
  const int u1 = nl.add_cell("u1", lib.by_name("INVx2"),
                             {nl.cell(u0).out_net}, "y");
  const int y = nl.cell(u1).out_net;
  nl.mark_primary_output(y);
  const ParasiticDb empty;
  IncrementalSta inc(model, tech);
  inc.bind(nl, empty);
  const StaEngine engine(model, tech);

  const int spare = nl.add_net("spare");  // structural growth: full rerun
  nl.mark_primary_output(spare);
  inc.update();
  EXPECT_TRUE(inc.last_stats().full_rerun);

  // Moving u1's output onto the spare net leaves y undriven (and its PO
  // unreachable) — full and incremental must agree on all of it.
  nl.set_cell_out_net(u1, spare);
  EXPECT_TRUE(nl.invariants_ok());
  inc.update();
  EXPECT_FALSE(inc.last_stats().full_rerun);
  EXPECT_EQ(testfix::sta_diff(inc.result(), engine.run(nl, empty)), "")
      << "move";
  EXPECT_FALSE(inc.result().nets[static_cast<std::size_t>(y)].reachable);

  nl.set_cell_out_net(u1, y);  // and back
  inc.update();
  EXPECT_FALSE(inc.last_stats().full_rerun);
  EXPECT_EQ(testfix::sta_diff(inc.result(), engine.run(nl, empty)), "")
      << "move back";
}

TEST_F(IncrementalStaTest, ParasiticInvalidationReannotates) {
  GateNetlist nl = generate_iscas_like("C432", lib);
  ParasiticDb parasitics = generate_parasitics(nl, tech);
  IncrementalSta inc(model, tech);
  inc.bind(nl, parasitics);

  // Regenerate one net's tree with a different wire seed and re-annotate.
  const int victim = nl.cell(static_cast<int>(nl.num_cells()) / 2).out_net;
  AnnotateConfig cfg;
  cfg.seed = 1234567;
  const ParasiticDb redo = generate_parasitics(nl, tech, cfg);
  const std::string& name = nl.net(victim).name;
  ASSERT_TRUE(redo.contains(name));
  parasitics.add(name, redo.net(name));

  EXPECT_TRUE(inc.in_sync());  // netlist untouched...
  inc.invalidate_parasitics(victim);
  EXPECT_FALSE(inc.in_sync());  // ...but annotation is pending
  inc.update();
  EXPECT_FALSE(inc.last_stats().full_rerun);
  EXPECT_EQ(inc.last_stats().nets_reannotated, 1u);
  const StaEngine engine(model, tech);
  EXPECT_EQ(testfix::sta_diff(inc.result(), engine.run(nl, parasitics)), "")
      << "reannotate";
}

TEST_F(IncrementalStaTest, GenerationTracksStaleness) {
  GateNetlist nl("g");
  const int a = nl.add_primary_input("a");
  const int u = nl.add_cell("u", lib.by_name("INVx1"), {a}, "y");
  nl.mark_primary_output(nl.cell(u).out_net);
  const ParasiticDb empty;
  IncrementalSta inc(model, tech);
  inc.bind(nl, empty);
  EXPECT_TRUE(inc.in_sync());
  EXPECT_EQ(inc.synced_generation(), nl.generation());

  nl.set_cell_type(u, lib.by_name("INVx4"));
  EXPECT_FALSE(inc.in_sync());
  inc.update();
  EXPECT_TRUE(inc.in_sync());
  EXPECT_EQ(inc.synced_generation(), nl.generation());

  // A trimmed journal past the sync point forces (and survives as) a full
  // rebuild instead of silently replaying nothing.
  nl.set_cell_type(u, lib.by_name("INVx2"));
  nl.trim_edit_journal();
  inc.update();
  EXPECT_TRUE(inc.last_stats().full_rerun);
  EXPECT_TRUE(inc.in_sync());
}

TEST_F(IncrementalStaTest, UpdateBeforeBindThrows) {
  IncrementalSta inc(model, tech);
  EXPECT_THROW(inc.update(), std::logic_error);
  EXPECT_THROW(inc.invalidate_parasitics(0), std::logic_error);
}

}  // namespace
}  // namespace nsdc
