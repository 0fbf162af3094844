// Static-analysis framework tests: interval-algebra soundness properties
// (every sampled engine value lies inside its static interval), SCC /
// cone structural facts, the charlib domain-coverage audit, cross-engine
// verification, thread-count byte-identity of the reports, the
// analyze.interval fault site, and the shared tool exit-code contract.
// Also holds the lint golden-JSON test (schema_version 2, diagnostics
// stable-sorted by rule/object/line). Regenerate the golden after an
// intentional schema change with:
//   NSDC_REGEN_GOLDEN=1 ./tests/test_analysis
#include "analysis/analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/interval.hpp"
#include "lint/lint.hpp"
#include "liberty/synthlib.hpp"
#include "netlist/benchio.hpp"
#include "netlist/designgen.hpp"
#include "sta/annotate.hpp"
#include "stats/quantiles.hpp"
#include "synthetic_charlib.hpp"
#include "util/diag.hpp"
#include "util/errors.hpp"
#include "util/faultinject.hpp"

namespace nsdc {
namespace {

using analysis::Interval;
using analysis::MomentIntervals;

std::string repo_path(const std::string& rel) {
  return std::string(NSDC_SOURCE_DIR) + "/" + rel;
}

int count_rule(const AnalysisReport& report, const std::string& rule) {
  int n = 0;
  for (const auto& d : report.diagnostics()) {
    if (d.rule == rule) ++n;
  }
  return n;
}

/// Containment tolerance matching the kRangeGuard widening contract.
double tol_for(double v) { return 1e-15 + 1e-8 * std::abs(v); }

/// a -> INVx1(u0) -> n0 -> INVx1(u1) -> y.
GateNetlist inv_chain(const CellLibrary& lib, bool mark_po = true) {
  GateNetlist nl("chain");
  const int a = nl.add_primary_input("a");
  const int c0 = nl.add_cell("u0", lib.by_name("INVx1"), {a}, "n0");
  const int c1 =
      nl.add_cell("u1", lib.by_name("INVx1"), {nl.cell(c0).out_net}, "y");
  if (mark_po) nl.mark_primary_output(nl.cell(c1).out_net);
  return nl;
}

/// Owns a complete AnalysisInput: design + parasitics + synthetic charlib
/// (the one WITH wire observations) + both fitted models. The netlist is
/// built by a callback against the FIXTURE's own cell library — CellInst
/// stores CellType pointers into the specific CellLibrary object it was
/// built from, so the library must outlive the netlist.
struct FullFixture {
  CellLibrary cells = CellLibrary::standard();
  TechParams tech = TechParams::nominal28();
  GateNetlist nl;
  ParasiticDb spef;
  CharLib charlib;
  NSigmaCellModel cell_model;
  NSigmaWireModel wire_model;

  template <class BuildFn>
  explicit FullFixture(BuildFn&& build)
      : nl(build(cells)),
        spef(generate_parasitics(nl, tech)),
        charlib(make_synthetic_charlib()),
        cell_model(NSigmaCellModel::fit(charlib)),
        wire_model(NSigmaWireModel::fit(charlib, cells)) {}

  AnalysisInput input() const {
    AnalysisInput in;
    in.netlist = &nl;
    in.parasitics = &spef;
    in.charlib = &charlib;
    in.cell_model = &cell_model;
    in.wire_model = &wire_model;
    in.tech = &charlib.tech();
    return in;
  }
};

GateNetlist load_c17(const CellLibrary& cells) {
  return load_bench(repo_path("data/c17.bench"), cells);
}

// -------------------------------------------------- interval algebra basics

TEST(IntervalAlgebra, AddMaxHullMulFloor) {
  const Interval a{1.0, 3.0}, b{-2.0, 2.0};
  const Interval s = analysis::iv_add(a, b);
  EXPECT_DOUBLE_EQ(s.lo, -1.0);
  EXPECT_DOUBLE_EQ(s.hi, 5.0);
  const Interval m = analysis::iv_max(a, b);
  EXPECT_DOUBLE_EQ(m.lo, 1.0);
  EXPECT_DOUBLE_EQ(m.hi, 3.0);
  const Interval h = analysis::iv_hull(a, b);
  EXPECT_DOUBLE_EQ(h.lo, -2.0);
  EXPECT_DOUBLE_EQ(h.hi, 3.0);
  // Four-corner product with a sign change: extrema at mixed corners.
  const Interval p = analysis::iv_mul(a, b);
  EXPECT_DOUBLE_EQ(p.lo, -6.0);
  EXPECT_DOUBLE_EQ(p.hi, 6.0);
  const Interval f = analysis::iv_floor_at(b, 0.0);
  EXPECT_DOUBLE_EQ(f.lo, 0.0);
  EXPECT_DOUBLE_EQ(f.hi, 2.0);
  EXPECT_TRUE(Interval::point(4.0).contains(4.0));
  EXPECT_FALSE(Interval::point(4.0).contains(4.1));
}

TEST(IntervalAlgebra, SampledOperandsStayInsideComposedIntervals) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(-5.0, 5.0);
  for (int trial = 0; trial < 200; ++trial) {
    double a0 = u(rng), a1 = u(rng), b0 = u(rng), b1 = u(rng);
    const Interval a{std::min(a0, a1), std::max(a0, a1)};
    const Interval b{std::min(b0, b1), std::max(b0, b1)};
    std::uniform_real_distribution<double> ua(a.lo, a.hi), ub(b.lo, b.hi);
    for (int k = 0; k < 16; ++k) {
      const double x = ua(rng), y = ub(rng);
      EXPECT_TRUE(analysis::iv_add(a, b).contains(x + y, 1e-12));
      EXPECT_TRUE(analysis::iv_max(a, b).contains(std::max(x, y), 1e-12));
      EXPECT_TRUE(analysis::iv_mul(a, b).contains(x * y, 1e-12));
      EXPECT_TRUE(analysis::iv_hull(a, b).contains(x, 1e-12));
      EXPECT_TRUE(
          analysis::iv_floor_at(a, 0.5).contains(std::max(0.5, x), 1e-12));
    }
  }
}

TEST(IntervalAlgebra, CubicRangeIsExactOnKnownCubic) {
  // z^3 - 3z on [-2, 2]: stationary points z = +-1 give -+2, endpoints
  // give +-2, so the exact range is [-2, 2].
  const Interval r = analysis::cubic_range(1.0, 0.0, -3.0, 0.0, -2.0, 2.0);
  EXPECT_NEAR(r.lo, -2.0, 1e-8);
  EXPECT_NEAR(r.hi, 2.0, 1e-8);
  // Interior maximum only: stationary point must be found, not just ends.
  const Interval q = analysis::cubic_range(0.0, -1.0, 0.0, 1.0, -0.5, 2.0);
  EXPECT_NEAR(q.hi, 1.0, 1e-8);   // at z = 0
  EXPECT_NEAR(q.lo, -3.0, 1e-8);  // at z = 2
}

TEST(IntervalAlgebra, CubicRangeContainsDenseSamples) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> coef(-2.0, 2.0), zs(-6.0, 6.0);
  for (int trial = 0; trial < 300; ++trial) {
    const double a3 = coef(rng), a2 = coef(rng), a1 = coef(rng),
                 a0 = coef(rng);
    double z0 = zs(rng), z1 = zs(rng);
    if (z0 > z1) std::swap(z0, z1);
    const Interval r = analysis::cubic_range(a3, a2, a1, a0, z0, z1);
    double lo = 1e300, hi = -1e300;
    for (int k = 0; k <= 400; ++k) {
      const double z = z0 + (z1 - z0) * k / 400.0;
      const double v = ((a3 * z + a2) * z + a1) * z + a0;
      EXPECT_TRUE(r.contains(v, tol_for(v)))
          << "cubic " << a3 << "," << a2 << "," << a1 << "," << a0
          << " at z=" << z;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    // Tightness: the certified range never exceeds the true range by more
    // than the sampling resolution (the helper is exact up to the guard).
    const double slack = 1e-2 * (1.0 + hi - lo);
    EXPECT_GE(r.lo, lo - slack);
    EXPECT_LE(r.hi, hi + slack);
  }
}

TEST(IntervalAlgebra, CfShapeRangeGaussianIsIdentity) {
  const Interval zero = Interval::point(0.0);
  const Interval r = analysis::cf_shape_range(zero, zero, zero, 4.0);
  EXPECT_NEAR(r.lo, -4.0, 1e-7);
  EXPECT_NEAR(r.hi, 4.0, 1e-7);
}

TEST(IntervalAlgebra, CfShapeRangeContainsShapedScores) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> ug(-2.0, 5.0), uk(-1.5, 15.0),
      uz(-6.0, 6.0), uw(0.0, 0.4);
  for (int trial = 0; trial < 300; ++trial) {
    // A coefficient box built the way propagate.cpp builds it: from a
    // gamma/kappa interval, g6 = gamma/6, k24 = kappa/24, g36 = gamma^2/36.
    double glo = ug(rng), ghi = glo + uw(rng) * 3.0;
    double klo = uk(rng), khi = klo + uw(rng) * 5.0;
    const Interval gamma{glo, ghi}, kappa{klo, khi};
    const Interval g6{gamma.lo / 6.0, gamma.hi / 6.0};
    const Interval k24{kappa.lo / 24.0, kappa.hi / 24.0};
    const Interval g36 =
        analysis::iv_mul({gamma.lo / 6.0, gamma.hi / 6.0},
                         {gamma.lo / 6.0, gamma.hi / 6.0});
    const Interval r = analysis::cf_shape_range(g6, k24, g36, 6.0);
    std::uniform_real_distribution<double> pick_g(gamma.lo, gamma.hi),
        pick_k(kappa.lo, kappa.hi);
    for (int k = 0; k < 24; ++k) {
      const double g = pick_g(rng);
      CornishFisher cf;  // exactly the netmc construction (no clamps)
      cf.g6 = g / 6.0;
      cf.k24 = pick_k(rng) / 24.0;
      cf.g36 = g * g / 36.0;
      const double v = cf.shape(uz(rng));
      EXPECT_TRUE(r.contains(v, tol_for(v)));
    }
  }
}

// ------------------------------------------- model-level soundness (arcs)

TEST(IntervalSoundness, GridRangeContainsLookups) {
  const NSigmaCellModel model = NSigmaCellModel::fit(testfix::make_charlib());
  const Grid2D& grid = model.arc("INVx1", 0, true).mean_delay;
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> us(1e-12, 700e-12),
      uc(0.1e-15, 20e-15);
  for (int trial = 0; trial < 200; ++trial) {
    double s0 = us(rng), s1 = us(rng);
    if (s0 > s1) std::swap(s0, s1);
    const double load = uc(rng);
    const Interval r = analysis::grid_range_x(grid, {s0, s1}, load);
    for (int k = 0; k <= 40; ++k) {
      const double s = s0 + (s1 - s0) * k / 40.0;
      const double v = grid.lookup(s, load);
      EXPECT_TRUE(r.contains(v, tol_for(v)))
          << "lookup(" << s << ", " << load << ")";
    }
  }
}

TEST(IntervalSoundness, SurfaceMomentRangeContainsMomentsAt) {
  const NSigmaCellModel model = NSigmaCellModel::fit(testfix::make_charlib());
  const CalibrationSurface& calib = model.arc("INVx1", 0, false).calib;
  std::mt19937_64 rng(37);
  std::uniform_real_distribution<double> us(1e-12, 700e-12),
      uc(0.1e-15, 20e-15);
  for (int trial = 0; trial < 200; ++trial) {
    double s0 = us(rng), s1 = us(rng);
    if (s0 > s1) std::swap(s0, s1);
    const double load = uc(rng);
    const MomentIntervals mi =
        analysis::surface_moment_range(calib, {s0, s1}, load);
    for (int k = 0; k <= 32; ++k) {
      const double s = s0 + (s1 - s0) * k / 32.0;
      const Moments m = calib.moments_at(s, load);
      EXPECT_TRUE(mi.mu.contains(m.mu, tol_for(m.mu)));
      EXPECT_TRUE(mi.sigma.contains(m.sigma, tol_for(m.sigma)));
      EXPECT_TRUE(mi.gamma.contains(m.gamma, tol_for(m.gamma)));
      EXPECT_TRUE(mi.kappa.contains(m.kappa, tol_for(m.kappa)));
    }
  }
}

TEST(IntervalSoundness, CellStatRangeContainsNetmcSampledDelay) {
  // The end-to-end per-arc property: draw a slew anywhere in the slew
  // interval and a standard score |z| <= z_max, evaluate the EXACT delay
  // the Monte-Carlo sampler computes (netmc.cpp hot loop), and check it
  // lies in the static range built from the same slew interval.
  const NSigmaCellModel model = NSigmaCellModel::fit(testfix::make_charlib());
  const CalibrationSurface& calib = model.arc("INVx1", 0, true).calib;
  const double z_max = 6.0;
  std::mt19937_64 rng(41);
  std::uniform_real_distribution<double> us(1e-12, 700e-12),
      uc(0.1e-15, 20e-15), uz(-z_max, z_max);
  for (int trial = 0; trial < 200; ++trial) {
    double s0 = us(rng), s1 = us(rng);
    if (s0 > s1) std::swap(s0, s1);
    const double load = uc(rng);
    const MomentIntervals mi =
        analysis::surface_moment_range(calib, {s0, s1}, load);
    const Interval shaped = analysis::cell_stat_range(mi, z_max, true);
    const Interval gaussian = analysis::cell_stat_range(mi, z_max, false);
    std::uniform_real_distribution<double> pick_s(s0, s1);
    for (int k = 0; k < 32; ++k) {
      const Moments m = calib.moments_at(pick_s(rng), load);
      const double z = uz(rng);
      CornishFisher cf;
      cf.g6 = m.gamma / 6.0;
      cf.k24 = m.kappa / 24.0;
      cf.g36 = m.gamma * m.gamma / 36.0;
      const double shaped_d = std::max(0.0, m.mu + m.sigma * cf.shape(z));
      EXPECT_TRUE(shaped.contains(shaped_d, tol_for(shaped_d)));
      const double gauss_d = std::max(0.0, m.mu + m.sigma * z);
      EXPECT_TRUE(gaussian.contains(gauss_d, tol_for(gauss_d)));
    }
  }
}

TEST(IntervalSoundness, CellStatRangeGaussianPointIsExact) {
  MomentIntervals mi;
  mi.mu = Interval::point(100e-12);
  mi.sigma = Interval::point(10e-12);
  mi.gamma = Interval::point(0.0);
  mi.kappa = Interval::point(0.0);
  const Interval r = analysis::cell_stat_range(mi, 3.0, true);
  EXPECT_NEAR(r.lo, 70e-12, 1e-18);
  EXPECT_NEAR(r.hi, 130e-12, 1e-18);
}

TEST(IntervalSoundness, WireRangeContainsSampledWireDelay) {
  std::mt19937_64 rng(43);
  std::uniform_real_distribution<double> ue(1e-13, 1e-10), ux(0.0, 0.3),
      uz(-6.0, 6.0);
  for (int trial = 0; trial < 400; ++trial) {
    const double elmore = ue(rng), xw = ux(rng);
    const Interval r = analysis::wire_range(elmore, xw, 6.0);
    const double z = uz(rng);
    // Exactly the netmc wire formula: Eq. 7 with the 5%-Elmore floor.
    const double v = std::max(0.05 * elmore, elmore * (1.0 + xw * z));
    EXPECT_TRUE(r.contains(v, tol_for(v)));
  }
}

// ------------------------------------------------------- structural facts

TEST(Structure, CleanChainHasNoFindings) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells);
  const StructureFacts f = compute_structure(nl);
  EXPECT_TRUE(f.pins_ok);
  EXPECT_TRUE(f.acyclic);
  EXPECT_TRUE(f.levelization_ok);
  EXPECT_TRUE(f.cycles.empty());
  EXPECT_TRUE(f.undriven_nets.empty());
  EXPECT_TRUE(f.undriven_cone_cells.empty());
  EXPECT_TRUE(f.dangling_cells.empty());
  EXPECT_TRUE(f.unreachable_pos.empty());
}

TEST(Structure, CombinationalCycleIsAnSccError) {
  const CellLibrary cells = CellLibrary::standard();
  GateNetlist nl = inv_chain(cells);
  nl.rewire_fanin(0, 0, nl.cell(1).out_net);  // u0 <- y: u0/u1 cycle
  const StructureFacts f = compute_structure(nl);
  EXPECT_FALSE(f.acyclic);
  ASSERT_EQ(f.cycles.size(), 1u);
  EXPECT_EQ(f.cycles[0], (std::vector<int>{0, 1}));

  AnalysisInput in;
  in.netlist = &nl;
  const AnalysisReport report = run_analysis(in);
  EXPECT_EQ(count_rule(report, "analysis.scc-cycle"), 1);
  EXPECT_EQ(report.exit_code(), 2);
  EXPECT_FALSE(report.intervals().ran);  // cyclic graph: no propagation
}

TEST(Structure, SelfLoopRebindMakesPoUnreachableAndCellsDangle) {
  const CellLibrary cells = CellLibrary::standard();
  GateNetlist nl = inv_chain(cells);
  // u1's output rebound onto n0: u1 now feeds itself (1-cell SCC), the PO
  // net y loses its driver, and no cell reaches a primary output.
  nl.set_cell_out_net_raw(1, nl.cell(0).out_net);
  const StructureFacts f = compute_structure(nl);
  EXPECT_FALSE(f.acyclic);
  ASSERT_EQ(f.cycles.size(), 1u);
  EXPECT_EQ(f.cycles[0], (std::vector<int>{1}));
  // The stale declared-driver link on y is lint's net.driver-mismatch
  // territory; structurally the PO is simply unreachable from any PI.
  EXPECT_EQ(f.unreachable_pos.size(), 1u);
}

TEST(Structure, UndrivenNetCutsItsDownstreamCone) {
  const CellLibrary cells = CellLibrary::standard();
  GateNetlist nl("ud");
  const int a = nl.add_primary_input("a");
  const int ghost = nl.add_net("ghost");  // no driver, not a PI
  const int c0 = nl.add_cell("u0", cells.by_name("INVx1"), {a}, "b");
  const int c1 = nl.add_cell("u1", cells.by_name("INVx1"), {ghost}, "y");
  nl.mark_primary_output(nl.cell(c0).out_net);
  nl.mark_primary_output(nl.cell(c1).out_net);
  const StructureFacts f = compute_structure(nl);
  EXPECT_TRUE(f.acyclic);
  ASSERT_EQ(f.undriven_nets.size(), 1u);
  EXPECT_EQ(f.undriven_nets[0], ghost);
  ASSERT_EQ(f.undriven_cone_cells.size(), 1u);
  EXPECT_EQ(f.undriven_cone_cells[0], c1);
  ASSERT_EQ(f.unreachable_pos.size(), 1u);

  AnalysisInput in;
  in.netlist = &nl;
  const AnalysisReport report = run_analysis(in);
  EXPECT_EQ(count_rule(report, "analysis.undriven-cone"), 2);  // net + cells
  EXPECT_EQ(count_rule(report, "analysis.unreachable-po"), 1);
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(Structure, DanglingConeIsInfoOnly) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells, /*mark_po=*/false);
  const StructureFacts f = compute_structure(nl);
  EXPECT_EQ(f.dangling_cells.size(), 2u);
  AnalysisInput in;
  in.netlist = &nl;
  const AnalysisReport report = run_analysis(in);
  EXPECT_EQ(count_rule(report, "analysis.dangling-cone"), 1);
  EXPECT_EQ(report.count(Severity::kError), 0);
}

TEST(Structure, LevelizationCrossCheckPassesOnC17) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = load_c17(cells);
  const StructureFacts f = compute_structure(nl);
  EXPECT_TRUE(f.pins_ok);
  EXPECT_TRUE(f.acyclic);
  EXPECT_TRUE(f.levelization_ok) << f.levelization_note;
  EXPECT_GT(f.levels, 0u);
}

// ------------------------------------------------- domain-coverage audit

TEST(Coverage, HeavyLoadOutsideTableDomainWarns) {
  FullFixture fx([](const CellLibrary& c) { return inv_chain(c); });
  RcTree heavy;  // 50 fF on n0 vs a load axis topping out at 12 fF
  heavy.add_node(0, 100.0, 50e-15);
  heavy.mark_sink(1, "u1:0");
  fx.spef.add("n0", heavy);

  const AnalysisReport report = run_analysis(fx.input());
  EXPECT_TRUE(report.coverage().ran);
  EXPECT_GE(count_rule(report, "analysis.domain-coverage"), 1);
  bool saw_warn = false;
  for (const auto& d : report.diagnostics()) {
    if (d.rule == "analysis.domain-coverage" && d.severity == Severity::kWarn)
      saw_warn = true;
  }
  EXPECT_TRUE(saw_warn) << report.to_text();
  std::size_t out = 0;
  for (const auto& row : report.coverage().rows) out += row.out;
  EXPECT_GE(out, 1u);
  EXPECT_EQ(report.exit_code(), 1);  // domain findings gate at warn, not error
}

TEST(Coverage, C17InsideSyntheticDomainIsErrorFree) {
  FullFixture fx(load_c17);
  const AnalysisReport report = run_analysis(fx.input());
  EXPECT_TRUE(report.intervals().ran);
  EXPECT_TRUE(report.coverage().ran);
  EXPECT_EQ(report.count(Severity::kError), 0) << report.to_text();
  // Every audited row is accounted: arcs = in + near + out.
  for (const auto& row : report.coverage().rows) {
    EXPECT_EQ(row.arcs, row.in + row.near + row.out);
  }
}

// ------------------------------------- propagation + cross-engine gating

TEST(VerifyEngines, AllThreeEnginesStayInsideStaticBoundsOnC17) {
  FullFixture fx(load_c17);
  AnalysisOptions opt;
  opt.verify_engines = true;
  opt.verify_samples = 400;
  const AnalysisReport report = run_analysis(fx.input(), opt);
  ASSERT_TRUE(report.verify().ran) << report.to_text();
  EXPECT_GT(report.verify().checks, 0u);
  EXPECT_EQ(report.verify().violations, 0u) << report.to_text();
  EXPECT_EQ(report.count(Severity::kError), 0) << report.to_text();
  // The interval section mirrors the propagation result.
  EXPECT_TRUE(report.intervals().ran);
  EXPECT_GT(report.intervals().reachable, 0u);
  EXPECT_GE(report.intervals().worst_po, 0);
  EXPECT_GT(report.intervals().worst_po_bounds.hi, 0.0);
}

TEST(VerifyEngines, GateIsSkippedUnlessRequested) {
  FullFixture fx(load_c17);
  const AnalysisReport report = run_analysis(fx.input());
  EXPECT_FALSE(report.verify().ran);
}

TEST(Report, ByteIdenticalAcrossThreadCounts) {
  FullFixture fx([](const CellLibrary& c) {
    RandomNetlistSpec spec;
    spec.name = "angen";
    spec.target_cells = 120;
    spec.num_primary_inputs = 8;
    GateNetlist nl = generate_random_mapped(spec, c);
    finalize_design(nl, c, TechParams::nominal28());
    return nl;
  });

  auto run_with = [&](unsigned threads) {
    AnalysisOptions opt;
    opt.exec.threads = threads;
    opt.verify_engines = true;
    opt.verify_samples = 200;
    return run_analysis(fx.input(), opt);
  };
  const AnalysisReport serial = run_with(1);
  const AnalysisReport parallel = run_with(4);
  EXPECT_EQ(serial.to_text(), parallel.to_text());
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  EXPECT_TRUE(serial.verify().ran);
  EXPECT_EQ(serial.verify().violations, 0u) << serial.to_text();
}

TEST(Report, MissingModelsSkipIntervalPassesGracefully) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells);
  AnalysisInput in;
  in.netlist = &nl;  // no parasitics, charlib, or models
  const AnalysisReport report = run_analysis(in);
  EXPECT_FALSE(report.intervals().ran);
  EXPECT_FALSE(report.coverage().ran);
  EXPECT_TRUE(report.structure().ran);
  EXPECT_EQ(report.count(Severity::kError), 0) << report.to_text();
}

// --------------------------------------------------- engine / registry

TEST(Engine, DisabledPassesAreSkipped) {
  FullFixture fx(load_c17);
  AnalysisOptions opt;
  opt.disabled_passes = {"analysis.domain-coverage"};
  const AnalysisReport report = run_analysis(fx.input(), opt);
  EXPECT_EQ(count_rule(report, "analysis.domain-coverage"), 0);
  EXPECT_EQ(report.checks_run(),
            AnalysisRegistry::global().checks().size() - 1);
}

TEST(Engine, RegistryRejectsDuplicateIds) {
  AnalysisRegistry reg;
  AnalysisPass pass;
  pass.id = "custom.pass";
  pass.check = [](const AnalysisInput&, const AnalysisPrep&,
                  const AnalysisOptions&, std::vector<Diagnostic>&) {};
  reg.add(pass);
  EXPECT_NE(reg.find("custom.pass"), nullptr);
  EXPECT_THROW(reg.add(pass), std::invalid_argument);
  EXPECT_EQ(reg.find("no.such.pass"), nullptr);
}

TEST(Engine, ThrowingPassBecomesInternalDiagnostic) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells);
  AnalysisRegistry reg;
  AnalysisPass pass;
  pass.id = "custom.throws";
  pass.check = [](const AnalysisInput&, const AnalysisPrep&,
                  const AnalysisOptions&, std::vector<Diagnostic>&) {
    throw std::runtime_error("boom");
  };
  reg.add(pass);
  AnalysisInput in;
  in.netlist = &nl;
  const AnalysisReport report = run_analysis(in, {}, reg);
  ASSERT_EQ(count_rule(report, "analysis.internal"), 1);
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(Engine, MergeRestoresCanonicalOrderAndExitCode) {
  const CellLibrary cells = CellLibrary::standard();
  const GateNetlist nl = inv_chain(cells);
  AnalysisInput in;
  in.netlist = &nl;
  AnalysisReport report = run_analysis(in);
  EXPECT_EQ(report.exit_code(), 0);
  report.merge({{Severity::kWarn, "parse.bench", "line:9", "odd", "", 9}});
  EXPECT_EQ(report.exit_code(), 1);
  report.merge({{Severity::kError, "parse.bench", "line:3", "bad", "", 3}});
  EXPECT_EQ(report.exit_code(), 2);
  // Errors sort before warnings regardless of merge order.
  EXPECT_EQ(report.diagnostics().front().severity, Severity::kError);
}

// ------------------------------------- fault site + tool exit-code map

TEST(FaultSite, NanCollapsedIntervalFiresTheVerifyGate) {
  FullFixture fx(load_c17);
  // Poison the first cell's output net: its certified bounds collapse to
  // [0, 0], so every engine's (positive) arrival there must violate.
  const int victim = fx.nl.cell(0).out_net;
  install_fault_plan(FaultPlan::parse(
      "analyze.interval@" + std::to_string(victim) + "=nan"));
  AnalysisOptions opt;
  opt.verify_engines = true;
  opt.verify_samples = 200;
  const AnalysisReport report = run_analysis(fx.input(), opt);
  clear_fault_plan();
  ASSERT_TRUE(report.verify().ran);
  EXPECT_GT(report.verify().violations, 0u);
  EXPECT_GE(count_rule(report, "analysis.verify-engines"), 1);
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(FaultSite, ThrowAndCancelPropagateAsTypedErrors) {
  FullFixture fx(load_c17);
  const int victim = fx.nl.cell(0).out_net;
  install_fault_plan(FaultPlan::parse(
      "analyze.interval@" + std::to_string(victim) + "=throw"));
  EXPECT_THROW(run_analysis(fx.input()), FaultInjectedError);
  install_fault_plan(FaultPlan::parse(
      "analyze.interval@" + std::to_string(victim) + "=cancel"));
  EXPECT_THROW(run_analysis(fx.input()), CancelledError);
  clear_fault_plan();
}

TEST(ExitCodes, HandlerMapsTypedErrorsToSharedCodes) {
  auto code_of = [](auto&& thrower) {
    try {
      thrower();
    } catch (...) {
      return handle_tool_exception("test_analysis");
    }
    return -1;
  };
  EXPECT_EQ(code_of([] { throw CancelledError("stop"); }), kExitCancelled);
  // An injected fault that escapes is an internal error, not a cancel.
  EXPECT_EQ(code_of([] { throw FaultInjectedError("fault"); }),
            kExitInternal);
  EXPECT_EQ(code_of([] { throw ParseError("bad"); }), kExitParse);
  EXPECT_EQ(code_of([] { throw IoError("disk"); }), kExitIo);
  EXPECT_EQ(code_of([] { throw std::runtime_error("x"); }), kExitInternal);
}

// --------------------------------------------- lint JSON schema golden

/// The fixed defect cluster used by the golden: purely structural (no
/// floating-point content), so the rendered JSON is platform-stable.
LintReport golden_lint_report() {
  // Both static: CellInst keeps CellType pointers into the library.
  static const CellLibrary cells = CellLibrary::standard();
  static const GateNetlist nl = [] {
    GateNetlist n = inv_chain(cells);
    n.set_cell_out_net_raw(1, n.cell(0).out_net);
    return n;
  }();
  LintInput in;
  in.netlist = &nl;
  return run_lint(in);
}

TEST(LintGolden, JsonMatchesCheckedInSchema) {
  const std::string json = golden_lint_report().to_json();
  const std::string path = repo_path("data/lint_golden.json");
  if (std::getenv("NSDC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << json;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(json, buf.str())
      << "lint JSON schema drifted; regenerate with NSDC_REGEN_GOLDEN=1 "
         "after an intentional change";
}

TEST(LintGolden, SchemaVersionAndStableDiagnosticOrder) {
  const std::string json = golden_lint_report().to_json();
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  // JSON diagnostics are stable-sorted by (rule, object, line) regardless
  // of severity, so consumers can diff reports across runs.
  std::vector<Diagnostic> diags = {
      {Severity::kInfo, "b.rule", "net:z", "later rule", "", 0},
      {Severity::kError, "a.rule", "net:n", "line 9", "", 9},
      {Severity::kWarn, "a.rule", "net:n", "line 2", "", 2},
      {Severity::kWarn, "a.rule", "net:m", "other object", "", 5},
  };
  sort_diagnostics_for_json(diags);
  EXPECT_EQ(diags[0].object, "net:m");
  EXPECT_EQ(diags[1].line, 2);
  EXPECT_EQ(diags[2].line, 9);
  EXPECT_EQ(diags[3].rule, "b.rule");
  EXPECT_TRUE(diagnostic_json_before(diags[0], diags[1]));
  EXPECT_FALSE(diagnostic_json_before(diags[3], diags[0]));
}

}  // namespace
}  // namespace nsdc
