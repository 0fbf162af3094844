// Whole-netlist Monte-Carlo engine tests: the bit-identity contract across
// thread counts AND scheduling grains, the batched sampler against the
// one-sample reference loop (tests/reference_netmc.hpp), golden c17
// regressions (fixed seed -> fixed worst-PO quantile CSV, mirroring
// test_golden_sta, and every net-edge as exact hex floats), the
// zero-variation collapse onto the nominal mean engine, and structural
// invariants of the result. Regenerate the goldens after an *intentional*
// model change with:
//   NSDC_REGEN_GOLDEN=1 ./tests/test_netmc
#include "sta/netmc.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crafted_netlists.hpp"
#include "hex_golden.hpp"
#include "netlist/benchio.hpp"
#include "netlist/designgen.hpp"
#include "reference_netmc.hpp"
#include "same_bits.hpp"
#include "sta/annotate.hpp"
#include "sta/engine.hpp"
#include "sta/ssta_analytic.hpp"
#include "sta/statarcs.hpp"
#include "synthetic_charlib.hpp"
#include "util/faultinject.hpp"

namespace nsdc {
namespace {

std::string repo_path(const std::string& rel) {
  return std::string(NSDC_SOURCE_DIR) + "/" + rel;
}

class NetMcTest : public ::testing::Test {
 protected:
  NetMcTest()
      : charlib(testfix::make_charlib()),
        cells(CellLibrary::standard()),
        model(NSigmaCellModel::fit(charlib)),
        wire_model(NSigmaWireModel::fit(charlib, cells)),
        tech(TechParams::nominal28()),
        // NAND2x1/INVx1 only, so the synthetic charlib covers every arc.
        netlist(generate_array_multiplier(6, cells)),
        parasitics(generate_parasitics(netlist, tech)) {}

  NetlistMonteCarlo::Result run_at(unsigned threads, std::size_t grain = 0,
                                   int samples = 64,
                                   NetMcOptions options = {}) const {
    const NetlistMonteCarlo mc(model, wire_model, tech, options);
    McConfig cfg;
    cfg.samples = samples;
    cfg.seed = 9001;
    cfg.threads = threads;
    cfg.exec.grain = grain;
    return mc.run(netlist, parasitics, cfg);
  }

  CharLib charlib;
  CellLibrary cells;
  NSigmaCellModel model;
  NSigmaWireModel wire_model;
  TechParams tech;
  GateNetlist netlist;
  ParasiticDb parasitics;
};

TEST_F(NetMcTest, BitIdenticalAcrossThreadCounts) {
  ASSERT_GE(netlist.num_cells(), 200u);
  const auto ref = run_at(1);
  // Bit-identical streamed moments, not approximately equal: the block
  // merge tree must not depend on the schedule.
  for (unsigned t : {2u, 7u, 16u}) {
    EXPECT_EQ(testfix::netmc_diff(run_at(t), ref), "") << t << " threads";
  }
}

TEST_F(NetMcTest, BitIdenticalAcrossGrainSettings) {
  const auto ref = run_at(1);
  // Explicit ExecContext::grain overrides, at several thread counts.
  for (std::size_t g : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                        std::size_t{1000}}) {
    EXPECT_EQ(testfix::netmc_diff(run_at(7, g), ref), "") << "grain " << g;
  }
  // The NSDC_GRAIN env override must reschedule, never change results.
  ::setenv("NSDC_GRAIN", "5", 1);
  const auto env_run = run_at(4);
  ::unsetenv("NSDC_GRAIN");
  EXPECT_EQ(testfix::netmc_diff(env_run, ref), "") << "NSDC_GRAIN=5";
}

TEST_F(NetMcTest, GrainOverridePrecedence) {
  ExecContext exec;
  EXPECT_EQ(exec.resolved_grain(7), 7u);  // per-call default
  ::setenv("NSDC_GRAIN", "11", 1);
  EXPECT_EQ(exec.resolved_grain(7), 11u);  // env beats per-call
  exec.grain = 3;
  EXPECT_EQ(exec.resolved_grain(7), 3u);  // explicit field beats env
  ::unsetenv("NSDC_GRAIN");
  EXPECT_EQ(exec.resolved_grain(7), 3u);
}

TEST_F(NetMcTest, ZeroVariationCollapsesOntoNominalSta) {
  NetMcOptions opt;
  opt.variation_scale = 0.0;
  const auto mc = run_at(2, 0, 16, opt);

  const StaEngine engine(model, tech);
  const auto nom = engine.run(netlist, parasitics);
  for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
    if (!nom.nets[n].reachable) {
      EXPECT_EQ(mc.nets[n][0].count, 0u);
      continue;
    }
    for (std::size_t e = 0; e < 2; ++e) {
      ASSERT_EQ(mc.nets[n][e].count, 16u) << "net " << n;
      // The sampler's mean surface (Eq. 2 calibration) and the engine's
      // NLDM mean table are two interpolants of the same synthetic truth;
      // at zero variation every sample equals the surface mean.
      EXPECT_NEAR(mc.nets[n][e].moments.mu, nom.nets[n].arrival[e],
                  1e-3 * nom.nets[n].arrival[e] + 1e-15)
          << "net " << n << " edge " << e;
      EXPECT_NEAR(mc.nets[n][e].moments.sigma, 0.0, 1e-18) << "net " << n;
    }
  }
  EXPECT_NEAR(mc.circuit_moments.mu, nom.max_arrival,
              1e-3 * nom.max_arrival);
  EXPECT_NEAR(mc.circuit_moments.sigma, 0.0, 1e-18);
}

TEST_F(NetMcTest, ResultStructureIsConsistent) {
  const auto res = run_at(2, 0, 48);
  ASSERT_FALSE(res.po_nets.empty());
  ASSERT_EQ(res.po_samples.size(), res.po_nets.size());
  ASSERT_EQ(res.po_moments.size(), res.po_nets.size());
  ASSERT_EQ(res.po_quantiles.size(), res.po_nets.size());
  ASSERT_EQ(res.circuit_samples.size(), 48u);
  for (std::size_t p = 1; p < res.po_nets.size(); ++p) {
    EXPECT_LT(res.po_nets[p - 1], res.po_nets[p]) << "po list not ascending";
  }
  // The circuit delay is the per-sample max over every PO.
  for (std::size_t s = 0; s < res.circuit_samples.size(); ++s) {
    double worst = 0.0;
    for (const auto& po : res.po_samples) worst = std::max(worst, po[s]);
    EXPECT_EQ(res.circuit_samples[s], worst) << "sample " << s;
  }
  // Quantiles ascend with the sigma level; sigma is positive under
  // variation; the worst PO really has the largest mean.
  for (int lv = 1; lv < 7; ++lv) {
    const auto l = static_cast<std::size_t>(lv);
    EXPECT_LE(res.circuit_quantiles[l - 1], res.circuit_quantiles[l]);
  }
  EXPECT_GT(res.circuit_moments.sigma, 0.0);
  double worst_mean = -1.0;
  int worst_po = -1;
  for (std::size_t p = 0; p < res.po_nets.size(); ++p) {
    if (res.po_moments[p].mu > worst_mean) {
      worst_mean = res.po_moments[p].mu;
      worst_po = res.po_nets[p];
    }
  }
  EXPECT_EQ(res.worst_po, worst_po);
  EXPECT_EQ(res.worst_po_moments.mu, worst_mean);
  EXPECT_GT(res.shards, 0u);
}

// ------------------------------------------------- golden c17 regression --

TEST(NetMcGolden, C17WorstPoQuantilesMatchGoldenCsv) {
  const CharLib charlib = testfix::make_charlib();
  const CellLibrary cells = CellLibrary::standard();
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);
  const NSigmaWireModel wire_model = NSigmaWireModel::fit(charlib, cells);
  const TechParams tech = TechParams::nominal28();

  const GateNetlist nl = load_bench(repo_path("data/c17.bench"), cells);
  const ParasiticDb spef = generate_parasitics(nl, tech);

  const NetlistMonteCarlo mc(model, wire_model, tech);
  McConfig cfg;
  cfg.samples = 2000;
  cfg.seed = 0xC17C17ULL;
  const auto res = mc.run(nl, spef, cfg);
  ASSERT_FALSE(res.po_nets.empty());

  const std::string golden_path = repo_path("data/c17_golden_netmc.csv");
  if (std::getenv("NSDC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good());
    out << "po_net,mu,sigma,qm3,qm2,qm1,q0,qp1,qp2,qp3\n";
    char buf[512];
    for (std::size_t p = 0; p < res.po_nets.size(); ++p) {
      const auto& q = res.po_quantiles[p];
      std::snprintf(buf, sizeof(buf),
                    "%s,%.12e,%.12e,%.12e,%.12e,%.12e,%.12e,%.12e,%.12e,"
                    "%.12e\n",
                    nl.net(res.po_nets[p]).name.c_str(), res.po_moments[p].mu,
                    res.po_moments[p].sigma, q[0], q[1], q[2], q[3], q[4],
                    q[5], q[6]);
      out << buf;
    }
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file: " << golden_path;
  std::map<std::string, std::vector<double>> golden;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss(line);
    std::string name, field;
    std::getline(ss, name, ',');
    std::vector<double> vals;
    while (std::getline(ss, field, ',')) vals.push_back(std::stod(field));
    ASSERT_EQ(vals.size(), 9u) << line;
    golden[name] = vals;
  }
  ASSERT_EQ(golden.size(), res.po_nets.size());

  // 12 significant digits in the CSV: 1e-9 relative catches any arithmetic
  // reordering, not just genuine model drift.
  const double rtol = 1e-9;
  for (std::size_t p = 0; p < res.po_nets.size(); ++p) {
    const std::string& name = nl.net(res.po_nets[p]).name;
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "PO " << name << " missing from golden";
    const auto& g = it->second;
    EXPECT_NEAR(res.po_moments[p].mu, g[0], rtol * g[0] + 1e-18) << name;
    EXPECT_NEAR(res.po_moments[p].sigma, g[1], rtol * g[1] + 1e-18) << name;
    for (int lv = 0; lv < 7; ++lv) {
      const auto l = static_cast<std::size_t>(lv);
      EXPECT_NEAR(res.po_quantiles[p][l], g[2 + l], rtol * g[2 + l] + 1e-18)
          << name << " level " << lv - 3;
    }
  }
}

TEST(NetMcGolden, C17NetEdgesMatchHexGoldenAt1And4Lanes) {
  // Per net-edge rows see what the worst-edge PO rows of the CSV golden
  // hide: on the all-NAND c17 a rise/fall swap in the frozen cell records
  // only relabels the two edges of each net.
  const CharLib charlib = testfix::make_charlib();
  const CellLibrary cells = CellLibrary::standard();
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);
  const NSigmaWireModel wire_model = NSigmaWireModel::fit(charlib, cells);
  const TechParams tech = TechParams::nominal28();
  const GateNetlist nl = load_bench(repo_path("data/c17.bench"), cells);
  const ParasiticDb spef = generate_parasitics(nl, tech);

  const NetlistMonteCarlo mc(model, wire_model, tech);
  auto run_at = [&](unsigned lanes) {
    McConfig cfg;
    cfg.samples = 2000;
    cfg.seed = 0xC17C17ULL;
    cfg.threads = lanes;
    return testfix::hex_lines(
        nl, mc.run(nl, spef, cfg),
        [](const auto& es) { return std::to_string(es.count); });
  };
  const std::vector<std::string> got = run_at(1);
  const std::string golden_path = repo_path("data/c17_golden_netmc.txt");
  if (testfix::regen_golden_lines(golden_path, got)) {
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  const std::vector<std::string> want = testfix::read_golden_lines(golden_path);
  EXPECT_EQ(got, want);
  EXPECT_EQ(run_at(4), want);
}

// ------------------------------------- batched run vs one-sample oracle --

/// NetlistMonteCarlo::run against testfix::reference_netmc on c17, the
/// 6-bit array multiplier and the crafted endpoint netlist: every field
/// run() fills must match byte for byte, including quarantined counts,
/// NaN-poisoned samples and the zero filler of a block-subset run.
class NetMcReference : public ::testing::Test {
 protected:
  NetMcReference()
      : cells(CellLibrary::standard()),
        model(NSigmaCellModel::fit(testfix::make_charlib())),
        full_model(NSigmaCellModel::fit(testfix::make_full_charlib())),
        wire_model(NSigmaWireModel::fit(testfix::make_charlib(), cells)),
        tech(TechParams::nominal28()) {}

  ~NetMcReference() override { clear_fault_plan(); }

  /// Runs the engine at `lanes` and the oracle on the same frozen system
  /// with `samples` samples, then memcmps the two.
  void check(const GateNetlist& nl, const NSigmaCellModel& cell_model,
             int samples, const NetMcOptions& opt, unsigned lanes,
             const std::string& what) const {
    const ParasiticDb spef = generate_parasitics(nl, tech);
    const NetlistMonteCarlo mc(cell_model, wire_model, tech, opt);
    McConfig cfg;
    cfg.samples = samples;
    cfg.seed = 0x5EEDULL + static_cast<std::uint64_t>(samples);
    cfg.threads = lanes;
    const NetlistMonteCarlo::Result got = mc.run(nl, spef, cfg);
    const StatArcs sys =
        freeze_stat_arcs(nl, spef, cell_model, wire_model, tech, opt);
    const NetlistMonteCarlo::Result want = testfix::reference_netmc(
        sys, nl.num_nets(), nl.num_cells(), opt, cfg.seed,
        static_cast<std::size_t>(samples), opt.block_begin, opt.block_end);

    ASSERT_EQ(testfix::netmc_diff(got, want), "") << what;
  }

  GateNetlist c17() const {
    return load_bench(repo_path("data/c17.bench"), cells);
  }
  GateNetlist multiplier() const {
    return generate_array_multiplier(6, cells);
  }

  /// Sample counts around the batch and block sizes: single samples, one
  /// batch, one over, blocks of 2 and 4, and 2,000 = 32 blocks of 63
  /// samples, each ending in a partial batch of 7.
  static constexpr int kSampleCounts[] = {1, 5, 8, 9, 33, 100, 2000};

  CellLibrary cells;
  NSigmaCellModel model;       ///< make_charlib(): NAND2x1 / INVx1 only
  NSigmaCellModel full_model;  ///< make_full_charlib(): also NOR2x1
  NSigmaWireModel wire_model;
  TechParams tech;
};

TEST_F(NetMcReference, C17MatchesAtEverySampleCount) {
  const GateNetlist nl = c17();
  for (const int samples : kSampleCounts) {
    for (const unsigned lanes : {1u, 4u}) {
      check(nl, model, samples, {}, lanes,
            "c17 samples " + std::to_string(samples) + " lanes " +
                std::to_string(lanes));
    }
  }
}

TEST_F(NetMcReference, MultiplierMatchesAtEverySampleCount) {
  const GateNetlist nl = multiplier();
  for (const int samples : kSampleCounts) {
    check(nl, model, samples, {}, 4, "mul6 samples " + std::to_string(samples));
  }
}

TEST_F(NetMcReference, CraftedEndpointsMatchAtEverySampleCount) {
  const GateNetlist nl = testfix::crafted_endpoint_netlist(cells);
  for (const int samples : kSampleCounts) {
    check(nl, full_model, samples, {}, 4,
          "endpoints samples " + std::to_string(samples));
  }
}

TEST_F(NetMcReference, DieToDieShareZeroAndOneMatch) {
  const GateNetlist nl = multiplier();
  for (const double share : {0.0, 1.0}) {
    NetMcOptions opt;
    opt.die_to_die_share = share;
    check(nl, model, 100, opt, 4, "share " + std::to_string(share));
  }
}

TEST_F(NetMcReference, GaussianCellDelaysMatch) {
  NetMcOptions opt;
  opt.moment_shaping = false;
  check(multiplier(), model, 100, opt, 4, "mul6 gaussian");
  check(testfix::crafted_endpoint_netlist(cells), full_model, 100, opt, 4,
        "endpoints gaussian");
}

TEST_F(NetMcReference, NanPoisonMidBatchMatches) {
  // With 2,000 samples block 0 is samples 0..62: sample 60 lands in its
  // partial tail batch (56..62), and sample 100 mid-way through block 1's
  // batch 95..102.
  install_fault_plan(
      FaultPlan::parse("netmc.sample@60=nan;netmc.sample@100=nan"));
  check(c17(), model, 2000, {}, 4, "c17 poisoned");
  check(multiplier(), model, 2000, {}, 4, "mul6 poisoned");
}

TEST_F(NetMcReference, BlockSubsetRunMatches) {
  NetMcOptions opt;
  opt.block_begin = 5;
  opt.block_end = 12;
  check(multiplier(), model, 2000, opt, 4, "mul6 blocks [5, 12)");
  check(c17(), model, 2000, opt, 1, "c17 blocks [5, 12)");
}

// ------------------------------------------------- shared comparators --
// same_bits.hpp on real c17 results: a copy compares "", and one flipped
// bit in any covered field is named with its index path.

/// Flips the lowest bit of `v`'s first byte (a bool stays a valid bool).
template <class T>
void flip(T& v) {
  *reinterpret_cast<unsigned char*>(&v) ^= 1u;
}

/// A case that flips one bit of `r.path` and expects the diff "path".
#define NSDC_FLIP_CASE(R, path) \
  std::pair<std::string, void (*)(R&)> { #path, [](R& r) { flip(r.path); } }

class SameBits : public NetMcReference {
 protected:
  template <class R, class Diff>
  static void expect_each_field_named(
      const R& ref, Diff diff,
      std::initializer_list<std::pair<std::string, void (*)(R&)>> cases) {
    EXPECT_EQ(diff(R(ref), ref), "");
    for (const auto& [path, mutate] : cases) {
      R got = ref;
      mutate(got);
      EXPECT_EQ(diff(got, ref), path);
    }
  }
};

TEST_F(SameBits, StaDiffNamesEachField) {
  using R = StaEngine::Result;
  const GateNetlist nl = c17();
  const R ref = StaEngine(model, tech).run(nl, generate_parasitics(nl, tech));
  expect_each_field_named(ref, testfix::sta_diff,
                          {NSDC_FLIP_CASE(R, nets[3].arrival[1]),
                           NSDC_FLIP_CASE(R, nets[3].slew[0]),
                           NSDC_FLIP_CASE(R, nets[3].from_pin[1]),
                           NSDC_FLIP_CASE(R, nets[3].reachable),
                           NSDC_FLIP_CASE(R, net_load[3]),
                           NSDC_FLIP_CASE(R, max_arrival),
                           NSDC_FLIP_CASE(R, critical_net),
                           NSDC_FLIP_CASE(R, critical_edge)});
  // Bit patterns, not values: +0 and -0 differ, one NaN equals itself.
  R a = ref, b = ref;
  a.max_arrival = 0.0;
  b.max_arrival = -0.0;
  EXPECT_EQ(testfix::sta_diff(a, b), "max_arrival");
  a.max_arrival = b.max_arrival = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(testfix::sta_diff(a, b), "");
}

TEST_F(SameBits, NetMcDiffNamesEachField) {
  using R = NetlistMonteCarlo::Result;
  const GateNetlist nl = c17();
  McConfig cfg;
  cfg.samples = 64;
  const R ref = NetlistMonteCarlo(model, wire_model, tech)
                    .run(nl, generate_parasitics(nl, tech), cfg);
  expect_each_field_named(
      ref, testfix::netmc_diff,
      {NSDC_FLIP_CASE(R, nets[4][1].moments.mu),
       NSDC_FLIP_CASE(R, nets[4][0].moments.sigma),
       NSDC_FLIP_CASE(R, nets[4][1].moments.gamma),
       NSDC_FLIP_CASE(R, nets[4][0].moments.kappa),
       NSDC_FLIP_CASE(R, nets[4][1].count),
       NSDC_FLIP_CASE(R, quarantined[4][1]),
       NSDC_FLIP_CASE(R, po_nets[1]),
       NSDC_FLIP_CASE(R, po_samples[1][5]),
       NSDC_FLIP_CASE(R, po_moments[1].sigma),
       NSDC_FLIP_CASE(R, po_quantiles[1][6]),
       NSDC_FLIP_CASE(R, circuit_samples[5]),
       NSDC_FLIP_CASE(R, circuit_moments.mu),
       NSDC_FLIP_CASE(R, circuit_quantiles[0]),
       NSDC_FLIP_CASE(R, worst_po),
       NSDC_FLIP_CASE(R, worst_po_moments.kappa),
       NSDC_FLIP_CASE(R, worst_po_quantiles[3]),
       NSDC_FLIP_CASE(R, total_quarantined),
       NSDC_FLIP_CASE(R, samples_done),
       {"circuit_samples.size()", [](R& r) { r.circuit_samples.pop_back(); }}});
}

TEST_F(SameBits, SstaDiffNamesEachField) {
  using R = AnalyticSsta::Result;
  const GateNetlist nl = c17();
  const R ref = AnalyticSsta(model, wire_model, tech)
                    .run(nl, generate_parasitics(nl, tech));
  expect_each_field_named(ref, testfix::ssta_diff,
                          {NSDC_FLIP_CASE(R, nets[4][1].moments.mu),
                           NSDC_FLIP_CASE(R, nets[4][0].moments.gamma),
                           NSDC_FLIP_CASE(R, nets[4][1].reachable),
                           NSDC_FLIP_CASE(R, po_nets[1]),
                           NSDC_FLIP_CASE(R, po_moments[0].sigma),
                           NSDC_FLIP_CASE(R, po_quantiles[1][2]),
                           NSDC_FLIP_CASE(R, circuit_moments.kappa),
                           NSDC_FLIP_CASE(R, circuit_quantiles[6]),
                           NSDC_FLIP_CASE(R, worst_po),
                           NSDC_FLIP_CASE(R, worst_po_moments.mu),
                           NSDC_FLIP_CASE(R, worst_po_quantiles[4]),
                           NSDC_FLIP_CASE(R, levels),
                           NSDC_FLIP_CASE(R, peak_live_locals)});
}

/// `w` rebuilt through the public RcTree API, with node 2 hung off
/// `parent2` and sink 0 at node `sink0` named `pin0`.
RcTree rebuilt(const RcTree& w, int parent2, int sink0,
               const std::string& pin0) {
  RcTree t;
  t.add_cap(0, w.node_cap(0));
  for (int i = 1; i < w.num_nodes(); ++i) {
    t.add_node(i == 2 ? parent2 : w.parent(i), w.edge_res(i), w.node_cap(i));
  }
  for (std::size_t s = 0; s < w.sinks().size(); ++s) {
    const RcTree::Sink& sink = w.sinks()[s];
    t.mark_sink(s == 0 ? sink0 : sink.node, s == 0 ? pin0 : sink.pin);
  }
  return t;
}

/// rebuilt() with every field of `w` kept.
RcTree rebuilt(const RcTree& w) {
  return rebuilt(w, w.parent(2), w.sinks()[0].node, w.sinks()[0].pin);
}

TEST_F(SameBits, PathDiffNamesEachField) {
  using R = PathDescription;
  const GateNetlist nl = c17();
  const StaEngine engine(model, tech);
  const R ref = engine.extract_worst_paths(
      nl, engine.run(nl, generate_parasitics(nl, tech)), 1)[0];
  ASSERT_GE(ref.stages.size(), 2u);
  const RcTree& w = ref.stages[1].wire;
  ASSERT_GE(w.num_nodes(), 3);
  ASSERT_GT(w.parent(2), 0);  // so hanging node 2 off the root moves it
  ASSERT_FALSE(w.sinks().empty());
  ASSERT_NE(w.sinks()[0].node, 1);
  {
    R same = ref;
    same.stages[1].wire = rebuilt(w);
    EXPECT_EQ(testfix::path_diff(same, ref), "");
  }
  expect_each_field_named(
      ref,
      [](const R& got, const R& want) {
        return testfix::path_diff(got, want);
      },
      {{"design", [](R& r) { r.design += "x"; }},
       {"note", [](R& r) { r.note += "x"; }},
       {"stages.size()", [](R& r) { r.stages.pop_back(); }},
       {"stages[1].cell", [](R& r) { r.stages[1].cell = nullptr; }},
       NSDC_FLIP_CASE(R, stages[1].pin),
       NSDC_FLIP_CASE(R, stages[1].in_rising),
       NSDC_FLIP_CASE(R, stages[1].input_slew),
       NSDC_FLIP_CASE(R, stages[1].output_load),
       {"stages[1].wire.num_nodes()",
        [](R& r) { r.stages[1].wire = RcTree(); }},
       {"stages[1].wire.nodes[2].parent",
        [](R& r) {
          const RcTree& t = r.stages[1].wire;
          r.stages[1].wire =
              rebuilt(t, 0, t.sinks()[0].node, t.sinks()[0].pin);
        }},
       {"stages[1].wire.nodes[1].edge_res",
        [](R& r) { r.stages[1].wire = r.stages[1].wire.scaled(2.0, 1.0); }},
       {"stages[1].wire.nodes[1].node_cap",
        [](R& r) { r.stages[1].wire.add_cap(1, 1e-18); }},
       {"stages[1].wire.sinks.size()",
        [](R& r) { r.stages[1].wire.mark_sink(1, "extra"); }},
       {"stages[1].wire.sinks[0].node",
        [](R& r) {
          const RcTree& t = r.stages[1].wire;
          r.stages[1].wire = rebuilt(t, t.parent(2), 1, t.sinks()[0].pin);
        }},
       {"stages[1].wire.sinks[0].pin",
        [](R& r) {
          const RcTree& t = r.stages[1].wire;
          r.stages[1].wire =
              rebuilt(t, t.parent(2), t.sinks()[0].node, "renamed");
        }},
       NSDC_FLIP_CASE(R, stages[1].sink_node),
       {"stages[1].load_cell", [](R& r) { r.stages[1].load_cell += "x"; }}});
  // A report names the path first.
  const std::vector<R> one = {ref};
  std::vector<R> other = one;
  other[0].stages[1].pin ^= 1;
  EXPECT_EQ(testfix::path_diff(other, one), "paths[0].stages[1].pin");
  other.push_back(ref);
  EXPECT_EQ(testfix::path_diff(other, one), "paths.size()");
}

#undef NSDC_FLIP_CASE

}  // namespace
}  // namespace nsdc
