// Whole-netlist Monte-Carlo engine tests: the bit-identity contract across
// thread counts AND scheduling grains, a golden c17 regression (fixed seed
// -> fixed worst-PO quantile CSV, mirroring test_golden_sta), the
// zero-variation collapse onto the nominal mean engine, and structural
// invariants of the result. Regenerate the golden after an *intentional*
// model change with:
//   NSDC_REGEN_GOLDEN=1 ./tests/test_netmc
#include "sta/netmc.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/benchio.hpp"
#include "netlist/designgen.hpp"
#include "sta/annotate.hpp"
#include "sta/engine.hpp"
#include "synthetic_charlib.hpp"

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

  static void expect_identical(const NetlistMonteCarlo::Result& got,
                               const NetlistMonteCarlo::Result& ref,
                               const std::string& what) {
    ASSERT_EQ(got.circuit_samples.size(), ref.circuit_samples.size()) << what;
    for (std::size_t i = 0; i < ref.circuit_samples.size(); ++i) {
      ASSERT_EQ(got.circuit_samples[i], ref.circuit_samples[i])
          << what << " sample " << i;
    }
    ASSERT_EQ(got.nets.size(), ref.nets.size()) << what;
    for (std::size_t n = 0; n < ref.nets.size(); ++n) {
      for (std::size_t e = 0; e < 2; ++e) {
        ASSERT_EQ(got.nets[n][e].count, ref.nets[n][e].count) << what;
        // Bit-identical streamed moments, not approximately equal: the
        // block merge tree must not depend on the schedule.
        ASSERT_EQ(got.nets[n][e].moments.mu, ref.nets[n][e].moments.mu)
            << what << " net " << n;
        ASSERT_EQ(got.nets[n][e].moments.sigma, ref.nets[n][e].moments.sigma)
            << what << " net " << n;
        ASSERT_EQ(got.nets[n][e].moments.gamma, ref.nets[n][e].moments.gamma)
            << what << " net " << n;
        ASSERT_EQ(got.nets[n][e].moments.kappa, ref.nets[n][e].moments.kappa)
            << what << " net " << n;
      }
    }
    ASSERT_EQ(got.worst_po, ref.worst_po) << what;
    for (int lv = 0; lv < 7; ++lv) {
      const auto l = static_cast<std::size_t>(lv);
      ASSERT_EQ(got.worst_po_quantiles[l], ref.worst_po_quantiles[l])
          << what << " level " << lv;
      ASSERT_EQ(got.circuit_quantiles[l], ref.circuit_quantiles[l])
          << what << " level " << lv;
    }
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
  for (unsigned t : {2u, 7u, 16u}) {
    expect_identical(run_at(t), ref, std::to_string(t) + " threads");
  }
}

TEST_F(NetMcTest, BitIdenticalAcrossGrainSettings) {
  const auto ref = run_at(1);
  // Explicit ExecContext::grain overrides, at several thread counts.
  for (std::size_t g : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                        std::size_t{1000}}) {
    expect_identical(run_at(7, g), ref, "grain " + std::to_string(g));
  }
  // The NSDC_GRAIN env override must reschedule, never change results.
  ::setenv("NSDC_GRAIN", "5", 1);
  const auto env_run = run_at(4);
  ::unsetenv("NSDC_GRAIN");
  expect_identical(env_run, ref, "NSDC_GRAIN=5");
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

}  // namespace
}  // namespace nsdc
