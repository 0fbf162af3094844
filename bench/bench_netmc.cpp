// Table-III-style circuit-level comparison for the sharded netlist Monte
// Carlo: on each design the golden reference is now the whole-netlist MC
// (every gate and wire drawn per sample), compared against
//   Analytic   — Gaussian block SSTA: AnalyticSsta with moment_shaping off
//                (worst-PO +3 sigma)
//   Path Eq.10 — N-sigma quantiles of the nominal critical path
// with signed +3-sigma errors and runtimes. The netlist MC also reports its
// empirical worst-PO skew, which the Gaussian propagator cannot produce.
//
// Default mode runs a small subset; NSDC_FULL=1 runs more designs at
// paper-scale sample counts.
#include "common.hpp"
#include "netlist/designgen.hpp"
#include "sta/annotate.hpp"
#include "sta/netmc.hpp"
#include "sta/ssta_analytic.hpp"
#include "sta/timer.hpp"

using namespace nsdc;
using namespace nsdc::bench;

namespace {

GateNetlist build_design(const std::string& name, const CellLibrary& cells,
                         const TechParams& tech) {
  GateNetlist nl = [&] {
    if (name == "ADD") return generate_ripple_adder(full_mode() ? 64 : 32, cells);
    if (name == "MUL") {
      return generate_array_multiplier(full_mode() ? 16 : 8, cells);
    }
    return generate_iscas_like(name, cells);
  }();
  finalize_design(nl, cells, tech);
  return nl;
}

}  // namespace

int main() {
  print_header("Netlist Monte Carlo vs analytic SSTA and path Eq. 10",
               "Delays in ps; errors in % vs the netlist-MC +3s quantile; "
               "runtimes in seconds.");

  const TechParams tech = TechParams::nominal28();
  const CellLibrary cells = CellLibrary::standard();
  const CharLib charlib = shared_charlib(tech, cells);
  const NSigmaTimer timer(charlib, cells, tech);
  AnalyticSstaOptions gauss;
  gauss.moment_shaping = false;
  const AnalyticSsta ssta(timer.cell_model(), timer.wire_model(), tech, gauss);
  const NetlistMonteCarlo netmc(timer.cell_model(), timer.wire_model(), tech);

  std::vector<std::string> designs = {"C432", "ADD", "MUL"};
  if (full_mode()) designs = {"C432", "C499", "C1355", "ADD", "MUL"};

  Table t({"Design", "#Cells", "MC -3s", "MC mu", "MC +3s", "MC skew",
           "SSTA +3s", "Path +3s", "SSTA err%", "Path err%", "t.MC (s)",
           "shards"});

  double sum_ssta = 0.0, sum_path = 0.0;
  int n_rows = 0;
  for (const auto& name : designs) {
    const GateNetlist nl = build_design(name, cells, tech);
    const ParasiticDb spef = generate_parasitics(nl, tech);

    const auto analysis = timer.analyze(nl, spef);
    const auto an = ssta.run(nl, spef);

    McConfig cfg;
    cfg.samples = scaled_samples(1000, 10000);
    cfg.seed = 0x11E7ULL;
    const auto mc = netmc.run(nl, spef, cfg);

    const double mc_p3 = mc.worst_po_quantiles[6];
    const double an_p3 = an.worst_po_quantiles[6];
    const double e_ssta = pct_err(an_p3, mc_p3);
    const double e_path = pct_err(analysis.quantiles[6], mc_p3);
    t.add_row({name, std::to_string(nl.num_cells()),
               format_fixed(to_ps(mc.worst_po_quantiles[0]), 0),
               format_fixed(to_ps(mc.worst_po_moments.mu), 0),
               format_fixed(to_ps(mc_p3), 0),
               format_fixed(mc.worst_po_moments.gamma, 2),
               format_fixed(to_ps(an_p3), 0),
               format_fixed(to_ps(analysis.quantiles[6]), 0),
               format_fixed(e_ssta, 1), format_fixed(e_path, 1),
               format_fixed(mc.runtime_seconds, 2),
               std::to_string(mc.shards)});
    sum_ssta += std::abs(e_ssta);
    sum_path += std::abs(e_path);
    ++n_rows;
  }
  const double n = n_rows;
  t.add_row({"Avg.|err|", "-", "-", "-", "-", "-", "-", "-",
             format_fixed(sum_ssta / n, 1), format_fixed(sum_path / n, 1),
             "-", "-"});
  t.print(std::cout);
  t.save_csv("netmc_comparison.csv");

  std::cout << "\nShape check: the Gaussian SSTA +3s should land ~5-15% "
               "below the netlist-MC quantile (it propagates the same "
               "frozen arcs but drops the calibrated skew the MC skew "
               "column shows, so its upper tail sits low), "
               "while the single-path Eq. 10 number overshoots by design: "
               "it cascades per-stage +3s quantiles, i.e. assumes fully "
               "correlated stages, where the ensemble's local half of the "
               "variance averages out along the path.\n";
  return 0;
}
