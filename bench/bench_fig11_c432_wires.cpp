// Fig. 11 reproduction: per-wire +3-sigma delay on the critical path of
// C432 — the N-sigma wire model vs the Elmore metric, with stage-resolved
// Monte Carlo as reference. The paper's point: Elmore (no variability)
// undershoots every wire's +3s, while the calibrated model tracks it.
#include "baselines/mc_reference.hpp"
#include "common.hpp"
#include "core/pathdelay.hpp"
#include "netlist/designgen.hpp"
#include "sta/annotate.hpp"
#include "sta/timer.hpp"

using namespace nsdc;
using namespace nsdc::bench;

int main() {
  print_header("Fig. 11 — +3s delay of each wire on the C432 critical path",
               "Model (Eq. 9) vs Elmore vs stage-resolved Monte Carlo.");

  const TechParams tech = TechParams::nominal28();
  const CellLibrary cells = CellLibrary::standard();
  const CharLib charlib = shared_charlib(tech, cells);
  const NSigmaTimer timer(charlib, cells, tech);

  GateNetlist nl = generate_iscas_like("C432", cells);
  finalize_design(nl, cells, tech);
  const ParasiticDb spef = generate_parasitics(nl, tech);
  const auto analysis = timer.analyze(nl, spef);
  std::cout << "C432-like netlist: " << nl.num_cells() << " cells, "
            << nl.num_nets() << " nets; critical path has "
            << analysis.critical_path.num_stages() << " stages.\n\n";

  McConfig mcc;
  mcc.samples = scaled_samples(600, 3000);
  mcc.seed = 0xF1611ULL;
  const PathMonteCarlo mc(tech);
  const auto ref = mc.run(analysis.critical_path, mcc);

  const PathDelayCalculator calc(timer.cell_model(), timer.wire_model());
  const auto stages = calc.breakdown(analysis.critical_path);

  Table t({"wire", "driver", "load", "Elmore (ps)", "MC +3s (ps)",
           "ours +3s (ps)", "ours err%", "Elmore err%"});
  double sum_ours = 0.0, sum_elm = 0.0;
  int count = 0;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const auto& st = analysis.critical_path.stages[s];
    if (!st.has_wire() || ref.stage_wire_quantiles[s][6] <= 0.0) continue;
    const double mc_p3 = ref.stage_wire_quantiles[s][6];
    const double ours_p3 = stages[s].wire[6];
    const double e_ours = pct_err(ours_p3, mc_p3);
    const double e_elm = pct_err(stages[s].elmore, mc_p3);
    t.add_row({"Wire" + std::to_string(count + 1), st.cell->name(),
               st.load_cell.empty() ? "PO" : st.load_cell,
               format_fixed(to_ps(stages[s].elmore), 2),
               format_fixed(to_ps(mc_p3), 2), format_fixed(to_ps(ours_p3), 2),
               format_fixed(e_ours, 2), format_fixed(e_elm, 2)});
    sum_ours += std::abs(e_ours);
    sum_elm += std::abs(e_elm);
    ++count;
  }
  t.print(std::cout);
  t.save_csv("fig11_c432_wires.csv");

  if (count > 0) {
    std::cout << "\naverage |err|: ours " << format_fixed(sum_ours / count, 2)
              << "%  vs  Elmore " << format_fixed(sum_elm / count, 2) << "%\n";
  }
  std::cout << "Paper shape check: the Elmore column sits consistently "
               "below MC +3s (no variability margin); the N-sigma column "
               "tracks it within a few tens of percent of the gap.\n";
  return 0;
}
