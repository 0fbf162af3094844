// Ablations of the design choices DESIGN.md calls out:
//  A1 — Table-I cross term: sigma-scaled (ours) vs the paper-literal
//       dimensionless gamma*kappa form;
//  A2 — Eq. 3 cubic calibration of gamma/kappa vs a bilinear-only variant;
//  A3 — wire variability decomposition: intercept + driver + load (ours)
//       vs no-intercept (paper-literal Eq. 7) vs intercept-only;
//  A4 — path MC waveform handoff vs equivalent-ramp stages;
//  A5 — path-based quantile sum (paper Eq. 10) vs block-based Gaussian
//       SSTA (AnalyticSsta, moment_shaping off) at several die-to-die
//       shares.
#include <cmath>

#include "baselines/mc_reference.hpp"
#include "common.hpp"
#include "core/pathdelay.hpp"
#include "netlist/designgen.hpp"
#include "sta/annotate.hpp"
#include "sta/ssta_analytic.hpp"
#include "sta/timer.hpp"
#include "stats/regression.hpp"

using namespace nsdc;
using namespace nsdc::bench;

namespace {

// A2 helper: mean |quantile error| over all grid observations when
// gamma/kappa come from a surface with the given basis.
double calib_holdout_error(const CharLib& lib, const NSigmaCellModel& model,
                           bool cubic) {
  double sum = 0.0;
  int count = 0;
  for (const auto& arc : lib.arcs()) {
    CalibrationSurface surf = CalibrationSurface::fit(arc);
    if (!cubic) {
      // Zero out the quadratic/cubic terms, keeping {dS, dC, dSdC}.
      for (int k : {2, 3, 4, 5}) {
        surf.gamma_coef[static_cast<std::size_t>(k)] = 0.0;
        surf.kappa_coef[static_cast<std::size_t>(k)] = 0.0;
      }
      // Refit the linear part so the comparison is fair.
      std::vector<std::vector<double>> rows;
      std::vector<double> yg, yk;
      for (std::size_t i = 0; i < arc.slews.size(); ++i) {
        for (std::size_t j = 0; j < arc.loads.size(); ++j) {
          const double ds = (arc.slews[i] - surf.s_ref) / surf.s_scale;
          const double dc = (arc.loads[j] - surf.c_ref) / surf.c_scale;
          rows.push_back({ds, dc, ds * dc});
          yg.push_back(arc.at(i, j).moments.gamma - surf.ref.gamma);
          yk.push_back(arc.at(i, j).moments.kappa - surf.ref.kappa);
        }
      }
      const auto fg = least_squares(rows, yg, 1e-12).beta;
      const auto fk = least_squares(rows, yk, 1e-12).beta;
      surf.gamma_coef = {fg[0], fg[1], 0, 0, 0, 0, fg[2]};
      surf.kappa_coef = {fk[0], fk[1], 0, 0, 0, 0, fk[2]};
    }
    for (std::size_t i = 0; i < arc.slews.size(); ++i) {
      for (std::size_t j = 0; j < arc.loads.size(); ++j) {
        const Moments m = surf.moments_at(arc.slews[i], arc.loads[j]);
        const auto q = model.table1().quantiles(m);
        const auto& mc = arc.at(i, j).quantiles;
        for (int lv : {0, 6}) {
          const auto l = static_cast<std::size_t>(lv);
          sum += std::fabs(100.0 * (q[l] - mc[l]) / mc[l]);
          ++count;
        }
      }
    }
  }
  return sum / count;
}

// A3 helper: rms relative residual of an X_w regression variant.
double xw_variant_residual(const CharLib& lib, bool with_terms,
                           bool with_intercept) {
  const auto& obs = lib.wire_observations();
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (const auto& o : obs) {
    std::vector<double> row;
    if (with_intercept) row.push_back(1.0);
    if (with_terms) {
      row.push_back(lib.cell_variability(o.driver_cell));
      row.push_back(lib.cell_variability(o.load_cell));
    }
    rows.push_back(std::move(row));
    y.push_back(o.variability());
  }
  const FitResult fit = least_squares(rows, y, 1e-10);
  double ss = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    double pred = 0.0;
    for (std::size_t c = 0; c < rows[i].size(); ++c) {
      pred += rows[i][c] * fit.beta[c];
    }
    const double rel = (pred - y[i]) / y[i];
    ss += rel * rel;
  }
  return 100.0 * std::sqrt(ss / static_cast<double>(rows.size()));
}

}  // namespace

int main() {
  print_header("Ablations", "Design-choice sensitivity studies (DESIGN.md #5).");

  const TechParams tech = TechParams::nominal28();
  const CellLibrary cells = CellLibrary::standard();
  const CharLib charlib = shared_charlib(tech, cells);

  // ---- A1: cross-term form ----
  {
    std::vector<Moments> ms;
    std::vector<std::array<double, 7>> qs;
    for (const auto& arc : charlib.arcs()) {
      for (const auto& g : arc.grid) {
        ms.push_back(g.moments);
        qs.push_back(g.quantiles);
      }
    }
    Table t({"cross-term form", "R2(-3s)", "R2(+3s)", "rmse(+3s)"});
    for (bool scaled : {true, false}) {
      TableICoefficients::FitStats stats;
      (void)TableICoefficients::fit(ms, qs, scaled, &stats);
      t.add_row({scaled ? "sigma*gamma*kappa (ours)" : "gamma*kappa (paper literal)",
                 format_fixed(stats.r_squared[0], 4),
                 format_fixed(stats.r_squared[6], 4),
                 scaled ? format_fixed(stats.rmse[6], 4) + " (norm.)"
                        : format_fixed(stats.rmse[6] * 1e12, 4) + " ps"});
    }
    std::cout << "A1 — Table-I cross-term form:\n";
    t.print(std::cout);
  }

  // ---- A2: cubic vs bilinear gamma/kappa calibration ----
  {
    const NSigmaCellModel model = NSigmaCellModel::fit(charlib);
    Table t({"gamma/kappa calibration", "avg |+-3s quantile err| %"});
    t.add_row({"cubic (Eq. 3, ours)",
               format_fixed(calib_holdout_error(charlib, model, true), 3)});
    t.add_row({"bilinear only",
               format_fixed(calib_holdout_error(charlib, model, false), 3)});
    std::cout << "\nA2 — operating-condition calibration order:\n";
    t.print(std::cout);
  }

  // ---- A3: wire variability decomposition ----
  {
    Table t({"X_w model", "rms relative residual %"});
    t.add_row({"X_w0 + X_FI*V_d + X_FO*V_l (ours)",
               format_fixed(xw_variant_residual(charlib, true, true), 3)});
    t.add_row({"X_FI*V_d + X_FO*V_l (paper Eq. 7)",
               format_fixed(xw_variant_residual(charlib, true, false), 3)});
    t.add_row({"X_w0 only (no cell awareness)",
               format_fixed(xw_variant_residual(charlib, false, true), 3)});
    std::cout << "\nA3 — wire variability decomposition:\n";
    t.print(std::cout);
  }

  // ---- A4: MC waveform handoff vs equivalent ramps ----
  {
    const NSigmaTimer timer(charlib, cells, tech);
    GateNetlist nl = generate_iscas_like("C1355", cells);
    finalize_design(nl, cells, tech);
    const ParasiticDb spef = generate_parasitics(nl, tech);
    const auto analysis = timer.analyze(nl, spef);

    McConfig mcc;
    mcc.samples = scaled_samples(300, 1500);
    const PathMonteCarlo mc(tech);
    const auto with_waves = mc.run(analysis.critical_path, mcc);

    // Equivalent-ramp variant: strip wave handoff by running each stage
    // with its STA mean slew as an ideal ramp. Implemented by zeroing the
    // sink traces via a path whose stages are simulated independently —
    // here approximated by re-running MC on a copy where every stage's
    // input comes from a ramp (input_wave disabled inside the path MC is
    // equivalent to a 1-stage path per stage).
    double ramp_total_p3 = 0.0;
    double ramp_total_med = 0.0;
    for (const auto& st : analysis.critical_path.stages) {
      PathDescription single;
      single.stages.push_back(st);
      const auto r = mc.run(single, mcc);
      ramp_total_p3 += r.quantiles[6];
      ramp_total_med += r.quantiles[3];
    }
    Table t({"MC variant", "median (ps)", "+3s (ps)"});
    t.add_row({"stage-cascaded waveform handoff (golden)",
               format_fixed(to_ps(with_waves.quantiles[3]), 1),
               format_fixed(to_ps(with_waves.quantiles[6]), 1)});
    t.add_row({"independent ramp-driven stages (quantile sum)",
               format_fixed(to_ps(ramp_total_med), 1),
               format_fixed(to_ps(ramp_total_p3), 1)});
    std::cout << "\nA4 — stage decomposition of the golden MC (C1355 path, "
              << analysis.critical_path.num_stages() << " stages):\n";
    t.print(std::cout);
    std::cout << "Independent stages sum per-stage quantiles, losing the "
                 "slew/corner coupling the cascaded waveform carries.\n";

    // ---- A5: Eq. 10 quantile sum vs block-based Gaussian SSTA ----
    const NSigmaWireModel& wmod = timer.wire_model();
    Table t5({"analysis", "median (ps)", "+3s (ps)"});
    t5.add_row({"path-based N-sigma sum (paper Eq. 10)",
                format_fixed(to_ps(analysis.quantiles[3]), 1),
                format_fixed(to_ps(analysis.quantiles[6]), 1)});
    for (double rho : {0.2, 0.5, 0.8}) {
      AnalyticSstaOptions gauss;
      gauss.moment_shaping = false;
      gauss.die_to_die_share = rho;
      const auto r = AnalyticSsta(timer.cell_model(), wmod, tech, gauss)
                         .run(nl, spef);
      t5.add_row({"block Gaussian SSTA (rho=" + format_fixed(rho, 1) + ")",
                  format_fixed(to_ps(r.worst_po_quantiles[3]), 1),
                  format_fixed(to_ps(r.worst_po_quantiles[6]), 1)});
    }
    t5.add_row({"golden MC", format_fixed(to_ps(with_waves.quantiles[3]), 1),
                format_fixed(to_ps(with_waves.quantiles[6]), 1)});
    std::cout << "\nA5 — path-based quantile sum vs block-based Gaussian "
                 "SSTA (same design):\n";
    t5.print(std::cout);
    std::cout << "The quantile sum is exact for comonotone stages; Gaussian "
                 "SSTA captures averaging but drops the skew — the MC row "
                 "arbitrates.\n";
  }
  return 0;
}
