// End-to-end plumbing check: mini characterization -> model fits -> STA ->
// N-sigma path quantiles vs stage-cascaded MC on a small design.
//
// Usage: flow_smoke [--threads N] [--cells N] [--netmc N]
//                   [--lint | --lint-strict]
//                   [--checkpoint FILE] [--resume]
//                   [--deadline SECONDS] [--sample-budget N]
//   --threads N   worker lanes for every parallel region (characterization
//                 MC, STA, path MC, netlist MC). Defaults to the
//                 NSDC_THREADS env var, then hardware concurrency.
//   --cells N     target cell count of the generated smoke design.
//   --netmc N     after STA, run an N-sample whole-netlist Monte Carlo and
//                 print the worst-PO moments and empirical quantiles.
//   --ssta        run the analytic four-moment SSTA engine on the smoke
//                 design and print its peak live arrival storage, the
//                 worst-PO moments and N-sigma quantiles (with --netmc,
//                 side by side with the MC run).
//   --lint        run the nsdc_lint rules on the smoke design before timing
//                 and print the report.
//   --lint-strict same, but exit with the lint status when errors are found
//                 (gate mode for CI).
//   --analyze     run the static analysis passes (certified interval
//                 bounds, domain audit, structure checks) plus the
//                 cross-engine consistency gate on the smoke design; exit
//                 with the analysis status when errors are found.
//   --checkpoint FILE  stream completed netlist-MC blocks to FILE; a run
//                 killed mid-flight keeps every finished block on disk.
//   --resume      with --checkpoint: restore finished blocks from FILE and
//                 compute only the remainder (byte-identical to an
//                 uninterrupted run).
//   --deadline SECONDS  cancel the run cooperatively after this wall-clock
//                 budget (exit code 10; with --checkpoint the partial
//                 statistics are recovered and printed first).
//   --sample-budget N  cancel after N Monte-Carlo samples have been drawn.
//
// Exit codes: 0 success, 2 usage (unknown flag), 3 invalid argument value,
// 10 cancelled (deadline/budget), 11 parse error, 12 I/O error, 13 internal
// error; 1 reserved for the lint gate.
#include <cstdio>
#include <cstring>

#include "analysis/analysis.hpp"
#include "baselines/corner_sta.hpp"
#include "baselines/mc_reference.hpp"
#include "liberty/charlib.hpp"
#include "lint/lint.hpp"
#include "netlist/designgen.hpp"
#include "sta/annotate.hpp"
#include "sta/netmc.hpp"
#include "sta/ssta_analytic.hpp"
#include "sta/timer.hpp"
#include "util/argparse.hpp"
#include "util/cancel.hpp"
#include "util/errors.hpp"
#include "util/log.hpp"
#include "util/threading.hpp"
#include "util/units.hpp"

using namespace nsdc;

namespace {

/// After a cancelled checkpointed run: rebuild whatever statistics the
/// checkpoint holds and print them, so a deadline kill still reports the
/// completed blocks.
void print_partial_netmc(const std::string& checkpoint_path,
                         const GateNetlist& nl) {
  std::vector<Diagnostic> diags;
  const auto data = load_mc_checkpoint(checkpoint_path, nullptr, &diags);
  for (const auto& d : diags) {
    std::fprintf(stderr, "%s\n", format_diagnostic(d).c_str());
  }
  if (!data || data->blocks.empty()) {
    std::fprintf(stderr, "flow_smoke: no completed blocks to recover\n");
    return;
  }
  const auto part = NetlistMonteCarlo::partial_result(*data);
  std::printf("partial netlist MC: %llu of %llu samples in %zu block(s)\n",
              static_cast<unsigned long long>(part.samples_done),
              static_cast<unsigned long long>(data->header.samples),
              data->blocks.size());
  if (part.worst_po >= 0) {
    std::printf("partial worst PO %s: mu %.1f ps sigma %.2f ps\n",
                nl.net(part.worst_po).name.c_str(),
                to_ps(part.worst_po_moments.mu),
                to_ps(part.worst_po_moments.sigma));
  }
}

int tool_main(int argc, char** argv) {
  int target_cells = 120;
  int netmc_samples = 0;
  bool ssta = false;
  bool lint = false, lint_strict = false, analyze = false;
  std::string checkpoint_path;
  bool resume = false;
  double deadline_s = 0.0;
  long long sample_budget = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      set_default_threads(require_unsigned("--threads", argv[++i], 1, 1024));
    } else if (std::strcmp(argv[i], "--cells") == 0 && i + 1 < argc) {
      target_cells = static_cast<int>(
          require_integer("--cells", argv[++i], 1, 10'000'000));
    } else if (std::strcmp(argv[i], "--netmc") == 0 && i + 1 < argc) {
      netmc_samples = static_cast<int>(
          require_integer("--netmc", argv[++i], 1, 100'000'000));
    } else if (std::strcmp(argv[i], "--ssta") == 0) {
      ssta = true;
    } else if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--deadline") == 0 && i + 1 < argc) {
      deadline_s = require_real("--deadline", argv[++i], 1e-9, 1e9);
    } else if (std::strcmp(argv[i], "--sample-budget") == 0 && i + 1 < argc) {
      sample_budget = require_integer("--sample-budget", argv[++i], 1,
                                      1'000'000'000'000LL);
    } else if (std::strcmp(argv[i], "--lint") == 0) {
      lint = true;
    } else if (std::strcmp(argv[i], "--lint-strict") == 0) {
      lint = lint_strict = true;
    } else if (std::strcmp(argv[i], "--analyze") == 0) {
      analyze = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--cells N] [--netmc N] [--ssta] "
                   "[--lint | --lint-strict] [--analyze] [--checkpoint FILE] "
                   "[--resume] [--deadline S] [--sample-budget N]\n",
                   argv[0]);
      return 2;
    }
  }
  CancellationToken token;
  const bool use_token = deadline_s > 0.0 || sample_budget > 0;
  if (deadline_s > 0.0) token.set_timeout(deadline_s);
  if (sample_budget > 0) {
    token.set_sample_budget(static_cast<std::uint64_t>(sample_budget));
  }
  set_log_level(LogLevel::kInfo);
  std::printf("worker lanes: %u (pool: %u workers + caller)\n",
              default_threads(), global_pool().size());
  TechParams tech = TechParams::nominal28();
  CellLibrary cells = CellLibrary::standard();

  CharConfig cfg;
  cfg.grid_samples = 300;
  cfg.wire_samples = 200;
  cfg.slew_grid = {10e-12, 100e-12, 250e-12, 500e-12};
  cfg.load_grid_rel = {1.0, 6.0, 15.0, 30.0};

  std::printf("building mini charlib...\n");
  CharLib charlib = CharLib::build_or_load("flow_smoke_charlib.txt", tech,
                                           cells, cfg);
  std::printf("charlib: %zu arcs, %zu wire obs\n", charlib.arcs().size(),
              charlib.wire_observations().size());

  NSigmaTimer timer(charlib, cells, tech);
  std::printf("table1 R2 at +3s: %.4f  rmse %.3f ps\n",
              timer.cell_model().table1_fit_stats().r_squared[6],
              to_ps(timer.cell_model().table1_fit_stats().rmse[6]));
  std::printf("fo4 variability: %.3f, Xw(INVx2->NAND2x2)=%.3f\n",
              timer.wire_model().fo4_variability(),
              timer.wire_model().xw("INVx2", "NAND2x2"));

  RandomNetlistSpec spec;
  spec.name = "smoke";
  spec.target_cells = target_cells;
  spec.num_primary_inputs = 12;
  spec.target_depth = 12;
  GateNetlist nl = generate_random_mapped(spec, cells);
  finalize_design(nl, cells, tech);
  std::printf("netlist: %zu cells %zu nets depth %d\n", nl.num_cells(),
              nl.num_nets(), nl.depth());
  ParasiticDb spef = generate_parasitics(nl, tech);

  if (lint) {
    LintInput lin;
    lin.netlist = &nl;
    lin.parasitics = &spef;
    lin.charlib = &charlib;
    lin.cell_model = &timer.cell_model();
    lin.tech = &tech;
    const LintReport lrep = run_lint(lin);
    std::fputs(lrep.to_text().c_str(), stdout);
    if (lint_strict && lrep.count(Severity::kError) > 0) {
      std::fprintf(stderr, "flow_smoke: lint gate failed (%d error(s))\n",
                   lrep.count(Severity::kError));
      return lrep.exit_code();
    }
  }

  if (analyze) {
    AnalysisInput ain;
    ain.netlist = &nl;
    ain.parasitics = &spef;
    ain.charlib = &charlib;
    ain.cell_model = &timer.cell_model();
    ain.wire_model = &timer.wire_model();
    ain.tech = &tech;
    AnalysisOptions aopt;
    aopt.verify_engines = true;
    aopt.verify_samples = 500;  // gate depth: means stabilize fast
    if (use_token) aopt.exec.cancel = &token;
    const AnalysisReport arep = run_analysis(ain, aopt);
    std::fputs(arep.to_text().c_str(), stdout);
    if (arep.count(Severity::kError) > 0) {
      std::fprintf(stderr, "flow_smoke: analysis gate failed (%d error(s))\n",
                   arep.count(Severity::kError));
      return arep.exit_code();
    }
  }

  const auto analysis = timer.analyze(nl, spef);
  std::printf("critical path: %zu stages, mean arrival %.1f ps, model %.4f s\n",
              analysis.critical_path.num_stages(),
              to_ps(analysis.mean_arrival), analysis.runtime_seconds);
  std::printf("N-sigma quantiles (ps):");
  for (double q : analysis.quantiles) std::printf(" %.1f", to_ps(q));
  std::printf("\n");

  CornerSta pt(timer.cell_model());
  const auto ptq = pt.path_quantiles(analysis.critical_path);
  std::printf("corner-STA +3s: %.1f ps\n", to_ps(ptq[6]));

  if (netmc_samples > 0) {
    NetMcOptions nopt;
    nopt.checkpoint_path = checkpoint_path;
    nopt.resume = resume;
    const NetlistMonteCarlo netmc(timer.cell_model(), timer.wire_model(),
                                  tech, nopt);
    McConfig nmc;
    nmc.samples = netmc_samples;
    if (use_token) nmc.exec.cancel = &token;
    NetlistMonteCarlo::Result nr;
    try {
      nr = netmc.run(nl, spef, nmc);
    } catch (const CancelledError& e) {
      std::fprintf(stderr, "flow_smoke: netlist MC cancelled: %s\n",
                   e.what());
      if (!checkpoint_path.empty()) print_partial_netmc(checkpoint_path, nl);
      throw;
    }
    for (const auto& d : nr.diagnostics) {
      std::fprintf(stderr, "%s\n", format_diagnostic(d).c_str());
    }
    std::printf("netlist MC: %d samples over %zu POs in %u shard(s), "
                "runtime %.2fs\n",
                netmc_samples, nr.po_nets.size(), nr.shards,
                nr.runtime_seconds);
    if (nr.blocks_resumed > 0) {
      std::printf("netlist MC: resumed %llu block(s) from %s\n",
                  static_cast<unsigned long long>(nr.blocks_resumed),
                  checkpoint_path.c_str());
    }
    if (nr.total_quarantined > 0) {
      std::printf("netlist MC: quarantined %llu non-finite sample value(s)\n",
                  static_cast<unsigned long long>(nr.total_quarantined));
    }
    if (nr.worst_po >= 0) {
      std::printf("worst PO %s: mu %.1f ps sigma %.2f ps gamma %.2f "
                  "kappa %.2f\n",
                  nl.net(nr.worst_po).name.c_str(),
                  to_ps(nr.worst_po_moments.mu),
                  to_ps(nr.worst_po_moments.sigma), nr.worst_po_moments.gamma,
                  nr.worst_po_moments.kappa);
      std::printf("worst PO quantiles (ps):");
      for (double q : nr.worst_po_quantiles) std::printf(" %.1f", to_ps(q));
      std::printf("\ncircuit max quantiles (ps):");
      for (double q : nr.circuit_quantiles) std::printf(" %.1f", to_ps(q));
      std::printf("\n");
    }
  }

  if (ssta) {
    AnalyticSstaOptions sopt;
    if (use_token) sopt.sta.exec.cancel = &token;
    const AnalyticSsta engine(timer.cell_model(), timer.wire_model(), tech,
                              sopt);
    const auto sr = engine.run(nl, spef);
    const double peak_live_mb =
        static_cast<double>(sr.peak_live_locals *
                            sizeof(decltype(ssta::Arrival::local)::value_type)) /
        (1024.0 * 1024.0);
    std::printf("analytic SSTA: %zu POs, %zu levels, runtime %.4fs, "
                "peak live arrivals %.2f MB\n",
                sr.po_nets.size(), sr.levels, sr.runtime_seconds,
                peak_live_mb);
    if (sr.worst_po >= 0) {
      std::printf("SSTA worst PO %s: mu %.1f ps sigma %.2f ps gamma %.2f "
                  "kappa %.2f\n",
                  nl.net(sr.worst_po).name.c_str(),
                  to_ps(sr.worst_po_moments.mu),
                  to_ps(sr.worst_po_moments.sigma), sr.worst_po_moments.gamma,
                  sr.worst_po_moments.kappa);
      std::printf("SSTA worst PO quantiles (ps):");
      for (double q : sr.worst_po_quantiles) std::printf(" %.1f", to_ps(q));
      std::printf("\nSSTA circuit max quantiles (ps):");
      for (double q : sr.circuit_quantiles) std::printf(" %.1f", to_ps(q));
      std::printf("\n");
    }
  }

  McConfig mcc;
  mcc.samples = 250;
  if (use_token) mcc.exec.cancel = &token;
  PathMonteCarlo mc(tech);
  const auto mcr = mc.run(analysis.critical_path, mcc);
  std::printf("MC: n=%zu fail=%d quarantined=%llu, runtime %.1fs\n",
              mcr.samples.size(), mcr.failures,
              static_cast<unsigned long long>(mcr.quarantined),
              mcr.runtime_seconds);
  std::printf("MC quantiles (ps):");
  for (double q : mcr.quantiles) std::printf(" %.1f", to_ps(q));
  std::printf("\n");
  // Per-stage diagnosis: model vs MC cell quantiles at -2s/0/+2s.
  PathDelayCalculator calc(timer.cell_model(), timer.wire_model());
  const auto stages = calc.breakdown(analysis.critical_path);
  std::printf("stage  cell model(-2/0/+2)   cell MC(-2/0/+2)   wireM(0)  wireMC(0) slewin load cell\n");
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const auto& st = analysis.critical_path.stages[s];
    std::printf(
        "%2zu  %7.1f %7.1f %7.1f  %7.1f %7.1f %7.1f  %7.1f %7.1f  %5.0f %5.2f %s\n",
        s, to_ps(stages[s].cell[1]), to_ps(stages[s].cell[3]),
        to_ps(stages[s].cell[5]), to_ps(mcr.stage_cell_quantiles[s][1]),
        to_ps(mcr.stage_cell_quantiles[s][3]),
        to_ps(mcr.stage_cell_quantiles[s][5]), to_ps(stages[s].wire[3]),
        to_ps(mcr.stage_wire_quantiles[s][3]), to_ps(st.input_slew),
        to_ff(st.output_load), st.cell->name().c_str());
  }

  const double e3p = 100.0 * (analysis.quantiles[6] - mcr.quantiles[6]) /
                     mcr.quantiles[6];
  const double e3m = 100.0 * (analysis.quantiles[0] - mcr.quantiles[0]) /
                     mcr.quantiles[0];
  const double ept = 100.0 * (ptq[6] - mcr.quantiles[6]) / mcr.quantiles[6];
  std::printf("errors vs MC: ours +3s %.1f%%, -3s %.1f%%; PT +3s %.1f%%\n",
              e3p, e3m, ept);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return tool_main(argc, argv);
  } catch (...) {
    return handle_tool_exception("flow_smoke");
  }
}
