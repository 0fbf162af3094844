// Microbenchmarks (google-benchmark) for the performance-critical kernels:
// device evaluation, transient stepping, Elmore extraction and model
// evaluation — the terms behind the Table III runtime columns. Eight
// one-iteration sweeps follow them, registered as sweep/<stem>; each
// writes <stem>_perf.json to the working directory:
//   netmc_parallel    sharded netlist MC at 1-8 lanes plus a grain sweep
//   incremental_sta   per-edit incremental STA cost across cone sizes
//   netmc_checkpoint  netlist-MC checkpoint write/load/resume overhead
//   ssta_analytic     analytic SSTA vs 100k-sample MC across design sizes
//   analysis          certified interval propagation vs the nominal STA
//   flatgraph         flat-graph vs reference-walk STA at 100k-1M cells,
//                     plus StaEngine::run with and without parasitics
//   serve             nsdc_serve request throughput over a unix socket
//   dist              nsdc_dist worker sweep and kill/recovery merge
// Engine results are checked with the shared comparators of
// tests/same_bits.hpp (the analysis sweep memcmps its interval bounds
// itself). A failed gate (a result that is not bit-identical, the
// flat-graph 1.3x throughput gate, a non-OK serve response) marks its
// sweep as errored and the binary exits 1. Select with
// --benchmark_filter, e.g. --benchmark_filter=sweep/dist; the binary has
// no flags of its own.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "analysis/analysis.hpp"
#include "core/nsigma_cell.hpp"
#include "core/nsigma_wire.hpp"
#include "dist/bundle.hpp"
#include "dist/coordinator.hpp"
#include "net/client.hpp"
#include "netlist/designgen.hpp"
#include "netlist/flatgraph.hpp"
#include "parasitics/wiregen.hpp"
#include "pdk/cellgen.hpp"
#include "perfjson.hpp"
#include "reference_sta.hpp"
#include "same_bits.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "spice/transient.hpp"
#include "sta/annotate.hpp"
#include "sta/engine.hpp"
#include "sta/incremental.hpp"
#include "sta/netmc.hpp"
#include "sta/ssta_analytic.hpp"
#include "stats/regression.hpp"
#include "synthetic_charlib.hpp"
#include "util/rng.hpp"

namespace nsdc {
namespace {

void BM_MosEval(benchmark::State& state) {
  MosParams p;
  double vg = 0.1;
  for (auto _ : state) {
    vg = vg > 0.59 ? 0.1 : vg + 0.01;
    benchmark::DoNotOptimize(mos_eval(p, 0.6, vg, 0.0));
  }
}
BENCHMARK(BM_MosEval);

void BM_InverterTransient(benchmark::State& state) {
  const TechParams tech = TechParams::nominal28();
  const CellLibrary lib = CellLibrary::standard();
  for (auto _ : state) {
    Circuit ckt;
    const NodeId vdd = ckt.make_node();
    ckt.add_vsource(vdd, kGround, Pwl::constant(tech.vdd));
    ckt.set_initial_voltage(vdd, tech.vdd);
    const NodeId in = ckt.make_node();
    ckt.add_vsource(in, kGround, Pwl::ramp(20e-12, 0.0, tech.vdd, 10e-12));
    CellNetlister nl(tech);
    const NodeId ins[] = {in};
    const NodeId out = nl.instantiate(ckt, lib.by_name("INVx1"), ins, vdd,
                                      GlobalCorner::nominal(), nullptr);
    ckt.set_initial_voltage(out, tech.vdd);
    ckt.add_capacitor(out, kGround, 1.5e-15);
    TransientOptions opts;
    opts.tstop = 500e-12;
    benchmark::DoNotOptimize(run_transient(ckt, opts));
  }
}
BENCHMARK(BM_InverterTransient)->Unit(benchmark::kMillisecond);

void BM_ElmoreExtraction(benchmark::State& state) {
  const TechParams tech = TechParams::nominal28();
  const WireGenerator gen(tech);
  Rng rng(1);
  std::vector<std::string> pins;
  for (int i = 0; i < 6; ++i) pins.push_back("p" + std::to_string(i));
  const RcTree tree = gen.generate(rng, pins);
  for (auto _ : state) {
    for (const auto& sink : tree.sinks()) {
      benchmark::DoNotOptimize(tree.elmore(sink.node));
    }
  }
}
BENCHMARK(BM_ElmoreExtraction);

void BM_OlsFit(benchmark::State& state) {
  Rng rng(2);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(-1, 1);
    rows.push_back({1.0, x, x * x, x * x * x});
    y.push_back(1 + x + rng.normal(0, 0.1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(least_squares(rows, y, 1e-10));
  }
}
BENCHMARK(BM_OlsFit);

void BM_QuantileModelEval(benchmark::State& state) {
  // Evaluate the Table-I quantile expressions over calibrated moments —
  // the per-stage cost of the N-sigma timer.
  Moments m;
  m.mu = 80e-12;
  m.sigma = 20e-12;
  m.gamma = 0.9;
  m.kappa = 1.4;
  std::vector<Moments> ms(64, m);
  std::vector<std::array<double, 7>> qs;
  for (auto& mm : ms) {
    std::array<double, 7> q{};
    for (int lv = 0; lv < 7; ++lv) {
      q[static_cast<std::size_t>(lv)] = mm.mu + (lv - 3) * mm.sigma;
    }
    qs.push_back(q);
  }
  const auto coefs = TableICoefficients::fit(ms, qs);
  for (auto _ : state) {
    m.gamma += 1e-6;
    benchmark::DoNotOptimize(coefs.quantiles(m));
  }
}
BENCHMARK(BM_QuantileModelEval);

// ------------------------------------------------------------ sweeps ----

using perfjson::best_of;
using perfjson::Record;

/// What the sweeps share, built on first use: the fast synthetic charlibs
/// and the models fitted to them. make_charlib() covers NAND2x1/INVx1 (the
/// multipliers and the scale generators) and carries the wire MC
/// observations, so the wire model always fits from it;
/// make_full_charlib() covers every cell the random mapped designs use.
struct Inputs {
  TechParams tech = TechParams::nominal28();
  CellLibrary lib = CellLibrary::standard();
  CharLib charlib = testfix::make_charlib();
  CharLib full_charlib = testfix::make_full_charlib();
  NSigmaCellModel model = NSigmaCellModel::fit(charlib);
  NSigmaCellModel full_model = NSigmaCellModel::fit(full_charlib);
  NSigmaWireModel wire_model = NSigmaWireModel::fit(charlib, lib);
};

const Inputs& inputs() {
  static const Inputs in;
  return in;
}

/// The smallest array multiplier with at least `min_cells` cells.
GateNetlist smallest_multiplier(std::size_t min_cells,
                                const CellLibrary& lib) {
  for (int bits = 2;; ++bits) {
    GateNetlist nl = generate_array_multiplier(bits, lib);
    if (nl.num_cells() >= min_cells) return nl;
  }
}

/// Keeps a sweep's first failed gate: when `problem` is not empty and no
/// earlier gate failed, `failure` becomes "<where>: <problem>". Returns
/// whether `problem` is empty.
bool gate(std::string& failure, const std::string& where,
          const std::string& problem) {
  if (!problem.empty() && failure.empty()) failure = where + ": " + problem;
  return problem.empty();
}

/// Sharded netlist MC on MUL12 (1,428 cells) at 1/2/4/8 lanes, plus a
/// grain sweep at 4 lanes. Every run must reproduce the serial reference
/// bit for bit (the sampler's determinism contract).
std::string sweep_netmc_parallel(const Inputs& in, Record& rec) {
  const GateNetlist netlist = smallest_multiplier(1200, in.lib);
  const ParasiticDb parasitics = generate_parasitics(netlist, in.tech);
  const NetlistMonteCarlo mc(in.model, in.wire_model, in.tech);
  constexpr int kSamples = 512;
  const auto timed = [&](unsigned threads, std::size_t grain) {
    McConfig cfg;
    cfg.samples = kSamples;
    cfg.seed = 4242;
    cfg.threads = threads;
    cfg.exec.grain = grain;
    return best_of(3, [&] { return mc.run(netlist, parasitics, cfg); });
  };
  const auto serial = timed(1, 0);
  rec.fields({{"design", netlist.name()},
              {"cells", netlist.num_cells()},
              {"samples", kSamples},
              {"accum_blocks", NetlistMonteCarlo::kAccumBlocks},
              {"serial_seconds", serial.seconds}});
  std::string failure;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto [secs, got] = timed(threads, 0);
    const bool same = gate(failure, "threads=" + std::to_string(threads),
                           testfix::netmc_diff(got, serial.result));
    rec.row("runs", {{"threads", threads},
                     {"seconds", secs},
                     {"speedup", serial.seconds / secs},
                     {"bit_identical", same}});
  }
  // Chunks never go below ceil(blocks / lanes) blocks, so at 4 lanes a
  // grain of 8, 16 and 32 blocks gives 4, 2 and 1 chunks.
  const std::size_t blocks = NetlistMonteCarlo::kAccumBlocks;
  for (const std::size_t grain : {blocks / 4, blocks / 2, blocks}) {
    const auto [secs, got] = timed(4, grain);
    const bool same = gate(failure, "grain=" + std::to_string(grain),
                           testfix::netmc_diff(got, serial.result));
    rec.row("grain_sweep", {{"grain", grain},
                            {"threads", 4},
                            {"chunks", got.shards},
                            {"seconds", secs},
                            {"bit_identical", same}});
  }
  return failure;
}

/// Per-edit cost of the incremental engine versus a full re-run, across
/// cone sizes: retypes one cell per sampled level of MUL28 (8,260 cells).
/// A cell near the primary inputs has a large fanout cone, one near the
/// outputs a small one. Both engines run on one lane: the comparison is
/// algorithmic work (cone vs whole design), not lane scaling. Each update
/// must be bit-identical to a fresh full run of the edited netlist.
std::string sweep_incremental_sta(const Inputs& in, Record& rec) {
  GateNetlist netlist = smallest_multiplier(8000, in.lib);
  const ParasiticDb parasitics = generate_parasitics(netlist, in.tech);
  const std::size_t num_levels = netlist.levelization().levels.size();
  StaConfig cfg;
  cfg.exec.threads = 1;
  const StaEngine full_engine(in.model, in.tech, cfg);
  const double full_s =
      best_of(3, [&] { return full_engine.run(netlist, parasitics); })
          .seconds;
  IncrementalSta inc(in.model, in.tech, cfg);
  inc.bind(netlist, parasitics);
  rec.fields({{"design", netlist.name()},
              {"cells", netlist.num_cells()},
              {"levels", num_levels},
              {"full_run_seconds", full_s}});
  std::string failure;
  constexpr int kSampledLevels = 10;
  for (int s = 0; s < kSampledLevels; ++s) {
    const std::size_t level =
        static_cast<std::size_t>(s) * (num_levels - 1) / (kSampledLevels - 1);
    const int cell = netlist.levelization().levels[level].front();
    const CellType* orig = netlist.cell(cell).type;
    const CellType& bigger =
        in.lib.by_func(orig->func(), orig->strength() * 2);
    const double edit_s = best_of(1, [&] {
      netlist.set_cell_type(cell, bigger);
      inc.update();
    });
    const bool same =
        gate(failure, "level=" + std::to_string(level),
             testfix::sta_diff(inc.result(),
                               full_engine.run(netlist, parasitics)));
    rec.row("edits", {{"level", level},
                      {"cone_cells", inc.last_stats().cells_recomputed},
                      {"seconds", edit_s},
                      {"speedup_vs_full", full_s / edit_s},
                      {"bit_identical", same}});
    netlist.set_cell_type(cell, *orig);  // roll back for the next sample
    inc.update();
  }
  return failure;
}

/// Checkpoint overhead of the netlist MC on MUL12: baseline vs
/// checkpointed run (the per-block serialization + flush cost), file size,
/// load time, and the time a resumed run takes when every block is
/// already on disk. The resumed result must equal the baseline bit for
/// bit.
std::string sweep_netmc_checkpoint(const Inputs& in, Record& rec) {
  const GateNetlist netlist = smallest_multiplier(1200, in.lib);
  const ParasiticDb parasitics = generate_parasitics(netlist, in.tech);
  const std::string ck_path = "netmc_checkpoint_perf.ck";
  constexpr int kSamples = 512;
  McConfig cfg;
  cfg.samples = kSamples;
  cfg.seed = 4242;
  cfg.threads = 1;
  const auto timed = [&](const NetMcOptions& opt) {
    const NetlistMonteCarlo mc(in.model, in.wire_model, in.tech, opt);
    return best_of(3, [&] { return mc.run(netlist, parasitics, cfg); });
  };
  const auto base = timed({});
  NetMcOptions ck_opt;
  ck_opt.checkpoint_path = ck_path;
  const double ck_s = timed(ck_opt).seconds;
  std::error_code ec;
  const std::uintmax_t file_bytes = std::filesystem::file_size(ck_path, ec);
  const std::uintmax_t ck_bytes = ec ? 0 : file_bytes;
  const std::size_t n_blocks =
      std::min<std::size_t>(NetlistMonteCarlo::kAccumBlocks, kSamples);

  // Pure load cost of a complete checkpoint.
  const auto [load_s, data] = best_of(3, [&] {
    std::vector<Diagnostic> diags;
    return load_mc_checkpoint(ck_path, nullptr, &diags);
  });
  std::string failure;
  gate(failure, "load", data && data->blocks.size() == n_blocks
                            ? ""
                            : "fewer blocks than were written");

  // Resume with everything on disk: restore + re-append, no sampling.
  ck_opt.resume = true;
  const auto [resume_s, resumed] = timed(ck_opt);
  const bool same = gate(failure, "resume",
                         testfix::netmc_diff(resumed, base.result));
  std::remove(ck_path.c_str());
  rec.fields({{"design", netlist.name()},
              {"cells", netlist.num_cells()},
              {"samples", kSamples},
              {"blocks", n_blocks},
              {"baseline_seconds", base.seconds},
              {"checkpointed_seconds", ck_s},
              {"write_overhead_seconds", ck_s - base.seconds},
              {"write_overhead_per_block_seconds",
               (ck_s - base.seconds) / static_cast<double>(n_blocks)},
              {"checkpoint_bytes", ck_bytes},
              {"load_seconds", load_s},
              {"full_resume_seconds", resume_s},
              {"resume_byte_identical", same}});
  return failure;
}

/// Analytic four-moment SSTA vs the sharded netlist Monte Carlo across
/// design sizes: wall time on both sides (MC at the 100k-sample reference
/// count the acceptance contract uses), the speedup ratio, the worst
/// N-sigma quantile disagreement in sigma units, the analytic engine's
/// live arrival storage at its peak level barrier (peak_live_locals local
/// entries of 40 bytes), and its thread-count determinism: 4 lanes must
/// reproduce the serial result bit for bit.
std::string sweep_ssta_analytic(const Inputs& in, Record& rec) {
  constexpr int kMcSamples = 100000;
  rec.fields({{"mc_samples", kMcSamples}});
  std::string failure;
  for (const int target : {100, 250, 500, 2000, 4000}) {
    RandomNetlistSpec spec;
    spec.name = "ssta_sweep_" + std::to_string(target);
    spec.target_cells = target;
    spec.seed = 42;
    const GateNetlist netlist = generate_random_mapped(spec, in.lib);
    const ParasiticDb parasitics = generate_parasitics(netlist, in.tech);
    const auto engine = [&](unsigned threads) {
      AnalyticSstaOptions opt;
      opt.sta.exec.threads = threads;
      return AnalyticSsta(in.full_model, in.wire_model, in.tech, opt);
    };
    const AnalyticSsta serial = engine(1);
    const AnalyticSsta four = engine(4);
    const auto an = best_of(3, [&] { return serial.run(netlist, parasitics); });
    const auto an4 = best_of(3, [&] { return four.run(netlist, parasitics); });
    const bool same = gate(failure, netlist.name() + " 4 lanes",
                           testfix::ssta_diff(an4.result, an.result));

    const NetlistMonteCarlo mc(in.full_model, in.wire_model, in.tech);
    McConfig cfg;
    cfg.samples = kMcSamples;
    cfg.seed = 0x55A11;
    cfg.threads = 1;
    const auto [mc_s, mcr] =
        best_of(1, [&] { return mc.run(netlist, parasitics, cfg); });

    // Worst PO quantile disagreement, in units of that PO's sigma.
    double worst_dq = 0.0;
    for (std::size_t p = 0; p < mcr.po_nets.size(); ++p) {
      const double sig = mcr.po_moments[p].sigma;
      if (!(sig > 0.0)) continue;
      for (std::size_t l = 0; l < 7; ++l) {
        const double dq =
            std::abs(an.result.po_quantiles[p][l] - mcr.po_quantiles[p][l]);
        worst_dq = std::max(worst_dq, dq / sig);
      }
    }
    using Local = decltype(ssta::Arrival::local)::value_type;
    const double peak_live_mb =
        static_cast<double>(an.result.peak_live_locals * sizeof(Local)) /
        (1024.0 * 1024.0);
    rec.row("sweep", {{"design", netlist.name()},
                      {"cells", netlist.num_cells()},
                      {"levels", an.result.levels},
                      {"analytic_seconds", an.seconds},
                      {"analytic_seconds_4t", an4.seconds},
                      {"mc_seconds", mc_s},
                      {"speedup", mc_s / an.seconds},
                      {"worst_po_quantile_err_sigma", worst_dq},
                      {"peak_live_mb", peak_live_mb},
                      {"threads_byte_identical", same}});
  }
  return failure;
}

/// Cost of the certified interval propagation (nsdc_analyze's tentpole
/// pass) versus the nominal mean STA it brackets, across design sizes,
/// plus the 1-vs-4-lane byte identity of the propagated bounds.
std::string sweep_analysis(const Inputs& in, Record& rec) {
  std::string failure;
  for (const int target : {100, 500, 2000}) {
    RandomNetlistSpec spec;
    spec.name = "analysis_sweep_" + std::to_string(target);
    spec.target_cells = target;
    spec.seed = 42;
    const GateNetlist netlist = generate_random_mapped(spec, in.lib);
    const ParasiticDb parasitics = generate_parasitics(netlist, in.tech);

    StaConfig scfg;
    scfg.exec.threads = 1;
    const StaEngine sta(in.full_model, in.tech, scfg);
    const auto nominal =
        best_of(3, [&] { return sta.run(netlist, parasitics); });
    const FlatTimingGraph graph = FlatTimingGraph::compile(netlist);

    AnalysisInput input;
    input.netlist = &netlist;
    input.parasitics = &parasitics;
    input.cell_model = &in.full_model;
    input.wire_model = &in.wire_model;
    input.tech = &in.tech;
    const auto intervals = [&](unsigned threads) {
      AnalysisOptions opt;
      opt.exec.threads = threads;
      return propagate_intervals(input, opt, graph, nominal.result);
    };
    const auto iv = best_of(3, [&] { return intervals(1); });
    const IntervalResult piv = intervals(4);
    bool identical = piv.nets.size() == iv.result.nets.size();
    for (std::size_t n = 0; identical && n < piv.nets.size(); ++n) {
      const NetBounds& a = piv.nets[n];
      const NetBounds& b = iv.result.nets[n];
      identical = std::memcmp(&a.arrival, &b.arrival, sizeof a.arrival) == 0 &&
                  std::memcmp(&a.slew, &b.slew, sizeof a.slew) == 0;
    }
    gate(failure, netlist.name() + " 4 lanes",
         identical ? "" : "interval bounds differ");
    rec.row("sweep", {{"design", netlist.name()},
                      {"cells", netlist.num_cells()},
                      {"levels", iv.result.levels},
                      {"sta_seconds", nominal.seconds},
                      {"interval_seconds", iv.seconds},
                      {"cost_vs_sta", iv.seconds / nominal.seconds},
                      {"threads_byte_identical", identical}});
  }
  return failure;
}

/// Heap bytes in use, arena plus mmapped chunks, or 0 when the platform
/// has no mallinfo2 (the record then holds only the arena-accounted
/// footprint).
std::size_t heap_bytes_now() {
#if defined(__GLIBC__)
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
#else
  return 0;
#endif
}

/// Million-cell-scale throughput/memory gate for the compiled SoA timing
/// graph: StaEngine on the FlatTimingGraph versus the "legacy" column, the
/// tests' independent reference pass over the GateNetlist
/// (testfix::reference_sta_run), on ~100k / ~300k / ~1M-cell generated
/// designs. Records compile rate, nominal-STA cells/sec on both walks,
/// bytes/cell (flat arena accounting plus heap deltas for both
/// representations), and checks the flat results bit-identical to the
/// reference walk at 1 and 4 lanes. Fails when the flat path is not
/// >= 1.3x the reference walk's throughput on the largest design. A
/// parasitics-on member times the end-to-end StaEngine::run with RC trees
/// on the ~100k-cell design against the same call without them (the
/// on/off ratio), with the same identity checks.
std::string sweep_flatgraph(const Inputs& in, Record& rec) {
  // Size the parameterized generators to ~100k / ~300k / ~1M cells by
  // measuring one tile/stage and scaling the repeat count.
  const auto sized = [&](const std::string& kind, std::size_t target) {
    if (kind == "xbar") {
      return generate_wide_crossbar(144, 144, in.lib);  // ~103k cells
    }
    if (kind == "divchain") {
      const std::size_t per =
          generate_divider_chain(16, 1, in.lib).num_cells();
      const int stages = static_cast<int>((target + per - 1) / per);
      return generate_divider_chain(16, std::max(stages, 1), in.lib);
    }
    const std::size_t per =
        generate_tiled_multiplier_array(16, 1, in.lib).num_cells();
    const int tiles = static_cast<int>((target + per - 1) / per);
    return generate_tiled_multiplier_array(16, std::max(tiles, 1), in.lib);
  };
  // Best of 2 at `threads` lanes: StaEngine on `graph` (the end-to-end
  // run(netlist, db) when `graph` is null), or the reference walk.
  const auto timed = [&](bool flat, unsigned threads,
                         const GateNetlist& netlist, const ParasiticDb& db,
                         const FlatTimingGraph* graph) {
    StaConfig cfg;
    cfg.exec.threads = threads;
    const StaEngine engine(in.model, in.tech, cfg);
    return best_of(2, [&] {
      if (!flat) {
        return testfix::reference_sta_run(netlist, db, in.model, in.tech,
                                          cfg);
      }
      return graph != nullptr ? engine.run(*graph, netlist, db)
                              : engine.run(netlist, db);
    });
  };

  rec.fields({{"parasitics", "none (pin-cap loads)"}});
  std::string failure;
  double largest_speedup = 0.0;
  std::size_t largest_cells = 0;
  const std::pair<const char*, std::size_t> specs[] = {
      {"xbar", 100000}, {"divchain", 300000}, {"mul", 1000000}};
  for (const auto& [kind, target] : specs) {
    const GateNetlist netlist = sized(kind, target);
    // Empty parasitics: at this scale the annotate phase degrades to
    // pin-cap loads on both paths, keeping the measurement on the
    // propagation kernels.
    const ParasiticDb parasitics;
    netlist.levelization();
    const DesignStats st = design_stats(netlist);

    const std::size_t heap0 = heap_bytes_now();
    const auto [compile_s, graph] =
        best_of(1, [&] { return FlatTimingGraph::compile(netlist); });
    const std::size_t flat_heap = heap_bytes_now() - heap0;
    // Legacy representation footprint: heap delta of a deep copy of the
    // (levelized) netlist.
    std::size_t legacy_heap = 0;
    {
      const std::size_t before = heap_bytes_now();
      const GateNetlist copy = netlist;
      copy.levelization();
      legacy_heap = heap_bytes_now() - before;
    }

    const auto legacy1 = timed(false, 1, netlist, parasitics, &graph);
    const auto flat1 = timed(true, 1, netlist, parasitics, &graph);
    const auto legacy4 = timed(false, 4, netlist, parasitics, &graph);
    const auto flat4 = timed(true, 4, netlist, parasitics, &graph);
    const std::string name = netlist.name();
    const bool same =
        gate(failure, name + " flat vs legacy 1 lane",
             testfix::sta_diff(flat1.result, legacy1.result)) &&
        gate(failure, name + " flat vs legacy 4 lanes",
             testfix::sta_diff(flat4.result, legacy4.result)) &&
        gate(failure, name + " legacy 4 vs 1 lane",
             testfix::sta_diff(legacy4.result, legacy1.result));

    const double cells = static_cast<double>(netlist.num_cells());
    const double speedup = legacy1.seconds / flat1.seconds;
    if (netlist.num_cells() > largest_cells) {
      largest_cells = netlist.num_cells();
      largest_speedup = speedup;
    }
    rec.row("sweep",
            {{"design", name},
             {"cells", st.cells},
             {"nets", st.nets},
             {"max_level", st.max_level},
             {"avg_fanout", st.avg_fanout},
             {"compile_seconds", compile_s},
             {"compile_cells_per_sec", cells / compile_s},
             {"legacy_seconds", legacy1.seconds},
             {"flat_seconds", flat1.seconds},
             {"speedup", speedup},
             {"legacy_cells_per_sec", cells / legacy1.seconds},
             {"flat_cells_per_sec", cells / flat1.seconds},
             {"legacy_seconds_4t", legacy4.seconds},
             {"flat_seconds_4t", flat4.seconds},
             {"speedup_4t", legacy4.seconds / flat4.seconds},
             {"flat_bytes_per_cell",
              static_cast<double>(graph.memory_bytes()) / cells},
             {"flat_heap_bytes_per_cell",
              static_cast<double>(flat_heap) / cells},
             {"legacy_heap_bytes_per_cell",
              static_cast<double>(legacy_heap) / cells},
             {"bit_identical", same}});
  }

  // Parasitics on: the end-to-end StaEngine::run(netlist, parasitics)
  // (compile, annotate, bind, propagate) on the ~100k-cell TMUL with
  // generate_parasitics trees, and the reference walk, at 1 and 4 lanes,
  // next to the same call without parasitics. Recorded, not gated.
  {
    const GateNetlist netlist = sized("mul", 100000);
    const ParasiticDb parasitics = generate_parasitics(netlist, in.tech);
    const ParasiticDb none;
    netlist.levelization();
    std::size_t tree_nodes = 0;
    std::size_t sinks = 0;
    for (const auto& [net, tree] : parasitics.all()) {
      tree_nodes += static_cast<std::size_t>(tree.num_nodes());
      sinks += tree.sinks().size();
    }
    const auto e2e = [&](bool flat, unsigned threads, const ParasiticDb& db) {
      return timed(flat, threads, netlist, db, nullptr);
    };
    const auto off1 = e2e(true, 1, none);
    const auto flat1 = e2e(true, 1, parasitics);
    const auto legacy1 = e2e(false, 1, parasitics);
    const auto off4 = e2e(true, 4, none);
    const auto flat4 = e2e(true, 4, parasitics);
    const auto legacy4 = e2e(false, 4, parasitics);
    const bool same =
        gate(failure, "parasitics-on flat vs legacy 1 lane",
             testfix::sta_diff(flat1.result, legacy1.result)) &&
        gate(failure, "parasitics-on flat vs legacy 4 lanes",
             testfix::sta_diff(flat4.result, legacy4.result)) &&
        gate(failure, "parasitics-on flat 4 vs 1 lane",
             testfix::sta_diff(flat4.result, flat1.result)) &&
        gate(failure, "parasitics-off flat 4 vs 1 lane",
             testfix::sta_diff(off4.result, off1.result));
    rec.nested("parasitics_on",
               {{"design", netlist.name()},
                {"cells", netlist.num_cells()},
                {"tree_nodes", tree_nodes},
                {"sinks", sinks},
                {"off_flat_seconds", off1.seconds},
                {"flat_seconds", flat1.seconds},
                {"legacy_seconds", legacy1.seconds},
                {"off_flat_seconds_4t", off4.seconds},
                {"flat_seconds_4t", flat4.seconds},
                {"legacy_seconds_4t", legacy4.seconds},
                {"bit_identical", same}});
  }

  constexpr double kSpeedupGate = 1.3;
  rec.fields({{"largest_design_speedup", largest_speedup},
              {"speedup_gate", kSpeedupGate}});
  gate(failure, "largest design speedup " + std::to_string(largest_speedup),
       largest_speedup < kSpeedupGate ? "below the 1.3x gate" : "");
  return failure;
}

/// Requests/sec of the nsdc_serve daemon over a unix socket: baseline
/// arrival queries from one and from four concurrent clients, and a
/// stateful edit session streaming retype batches through IncrementalSta.
/// Every response must come back OK.
std::string sweep_serve(const Inputs& in, Record& rec) {
  RandomNetlistSpec spec;
  spec.name = "serve_perf";
  spec.target_cells = 1500;
  spec.seed = 42;
  GateNetlist netlist = generate_random_mapped(spec, in.lib);
  finalize_design(netlist, in.lib, in.tech);
  const ParasiticDb parasitics = generate_parasitics(netlist, in.tech);

  serve::ServiceRefs refs;
  refs.netlist = &netlist;
  refs.parasitics = &parasitics;
  refs.cell_library = &in.lib;
  refs.cell_model = &in.full_model;
  refs.wire_model = &in.wire_model;
  refs.tech = &in.tech;
  refs.charlib = &in.full_charlib;
  serve::Service service(refs);
  const std::string sock =
      (std::filesystem::temp_directory_path() / "nsdc_bench_serve.sock")
          .string();
  serve::Daemon daemon(net::Endpoint::unix_path(sock), service);
  std::thread runner([&] { daemon.run(); });

  const std::string po_name =
      netlist.net(service.baseline().critical_net).name;
  auto call_ok = [](net::Client& c, const std::string& req) {
    const std::string resp = c.call(req);
    net::WireReader r(resp);
    return serve::read_response_head(r).status == serve::Status::kOk;
  };
  bool ok = true;

  // Single client, baseline arrival queries (pure cache reads: the
  // round-trip cost is framing + dispatch, the figure of merit of the
  // transport layer).
  const int kQueries = 4000;
  const double arrival_s = best_of(1, [&] {
    net::Client client(daemon.endpoint());
    for (int i = 0; i < kQueries; ++i) {
      ok = call_ok(client, serve::make_arrival(static_cast<std::uint32_t>(i),
                                               po_name)) &&
           ok;
    }
  });

  // Four concurrent clients, same total request count: measures the
  // batching loop, not just one connection's turnaround.
  const int per_client = kQueries / 4;
  std::array<bool, 4> oks{true, true, true, true};
  const double arrival_4c_s = best_of(1, [&] {
    std::vector<std::thread> clients;
    for (int k = 0; k < 4; ++k) {
      clients.emplace_back([&, k] {
        net::Client client(daemon.endpoint());
        bool& mine = oks[static_cast<std::size_t>(k)];
        for (int i = 0; i < per_client; ++i) {
          mine = call_ok(client,
                         serve::make_arrival(
                             static_cast<std::uint32_t>(k * per_client + i),
                             po_name)) &&
                 mine;
        }
      });
    }
    for (auto& t : clients) t.join();
  });
  for (const bool o : oks) ok = ok && o;

  // Stateful edit session: each request retypes one cell (alternating
  // strengths) and runs the incremental update — requests/sec of the
  // journal -> IncrementalSta path including the timing answer.
  const int kEdits = 200;
  net::Client client(daemon.endpoint());
  const std::string open = client.call(serve::make_session_open(1));
  net::WireReader orr(open);
  ok = ok && serve::read_response_head(orr).status == serve::Status::kOk;
  const std::uint32_t session = orr.u32();
  const CellFunc func = netlist.cell(0).type->func();
  const double edit_s = best_of(1, [&] {
    for (int i = 0; i < kEdits; ++i) {
      serve::SessionEditRequest edit(static_cast<std::uint32_t>(100 + i),
                                     session);
      edit.set_cell_type(0, in.lib.by_func(func, (i % 2) != 0 ? 4 : 2).name());
      ok = call_ok(client, edit.take()) && ok;
    }
  });
  ok = call_ok(client, serve::make_session_close(2, session)) && ok;

  daemon.request_stop();
  runner.join();
  rec.fields({{"design", netlist.name()},
              {"cells", netlist.num_cells()},
              {"nets", netlist.num_nets()},
              {"transport", "unix socket, length-prefixed frames"},
              {"arrival_requests_per_sec", kQueries / arrival_s},
              {"arrival_requests_per_sec_4_clients",
               4.0 * per_client / arrival_4c_s},
              {"edit_session_requests_per_sec", kEdits / edit_s},
              {"requests_served", daemon.requests_served()},
              {"all_responses_ok", ok}});
  return ok ? "" : "a request returned a non-OK status";
}

/// Multi-process shard-coordinator sweep (src/dist): wall-clock of the
/// same netlist-MC run at 1/2/4 fork/exec'd workers versus the in-process
/// single-run reference, plus a recovery run with a SIGKILL injected
/// mid-shard (NSDC_FAULTS, inherited by the worker fleet) measuring the
/// retry/resume overhead. Every distributed run, the killed one included,
/// must merge bit-identical to the in-process reference.
std::string sweep_dist(const Inputs&, Record& rec) {
  dist::BundleSpec spec;  // MUL8: the shard tests' deterministic bundle
  spec.design = "mul";
  spec.size = 8;
  constexpr int kSamples = 256;
  constexpr std::uint64_t kSeed = 4242;
  const dist::DesignBundle bundle = dist::make_bundle(spec);
  const NetlistMonteCarlo mc(bundle.cell_model, bundle.wire_model,
                             bundle.tech);
  McConfig cfg;
  cfg.samples = kSamples;
  cfg.seed = kSeed;
  cfg.threads = 1;
  const auto local = best_of(
      1, [&] { return mc.run(bundle.netlist, bundle.parasitics, cfg); });
  rec.fields({{"design", bundle.netlist.name()},
              {"cells", bundle.netlist.num_cells()},
              {"samples", kSamples},
              {"in_process_seconds", local.seconds}});

  const auto run = [&](unsigned workers, const std::string& tag) {
    dist::DistOptions opt;
    opt.mode = "mc";
    opt.workers = workers;
    opt.shards = 8;
    opt.samples = kSamples;
    opt.seed = kSeed;
    opt.bundle = spec;
    opt.workdir = (std::filesystem::temp_directory_path() /
                   ("nsdc_bench_dist_" + std::to_string(::getpid()) + "_" +
                    tag))
                      .string();
    opt.worker_binary = std::string(NSDC_TOOL_DIR) + "/nsdc_dist";
    opt.worker_threads = 1;
    opt.retry.base_delay_s = 0.01;
    opt.retry.max_delay_s = 0.05;
    opt.heartbeat_ms = 20;
    auto timed = best_of(1, [&] { return dist::run_coordinator(opt); });
    std::filesystem::remove_all(opt.workdir);
    return timed;
  };
  const auto merge_diff = [&](const dist::DistResult& res) {
    return res.complete ? testfix::netmc_diff(res.mc, local.result)
                        : std::string("merge incomplete");
  };
  std::string failure;
  double one_worker_s = 0.0;
  for (const unsigned workers : {1u, 2u, 4u}) {
    const auto [secs, res] = run(workers, "w" + std::to_string(workers));
    if (workers == 1) one_worker_s = secs;
    const bool same = gate(failure, "workers=" + std::to_string(workers),
                           merge_diff(res));
    rec.row("runs", {{"workers", workers},
                     {"seconds", secs},
                     {"speedup_vs_1", one_worker_s / secs},
                     {"byte_identical", same}});
  }

  // Recovery overhead: SIGKILL one worker after accumulation block 2 of
  // attempt 0 (the NSDC_FAULTS plan travels to the fleet through the
  // inherited environment); the retried shard resumes from its checkpoint
  // and the merge must still be bit-identical.
  ::setenv("NSDC_FAULTS", "dist.worker.kill@2=throw", 1);
  const auto [killed_s, killed] = run(2, "kill");
  ::unsetenv("NSDC_FAULTS");
  const bool same = gate(failure, "recovery", merge_diff(killed));
  rec.nested("recovery", {{"workers", 2},
                          {"seconds", killed_s},
                          {"workers_lost", killed.workers_lost},
                          {"shard_retries", killed.shard_retries},
                          {"byte_identical", same}});
  return failure;
}

/// Set when any sweep's gate fails; main's exit code.
bool g_gate_failed = false;

/// One sweep: its record stem, the record's bench name and its body,
/// which fills the record and returns its first failed gate ("" = pass).
struct Sweep {
  const char* stem;
  const char* bench;
  std::string (*run)(const Inputs&, Record&);
};

const Sweep kSweeps[] = {
    {"netmc_parallel", "netmc_scaling", &sweep_netmc_parallel},
    {"incremental_sta", "incremental_scaling", &sweep_incremental_sta},
    {"netmc_checkpoint", "checkpoint_perf", &sweep_netmc_checkpoint},
    {"ssta_analytic", "ssta_sweep", &sweep_ssta_analytic},
    {"analysis", "analysis_perf", &sweep_analysis},
    {"flatgraph", "flatgraph_sweep", &sweep_flatgraph},
    {"serve", "serve_perf", &sweep_serve},
    {"dist", "dist_sweep", &sweep_dist},
};

/// Registers `sweep` as the one-iteration benchmark sweep/<stem>, which
/// writes <stem>_perf.json to the working directory.
void register_sweep(const Sweep& sweep) {
  benchmark::RegisterBenchmark(
      ("sweep/" + std::string(sweep.stem)).c_str(),
      [sweep](benchmark::State& state) {
        for (auto _ : state) {
          Record rec(sweep.bench);
          const std::string failure = sweep.run(inputs(), rec);
          rec.write(std::string(sweep.stem) + "_perf.json");
          if (!failure.empty()) {
            std::cerr << "[" << sweep.bench << "] ERROR: " << failure << "\n";
            g_gate_failed = true;
            state.SkipWithError(failure.c_str());
            break;
          }
        }
      })
      ->Iterations(1)
      ->Unit(benchmark::kSecond);
}

}  // namespace
}  // namespace nsdc

int main(int argc, char** argv) {
  for (const nsdc::Sweep& sweep : nsdc::kSweeps) nsdc::register_sweep(sweep);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  return nsdc::g_gate_failed ? 1 : 0;
}
