// Microbenchmarks (google-benchmark) for the performance-critical kernels:
// device evaluation, transient stepping, Elmore extraction and model
// evaluation — the terms behind the Table III runtime columns. The custom
// main() additionally runs serial-vs-parallel scaling measurements for the
// levelized STA engine (sta_parallel_perf.json, skip with --no_sta_scaling),
// the sharded netlist Monte Carlo including a grain sweep
// (netmc_parallel_perf.json, skip with --no_netmc_scaling), the
// per-edit cost of the incremental STA engine across fanout-cone sizes
// (incremental_sta_perf.json, skip with --no_incremental_scaling), the
// write/restore overhead of the netlist-MC checkpoint layer
// (netmc_checkpoint_perf.json, skip with --no_checkpoint_perf), the
// certified interval propagation versus the nominal STA it brackets
// (analysis_perf.json, skip with --no_analysis_perf), the
// analytic-SSTA-vs-Monte-Carlo sweep across design sizes
// (ssta_analytic_perf.json, skip with --no_ssta_sweep), and the
// flat-SoA-graph vs legacy-netlist STA throughput/memory gate at 100k-1M
// cells (flatgraph_perf.json, skip with --no_flatgraph_sweep), the
// nsdc_serve daemon's request throughput over a unix socket
// (serve_perf.json, skip with --no_serve_perf), and the multi-process
// shard-coordinator worker sweep with its kill/recovery byte-identity
// gate (dist_perf.json, skip with --no_dist_sweep). Every JSON
// record opens with the shared perfjson envelope (schema_version + host).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "analysis/analysis.hpp"
#include "dist/bundle.hpp"
#include "dist/coordinator.hpp"
#include "net/client.hpp"
#include "netlist/flatgraph.hpp"
#include "perfjson.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "core/nsigma_cell.hpp"
#include "netlist/designgen.hpp"
#include "parasitics/wiregen.hpp"
#include "pdk/cellgen.hpp"
#include "spice/transient.hpp"
#include "core/nsigma_wire.hpp"
#include "sta/annotate.hpp"
#include "sta/engine.hpp"
#include "sta/incremental.hpp"
#include "sta/netmc.hpp"
#include "sta/ssta_analytic.hpp"
#include "reference_sta.hpp"
#include "stats/regression.hpp"
#include "synthetic_charlib.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"

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
    const NodeId vdd = ckt.make_node("vdd");
    ckt.add_vsource(vdd, kGround, Pwl::constant(tech.vdd));
    ckt.set_initial_voltage(vdd, tech.vdd);
    const NodeId in = ckt.make_node("in");
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

// ------------------------------------------- parallel STA scaling -------

/// Serial-vs-parallel wall-clock for the levelized STA engine on a
/// generated ≥5k-cell design, at 1/2/4/8 worker lanes. Emits a JSON perf
/// record and verifies every parallel run is bit-identical to the serial
/// reference (the engine's determinism contract).
int run_sta_scaling(const std::string& json_path) {
  using clock = std::chrono::steady_clock;
  const TechParams tech = TechParams::nominal28();
  const CellLibrary lib = CellLibrary::standard();
  // NAND2x1/INVx1-only structural design, so the fast synthetic
  // characterization covers every arc (full characterization takes
  // minutes and measures the same engine code).
  const CharLib charlib = testfix::make_charlib();
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);

  int bits = 28;
  GateNetlist netlist = generate_array_multiplier(bits, lib);
  while (netlist.num_cells() < 5000 && bits < 64) {
    netlist = generate_array_multiplier(++bits, lib);
  }
  const ParasiticDb parasitics = generate_parasitics(netlist, tech);
  std::cerr << "[sta-scaling] design MUL" << bits << ": "
            << netlist.num_cells() << " cells, "
            << netlist.levelization().levels.size() << " levels, machine has "
            << default_threads() << " hardware lane(s)\n";

  auto time_run = [&](unsigned threads, StaEngine::Result* out) {
    StaConfig cfg;
    cfg.exec.threads = threads;
    cfg.min_parallel_cells = threads > 1 ? 1 : netlist.num_cells() + 1;
    const StaEngine engine(model, tech, cfg);
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = clock::now();
      auto res = engine.run(netlist, parasitics);
      const auto t1 = clock::now();
      best = std::min(best,
                      std::chrono::duration<double>(t1 - t0).count());
      if (out) *out = std::move(res);
    }
    return best;
  };

  StaEngine::Result ref;
  const double serial_s = time_run(1, &ref);

  std::ofstream json(json_path);
  perfjson::open_envelope(json, "sta_scaling");
  json << ",\n  \"design\": \"" << netlist.name() << "\",\n"
       << "  \"cells\": " << netlist.num_cells() << ",\n"
       << "  \"levels\": " << netlist.levelization().levels.size() << ",\n"
       << "  \"serial_seconds\": " << serial_s << ",\n"
       << "  \"runs\": [";
  bool first = true;
  bool all_identical = true;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    StaEngine::Result got;
    const double secs = time_run(threads, &got);
    bool identical = got.nets.size() == ref.nets.size() &&
                     got.max_arrival == ref.max_arrival;
    for (std::size_t n = 0; identical && n < ref.nets.size(); ++n) {
      identical =
          std::memcmp(&got.nets[n].arrival, &ref.nets[n].arrival,
                      sizeof(ref.nets[n].arrival)) == 0 &&
          std::memcmp(&got.nets[n].slew, &ref.nets[n].slew,
                      sizeof(ref.nets[n].slew)) == 0;
    }
    all_identical = all_identical && identical;
    json << (first ? "" : ",") << "\n    {\"threads\": " << threads
         << ", \"seconds\": " << secs
         << ", \"speedup\": " << serial_s / secs
         << ", \"bit_identical\": " << (identical ? "true" : "false") << "}";
    first = false;
    std::cerr << "[sta-scaling] threads=" << threads << "  " << secs * 1e3
              << " ms  speedup=" << serial_s / secs
              << (identical ? "" : "  MISMATCH") << "\n";
  }
  json << "\n  ]\n}\n";
  std::cerr << "[sta-scaling] wrote " << json_path << "\n";
  if (!all_identical) {
    std::cerr << "[sta-scaling] ERROR: parallel result diverged from "
                 "serial reference\n";
    return 1;
  }
  return 0;
}

// ------------------------------------------- parallel netlist-MC scaling

/// Byte equality of every statistic in two netlist-MC results: per
/// net-edge moments and counts, quarantine counters, the retained endpoint
/// samples and the endpoint statistics. Run bookkeeping (shards, runtime,
/// diagnostics, blocks_resumed) may differ.
bool same_netmc_result(const NetlistMonteCarlo::Result& a,
                       const NetlistMonteCarlo::Result& b) {
  const auto same = [](const auto& x, const auto& y) {
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  };
  const auto same_vec = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
  };
  if (!same_vec(a.nets, b.nets) || !same_vec(a.quarantined, b.quarantined) ||
      !same_vec(a.po_nets, b.po_nets) ||
      a.po_samples.size() != b.po_samples.size() ||
      !same_vec(a.po_moments, b.po_moments) ||
      !same_vec(a.po_quantiles, b.po_quantiles) ||
      !same_vec(a.circuit_samples, b.circuit_samples) ||
      !same(a.circuit_moments, b.circuit_moments) ||
      !same(a.circuit_quantiles, b.circuit_quantiles) ||
      a.worst_po != b.worst_po ||
      !same(a.worst_po_moments, b.worst_po_moments) ||
      !same(a.worst_po_quantiles, b.worst_po_quantiles) ||
      a.total_quarantined != b.total_quarantined ||
      a.samples_done != b.samples_done) {
    return false;
  }
  for (std::size_t p = 0; p < a.po_samples.size(); ++p) {
    if (!same_vec(a.po_samples[p], b.po_samples[p])) return false;
  }
  return true;
}

/// Serial-vs-parallel wall-clock for the sharded netlist Monte Carlo on a
/// generated ≥1k-cell design at 1/2/4/8 worker lanes, plus a grain sweep.
/// Every parallel and every grain configuration must reproduce the serial
/// reference byte-for-byte (the sampler's determinism contract); the JSON
/// perf record lands in netmc_parallel_perf.json.
int run_netmc_scaling(const std::string& json_path) {
  using clock = std::chrono::steady_clock;
  const TechParams tech = TechParams::nominal28();
  const CellLibrary lib = CellLibrary::standard();
  const CharLib charlib = testfix::make_charlib();
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);
  const NSigmaWireModel wire_model = NSigmaWireModel::fit(charlib, lib);

  int bits = 12;
  GateNetlist netlist = generate_array_multiplier(bits, lib);
  while (netlist.num_cells() < 1000 && bits < 64) {
    netlist = generate_array_multiplier(++bits, lib);
  }
  const ParasiticDb parasitics = generate_parasitics(netlist, tech);
  std::cerr << "[netmc-scaling] design MUL" << bits << ": "
            << netlist.num_cells() << " cells, machine has "
            << default_threads() << " hardware lane(s)\n";

  const NetlistMonteCarlo mc(model, wire_model, tech);
  constexpr int kSamples = 512;
  auto timed = [&](unsigned threads, std::size_t grain,
                   NetlistMonteCarlo::Result* out) {
    McConfig cfg;
    cfg.samples = kSamples;
    cfg.seed = 4242;
    cfg.threads = threads;
    cfg.exec.grain = grain;
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = clock::now();
      auto res = mc.run(netlist, parasitics, cfg);
      best = std::min(best, std::chrono::duration<double>(
                                clock::now() - t0).count());
      if (out) *out = std::move(res);
    }
    return best;
  };

  NetlistMonteCarlo::Result ref;
  const double serial_s = timed(1, 0, &ref);

  std::ofstream json(json_path);
  perfjson::open_envelope(json, "netmc_scaling");
  json << ",\n  \"design\": \"" << netlist.name() << "\",\n"
       << "  \"cells\": " << netlist.num_cells() << ",\n"
       << "  \"samples\": " << kSamples << ",\n"
       << "  \"accum_blocks\": " << NetlistMonteCarlo::kAccumBlocks << ",\n"
       << "  \"serial_seconds\": " << serial_s << ",\n"
       << "  \"runs\": [";
  bool first = true;
  bool all_identical = true;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    NetlistMonteCarlo::Result got;
    const double secs = timed(threads, 0, &got);
    const bool same = same_netmc_result(got, ref);
    all_identical = all_identical && same;
    json << (first ? "" : ",") << "\n    {\"threads\": " << threads
         << ", \"seconds\": " << secs
         << ", \"speedup\": " << serial_s / secs
         << ", \"bit_identical\": " << (same ? "true" : "false") << "}";
    first = false;
    std::cerr << "[netmc-scaling] threads=" << threads << "  " << secs * 1e3
              << " ms  speedup=" << serial_s / secs
              << (same ? "" : "  MISMATCH") << "\n";
  }
  // Chunks never go below ceil(blocks / lanes) blocks, so at 4 lanes a
  // grain of 8, 16 and 32 blocks gives 4, 2 and 1 chunks.
  json << "\n  ],\n  \"grain_sweep\": [";
  first = true;
  const std::size_t blocks = NetlistMonteCarlo::kAccumBlocks;
  for (const std::size_t grain : {blocks / 4, blocks / 2, blocks}) {
    NetlistMonteCarlo::Result got;
    const double secs = timed(4, grain, &got);
    const bool same = same_netmc_result(got, ref);
    all_identical = all_identical && same;
    json << (first ? "" : ",") << "\n    {\"grain\": " << grain
         << ", \"threads\": 4, \"chunks\": " << got.shards
         << ", \"seconds\": " << secs
         << ", \"bit_identical\": " << (same ? "true" : "false") << "}";
    first = false;
    std::cerr << "[netmc-scaling] grain=" << grain << " threads=4 chunks="
              << got.shards << "  " << secs * 1e3 << " ms"
              << (same ? "" : "  MISMATCH") << "\n";
  }
  json << "\n  ]\n}\n";
  std::cerr << "[netmc-scaling] wrote " << json_path << "\n";
  if (!all_identical) {
    std::cerr << "[netmc-scaling] ERROR: sharded result diverged from "
                 "serial reference\n";
    return 1;
  }
  return 0;
}

// --------------------------------------------- analytic SSTA sweep ------

/// Analytic four-moment SSTA vs the sharded netlist Monte Carlo across
/// design sizes: wall time on both sides (MC at the 100k-sample reference
/// count the acceptance contract uses), the speedup ratio, worst-case
/// N-sigma quantile disagreement in sigma units, the analytic engine's
/// live arrival storage at its peak level barrier (peak_live_locals local
/// entries of 40 bytes), and its thread-count determinism (1 vs 4 lanes
/// byte-identical). The JSON perf record lands in ssta_analytic_perf.json.
int run_ssta_sweep(const std::string& json_path) {
  using clock = std::chrono::steady_clock;
  const TechParams tech = TechParams::nominal28();
  const CellLibrary lib = CellLibrary::standard();
  // Random mapped designs draw from the full cell library, so the cell
  // model fits the full synthetic charlib; only make_charlib() carries
  // wire MC observations, so the wire model always fits from it.
  const NSigmaCellModel model =
      NSigmaCellModel::fit(testfix::make_full_charlib());
  const NSigmaWireModel wire_model =
      NSigmaWireModel::fit(testfix::make_charlib(), lib);
  constexpr int kMcSamples = 100000;

  std::ofstream json(json_path);
  perfjson::open_envelope(json, "ssta_sweep");
  json << ",\n  \"mc_samples\": " << kMcSamples << ",\n"
       << "  \"sweep\": [";
  bool first = true;
  bool ok = true;
  for (const int target : {100, 250, 500, 2000, 4000}) {
    RandomNetlistSpec spec;
    spec.name = "ssta_sweep_" + std::to_string(target);
    spec.target_cells = target;
    spec.seed = 42;
    const GateNetlist netlist = generate_random_mapped(spec, lib);
    const ParasiticDb parasitics = generate_parasitics(netlist, tech);

    AnalyticSstaOptions aopt;
    aopt.sta.exec.threads = 1;
    const AnalyticSsta engine(model, wire_model, tech, aopt);
    AnalyticSsta::Result an;
    double an_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = clock::now();
      an = engine.run(netlist, parasitics);
      an_s = std::min(an_s,
                      std::chrono::duration<double>(clock::now() - t0).count());
    }

    // Determinism: 4 worker lanes must reproduce the serial run exactly.
    AnalyticSstaOptions popt;
    popt.sta.exec.threads = 4;
    const AnalyticSsta par_engine(model, wire_model, tech, popt);
    const auto par = par_engine.run(netlist, parasitics);
    bool identical = par.nets.size() == an.nets.size();
    for (std::size_t n = 0; identical && n < an.nets.size(); ++n) {
      for (std::size_t e = 0; e < 2; ++e) {
        identical = std::memcmp(&par.nets[n][e].moments,
                                &an.nets[n][e].moments, sizeof(Moments)) == 0;
        if (!identical) break;
      }
    }
    ok = ok && identical;

    const NetlistMonteCarlo mc(model, wire_model, tech);
    McConfig cfg;
    cfg.samples = kMcSamples;
    cfg.seed = 0x55A11;
    cfg.threads = 1;
    const auto t0 = clock::now();
    const auto mcr = mc.run(netlist, parasitics, cfg);
    const double mc_s =
        std::chrono::duration<double>(clock::now() - t0).count();

    const double peak_live_mb =
        static_cast<double>(an.peak_live_locals *
                            sizeof(decltype(ssta::Arrival::local)::value_type)) /
        (1024.0 * 1024.0);

    // Worst PO quantile disagreement, in units of that PO's sigma.
    double worst_dq = 0.0;
    for (std::size_t p = 0; p < mcr.po_nets.size(); ++p) {
      const double sig = mcr.po_moments[p].sigma;
      if (!(sig > 0.0)) continue;
      for (std::size_t l = 0; l < 7; ++l) {
        worst_dq = std::max(worst_dq,
                            std::abs(an.po_quantiles[p][l] -
                                     mcr.po_quantiles[p][l]) / sig);
      }
    }

    json << (first ? "" : ",") << "\n    {\"design\": \"" << netlist.name()
         << "\", \"cells\": " << netlist.num_cells()
         << ", \"levels\": " << an.levels
         << ", \"analytic_seconds\": " << an_s
         << ", \"mc_seconds\": " << mc_s
         << ", \"speedup\": " << mc_s / an_s
         << ", \"worst_po_quantile_err_sigma\": " << worst_dq
         << ", \"peak_live_mb\": " << peak_live_mb
         << ", \"threads_byte_identical\": " << (identical ? "true" : "false")
         << "}";
    first = false;
    std::cerr << "[ssta-sweep] " << netlist.name() << ": "
              << netlist.num_cells() << " cells  analytic " << an_s * 1e3
              << " ms  mc " << mc_s << " s  speedup " << mc_s / an_s
              << "  worst dq " << worst_dq << " sigma  peak live "
              << peak_live_mb << " MB"
              << (identical ? "" : "  MISMATCH") << "\n";
  }
  json << "\n  ]\n}\n";
  std::cerr << "[ssta-sweep] wrote " << json_path << "\n";
  if (!ok) {
    std::cerr << "[ssta-sweep] ERROR: parallel analytic result diverged "
                 "from serial reference\n";
    return 1;
  }
  return 0;
}

// --------------------------------------------- netlist-MC checkpoints ---

/// Checkpoint overhead of the netlist MC: baseline vs checkpointed run
/// (the per-block serialization + flush cost), checkpoint file size, load
/// time, and the time a resumed run takes when every block is already on
/// disk. The resumed result must equal the baseline byte for byte.
/// Written to netmc_checkpoint_perf.json.
int run_checkpoint_perf(const std::string& json_path) {
  using clock = std::chrono::steady_clock;
  const TechParams tech = TechParams::nominal28();
  const CellLibrary lib = CellLibrary::standard();
  const CharLib charlib = testfix::make_charlib();
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);
  const NSigmaWireModel wire_model = NSigmaWireModel::fit(charlib, lib);

  int bits = 12;
  GateNetlist netlist = generate_array_multiplier(bits, lib);
  while (netlist.num_cells() < 1000 && bits < 64) {
    netlist = generate_array_multiplier(++bits, lib);
  }
  const ParasiticDb parasitics = generate_parasitics(netlist, tech);
  const std::string ck_path = "netmc_checkpoint_perf.ck";
  constexpr int kSamples = 512;
  std::cerr << "[checkpoint-perf] design MUL" << bits << ": "
            << netlist.num_cells() << " cells, " << kSamples << " samples\n";

  McConfig cfg;
  cfg.samples = kSamples;
  cfg.seed = 4242;
  cfg.threads = 1;

  auto timed = [&](const NetMcOptions& opt, NetlistMonteCarlo::Result* out) {
    const NetlistMonteCarlo mc(model, wire_model, tech, opt);
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = clock::now();
      auto res = mc.run(netlist, parasitics, cfg);
      best = std::min(best, std::chrono::duration<double>(
                                clock::now() - t0).count());
      if (out) *out = std::move(res);
    }
    return best;
  };

  NetlistMonteCarlo::Result base_res;
  const double base_s = timed({}, &base_res);

  NetMcOptions ck_opt;
  ck_opt.checkpoint_path = ck_path;
  NetlistMonteCarlo::Result ck_res;
  const double ck_s = timed(ck_opt, &ck_res);

  std::uintmax_t ck_bytes = 0;
  {
    std::error_code ec;
    ck_bytes = std::filesystem::file_size(ck_path, ec);
    if (ec) ck_bytes = 0;
  }
  const std::size_t n_blocks =
      std::min<std::size_t>(NetlistMonteCarlo::kAccumBlocks, kSamples);

  // Pure load cost of a complete checkpoint.
  double load_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<Diagnostic> diags;
    const auto t0 = clock::now();
    const auto data = load_mc_checkpoint(ck_path, nullptr, &diags);
    load_s = std::min(load_s, std::chrono::duration<double>(
                                  clock::now() - t0).count());
    if (!data || data->blocks.size() != n_blocks) {
      std::cerr << "[checkpoint-perf] FAIL: load returned "
                << (data ? data->blocks.size() : 0) << " of " << n_blocks
                << " blocks\n";
      return 1;
    }
  }

  // Resume with everything on disk: restore + re-append, no sampling.
  ck_opt.resume = true;
  NetlistMonteCarlo::Result resumed;
  const double resume_s = timed(ck_opt, &resumed);
  const bool identical = same_netmc_result(resumed, base_res);
  std::remove(ck_path.c_str());
  if (!identical) {
    std::cerr << "[checkpoint-perf] FAIL: resumed run is not byte-identical"
              << "\n";
    return 1;
  }

  std::ofstream json(json_path);
  perfjson::open_envelope(json, "checkpoint_perf");
  json << ",\n  \"design\": \"" << netlist.name() << "\",\n"
       << "  \"cells\": " << netlist.num_cells() << ",\n"
       << "  \"samples\": " << kSamples << ",\n"
       << "  \"blocks\": " << n_blocks << ",\n"
       << "  \"baseline_seconds\": " << base_s << ",\n"
       << "  \"checkpointed_seconds\": " << ck_s << ",\n"
       << "  \"write_overhead_seconds\": " << (ck_s - base_s) << ",\n"
       << "  \"write_overhead_per_block_seconds\": "
       << (ck_s - base_s) / static_cast<double>(n_blocks) << ",\n"
       << "  \"checkpoint_bytes\": " << ck_bytes << ",\n"
       << "  \"load_seconds\": " << load_s << ",\n"
       << "  \"full_resume_seconds\": " << resume_s << ",\n"
       << "  \"resume_byte_identical\": " << (identical ? "true" : "false")
       << "\n}\n";
  std::cerr << "[checkpoint-perf] baseline " << base_s << "s, checkpointed "
            << ck_s << "s (+" << 100.0 * (ck_s - base_s) / base_s
            << "%), file " << ck_bytes << " bytes, load " << load_s
            << "s, full resume " << resume_s << "s -> " << json_path << "\n";
  return 0;
}

// --------------------------------------------- incremental STA cost -----

/// Per-edit cost of the incremental engine versus a full re-run, across
/// cone sizes. Retypes one cell per sampled level of a ≥5k-cell design:
/// a cell near the primary inputs has a large fanout cone (expensive
/// update), one near the outputs a small cone (cheap update). Each timed
/// update is checked bit-identical to a fresh full run; the JSON record
/// lands in incremental_sta_perf.json.
int run_incremental_scaling(const std::string& json_path) {
  using clock = std::chrono::steady_clock;
  const TechParams tech = TechParams::nominal28();
  const CellLibrary lib = CellLibrary::standard();
  const CharLib charlib = testfix::make_charlib();
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);

  int bits = 28;
  GateNetlist netlist = generate_array_multiplier(bits, lib);
  while (netlist.num_cells() < 5000 && bits < 64) {
    netlist = generate_array_multiplier(++bits, lib);
  }
  const ParasiticDb parasitics = generate_parasitics(netlist, tech);
  const std::size_t num_levels = netlist.levelization().levels.size();
  std::cerr << "[inc-scaling] design MUL" << bits << ": "
            << netlist.num_cells() << " cells, " << num_levels
            << " levels\n";

  // Serial on both engines: the comparison is algorithmic work (cone vs
  // whole design), not lane scaling — that is run_sta_scaling's job.
  StaConfig cfg;
  cfg.exec.threads = 1;
  cfg.min_parallel_cells = netlist.num_cells() + 1;
  const StaEngine full_engine(model, tech, cfg);

  double full_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock::now();
    const auto res = full_engine.run(netlist, parasitics);
    full_s = std::min(full_s,
                      std::chrono::duration<double>(clock::now() - t0).count());
  }

  IncrementalSta inc(model, tech, cfg);
  inc.bind(netlist, parasitics);

  auto identical = [](const StaEngine::Result& got,
                      const StaEngine::Result& want) {
    if (got.nets.size() != want.nets.size() ||
        got.max_arrival != want.max_arrival) {
      return false;
    }
    for (std::size_t n = 0; n < want.nets.size(); ++n) {
      if (std::memcmp(&got.nets[n].arrival, &want.nets[n].arrival,
                      sizeof(want.nets[n].arrival)) != 0 ||
          std::memcmp(&got.nets[n].slew, &want.nets[n].slew,
                      sizeof(want.nets[n].slew)) != 0) {
        return false;
      }
    }
    return true;
  };

  std::ofstream json(json_path);
  perfjson::open_envelope(json, "incremental_scaling");
  json << ",\n  \"design\": \"" << netlist.name() << "\",\n"
       << "  \"cells\": " << netlist.num_cells() << ",\n"
       << "  \"levels\": " << num_levels << ",\n"
       << "  \"full_run_seconds\": " << full_s << ",\n"
       << "  \"edits\": [";
  bool first = true;
  bool all_identical = true;
  constexpr int kSampledLevels = 10;
  for (int s = 0; s < kSampledLevels; ++s) {
    const std::size_t level =
        s * (num_levels - 1) / (kSampledLevels - 1);
    const int cell = netlist.levelization().levels[level].front();
    const CellType* orig = netlist.cell(cell).type;
    const CellType& bigger = lib.by_func(orig->func(), orig->strength() * 2);

    const auto t0 = clock::now();
    netlist.set_cell_type(cell, bigger);
    inc.update();
    const double edit_s =
        std::chrono::duration<double>(clock::now() - t0).count();
    const auto stats = inc.last_stats();

    // The incremental result after the retype must match a fresh full run
    // of the edited netlist bit-for-bit.
    const bool same =
        identical(inc.result(), full_engine.run(netlist, parasitics));
    all_identical = all_identical && same;

    json << (first ? "" : ",") << "\n    {\"level\": " << level
         << ", \"cone_cells\": " << stats.cells_recomputed
         << ", \"seconds\": " << edit_s
         << ", \"speedup_vs_full\": " << full_s / edit_s
         << ", \"bit_identical\": " << (same ? "true" : "false") << "}";
    first = false;
    std::cerr << "[inc-scaling] level=" << level << "  cone="
              << stats.cells_recomputed << "/" << netlist.num_cells()
              << " cells  " << edit_s * 1e6 << " us  speedup="
              << full_s / edit_s << (same ? "" : "  MISMATCH") << "\n";

    netlist.set_cell_type(cell, *orig);  // roll back for the next sample
    inc.update();
  }
  json << "\n  ]\n}\n";
  std::cerr << "[inc-scaling] wrote " << json_path << "\n";
  if (!all_identical) {
    std::cerr << "[inc-scaling] ERROR: incremental result diverged from "
                 "full re-run\n";
    return 1;
  }
  return 0;
}

// --------------------------------------------- interval propagation -----

/// Cost of the certified interval propagation (nsdc_analyze's tentpole
/// pass) versus the nominal mean STA it brackets, across design sizes,
/// plus the 1-vs-4-lane byte-identity of the propagated bounds. The JSON
/// record lands in analysis_perf.json.
int run_analysis_perf(const std::string& json_path) {
  using clock = std::chrono::steady_clock;
  const TechParams tech = TechParams::nominal28();
  const CellLibrary lib = CellLibrary::standard();
  const NSigmaCellModel model =
      NSigmaCellModel::fit(testfix::make_full_charlib());
  const NSigmaWireModel wire_model =
      NSigmaWireModel::fit(testfix::make_charlib(), lib);

  std::ofstream json(json_path);
  perfjson::open_envelope(json, "analysis_perf");
  json << ",\n  \"sweep\": [";
  bool first = true;
  bool ok = true;
  for (const int target : {100, 500, 2000}) {
    RandomNetlistSpec spec;
    spec.name = "analysis_sweep_" + std::to_string(target);
    spec.target_cells = target;
    spec.seed = 42;
    const GateNetlist netlist = generate_random_mapped(spec, lib);
    const ParasiticDb parasitics = generate_parasitics(netlist, tech);

    StaConfig scfg;
    scfg.exec.threads = 1;
    const StaEngine sta(model, tech, scfg);
    StaEngine::Result nominal;
    double sta_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = clock::now();
      nominal = sta.run(netlist, parasitics);
      sta_s = std::min(
          sta_s, std::chrono::duration<double>(clock::now() - t0).count());
    }
    const FlatTimingGraph graph = FlatTimingGraph::compile(netlist);

    AnalysisInput input;
    input.netlist = &netlist;
    input.parasitics = &parasitics;
    input.cell_model = &model;
    input.wire_model = &wire_model;
    input.tech = &tech;
    AnalysisOptions aopt;
    aopt.exec.threads = 1;
    IntervalResult iv;
    double iv_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = clock::now();
      iv = propagate_intervals(input, aopt, graph, nominal);
      iv_s = std::min(
          iv_s, std::chrono::duration<double>(clock::now() - t0).count());
    }

    AnalysisOptions popt;
    popt.exec.threads = 4;
    const IntervalResult piv =
        propagate_intervals(input, popt, graph, nominal);
    bool identical = piv.nets.size() == iv.nets.size();
    for (std::size_t n = 0; identical && n < iv.nets.size(); ++n) {
      identical = std::memcmp(&piv.nets[n].arrival, &iv.nets[n].arrival,
                              sizeof(iv.nets[n].arrival)) == 0 &&
                  std::memcmp(&piv.nets[n].slew, &iv.nets[n].slew,
                              sizeof(iv.nets[n].slew)) == 0;
    }
    ok = ok && identical;

    json << (first ? "" : ",") << "\n    {\"design\": \"" << netlist.name()
         << "\", \"cells\": " << netlist.num_cells()
         << ", \"levels\": " << iv.levels
         << ", \"sta_seconds\": " << sta_s
         << ", \"interval_seconds\": " << iv_s
         << ", \"cost_vs_sta\": " << iv_s / sta_s
         << ", \"threads_byte_identical\": " << (identical ? "true" : "false")
         << "}";
    first = false;
    std::cerr << "[analysis-perf] " << netlist.name() << ": "
              << netlist.num_cells() << " cells  sta " << sta_s * 1e3
              << " ms  intervals " << iv_s * 1e3 << " ms  ratio "
              << iv_s / sta_s << (identical ? "" : "  MISMATCH") << "\n";
  }
  json << "\n  ]\n}\n";
  std::cerr << "[analysis-perf] wrote " << json_path << "\n";
  if (!ok) {
    std::cerr << "[analysis-perf] ERROR: parallel interval propagation "
                 "diverged from serial reference\n";
    return 1;
  }
  return 0;
}

// --------------------------------------------- flat-graph throughput ----

/// Heap bytes currently allocated, or 0 when the platform has no
/// mallinfo2 (the JSON then records only the arena-accounted footprint).
std::size_t heap_bytes_now() {
#if defined(__GLIBC__)
  return static_cast<std::size_t>(mallinfo2().uordblks);
#else
  return 0;
#endif
}

/// Million-cell-scale throughput/memory gate for the compiled SoA timing
/// graph: StaEngine on the FlatTimingGraph versus the "legacy" column, the
/// tests' independent reference pass over the GateNetlist
/// (testfix::reference_sta_run), on ~100k / ~300k / ~1M-cell generated
/// designs. Records compile rate, nominal-STA cells/sec on both walks,
/// bytes/cell (flat arena accounting plus mallinfo2 deltas for both
/// representations), and verifies the flat results byte-identical to the
/// reference walk at 1 and 4 lanes. Fails (exit 1) when the flat path is
/// not >= 1.3x the reference walk's throughput on the largest design. A
/// parasitics-on row times the end-to-end StaEngine::run with RC trees on
/// the ~100k-cell design against the same call without them (the on/off
/// ratio), with the same identity checks. The JSON record lands in
/// flatgraph_perf.json.
int run_flatgraph_sweep(const std::string& json_path) {
  using clock = std::chrono::steady_clock;
  const TechParams tech = TechParams::nominal28();
  const CellLibrary lib = CellLibrary::standard();
  // The scale generators compose everything from NAND2x1/INVx1 (Builder
  // helpers), so the fast synthetic characterization covers every arc.
  const CharLib charlib = testfix::make_charlib();
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);

  // Size the parameterized generators to ~100k / ~300k / ~1M cells by
  // measuring one tile/stage and scaling the repeat count.
  auto sized = [&](const char* kind, std::size_t target) {
    if (std::strcmp(kind, "xbar") == 0) {
      return generate_wide_crossbar(144, 144, lib);  // ~103k cells
    }
    if (std::strcmp(kind, "divchain") == 0) {
      const std::size_t per =
          generate_divider_chain(16, 1, lib).num_cells();
      const int stages = static_cast<int>((target + per - 1) / per);
      return generate_divider_chain(16, std::max(stages, 1), lib);
    }
    const std::size_t per =
        generate_tiled_multiplier_array(16, 1, lib).num_cells();
    const int tiles = static_cast<int>((target + per - 1) / per);
    return generate_tiled_multiplier_array(16, std::max(tiles, 1), lib);
  };

  auto identical = [](const StaEngine::Result& a, const StaEngine::Result& b) {
    if (a.nets.size() != b.nets.size() || a.max_arrival != b.max_arrival ||
        a.critical_net != b.critical_net) {
      return false;
    }
    for (std::size_t n = 0; n < b.nets.size(); ++n) {
      if (std::memcmp(&a.nets[n].arrival, &b.nets[n].arrival,
                      sizeof(b.nets[n].arrival)) != 0 ||
          std::memcmp(&a.nets[n].slew, &b.nets[n].slew,
                      sizeof(b.nets[n].slew)) != 0) {
        return false;
      }
    }
    return true;
  };

  std::ofstream json(json_path);
  perfjson::open_envelope(json, "flatgraph_sweep");
  json << ",\n  \"parasitics\": \"none (pin-cap loads)\",\n"
       << "  \"sweep\": [";
  bool first = true;
  bool all_identical = true;
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
    std::cerr << "[flatgraph-sweep] " << design_stats_line(netlist) << "\n";

    const std::size_t heap0 = heap_bytes_now();
    const auto tc0 = clock::now();
    const FlatTimingGraph graph = FlatTimingGraph::compile(netlist);
    const double compile_s =
        std::chrono::duration<double>(clock::now() - tc0).count();
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

    auto timed_run = [&](bool flat, unsigned threads,
                         StaEngine::Result* out) {
      StaConfig cfg;
      cfg.exec.threads = threads;
      cfg.min_parallel_cells = threads > 1 ? 1 : netlist.num_cells() + 1;
      const StaEngine engine(model, tech, cfg);
      double best = 1e300;
      for (int rep = 0; rep < 2; ++rep) {
        const auto t0 = clock::now();
        auto res = flat ? engine.run(graph, netlist, parasitics)
                        : testfix::reference_sta_run(netlist, parasitics,
                                                     model, tech, cfg);
        best = std::min(best, std::chrono::duration<double>(
                                  clock::now() - t0).count());
        if (out) *out = std::move(res);
      }
      return best;
    };

    StaEngine::Result legacy1, flat1, legacy4, flat4;
    const double legacy1_s = timed_run(false, 1, &legacy1);
    const double flat1_s = timed_run(true, 1, &flat1);
    const double legacy4_s = timed_run(false, 4, &legacy4);
    const double flat4_s = timed_run(true, 4, &flat4);
    const bool same =
        identical(flat1, legacy1) && identical(flat4, legacy4) &&
        identical(legacy4, legacy1);
    all_identical = all_identical && same;

    const double cells = static_cast<double>(netlist.num_cells());
    const double speedup = legacy1_s / flat1_s;
    if (netlist.num_cells() > largest_cells) {
      largest_cells = netlist.num_cells();
      largest_speedup = speedup;
    }

    json << (first ? "" : ",") << "\n    {\"design\": \"" << netlist.name()
         << "\", \"cells\": " << st.cells << ", \"nets\": " << st.nets
         << ", \"max_level\": " << st.max_level
         << ", \"avg_fanout\": " << st.avg_fanout
         << ",\n     \"compile_seconds\": " << compile_s
         << ", \"compile_cells_per_sec\": " << cells / compile_s
         << ",\n     \"legacy_seconds\": " << legacy1_s
         << ", \"flat_seconds\": " << flat1_s
         << ", \"speedup\": " << speedup
         << ", \"legacy_cells_per_sec\": " << cells / legacy1_s
         << ", \"flat_cells_per_sec\": " << cells / flat1_s
         << ",\n     \"legacy_seconds_4t\": " << legacy4_s
         << ", \"flat_seconds_4t\": " << flat4_s
         << ", \"speedup_4t\": " << legacy4_s / flat4_s
         << ",\n     \"flat_bytes_per_cell\": "
         << static_cast<double>(graph.memory_bytes()) / cells
         << ", \"flat_heap_bytes_per_cell\": "
         << static_cast<double>(flat_heap) / cells
         << ", \"legacy_heap_bytes_per_cell\": "
         << static_cast<double>(legacy_heap) / cells
         << ",\n     \"bit_identical\": " << (same ? "true" : "false")
         << "}";
    first = false;
    std::cerr << "[flatgraph-sweep] " << netlist.name() << ": compile "
              << compile_s * 1e3 << " ms (" << cells / compile_s / 1e6
              << " Mcells/s)  legacy " << legacy1_s * 1e3 << " ms  flat "
              << flat1_s * 1e3 << " ms  speedup " << speedup << " (4t "
              << legacy4_s / flat4_s << ")  flat "
              << static_cast<double>(graph.memory_bytes()) / cells
              << " B/cell vs legacy "
              << static_cast<double>(legacy_heap) / cells << " B/cell"
              << (same ? "" : "  MISMATCH") << "\n";
  }
  json << "\n  ]";

  // Parasitics-on row: the end-to-end StaEngine::run(netlist, parasitics)
  // (compile, annotate, bind, propagate) on the ~100k-cell TMUL with
  // generate_parasitics trees, and the reference walk, at 1 and 4 lanes,
  // next to the same call without parasitics. Recorded, not gated:
  // annotate still copies every tree per run and resolves sinks by name.
  {
    const GateNetlist netlist = sized("mul", 100000);
    const ParasiticDb parasitics = generate_parasitics(netlist, tech);
    const ParasiticDb none;
    netlist.levelization();
    std::size_t tree_nodes = 0;
    std::size_t sinks = 0;
    for (const auto& [name, tree] : parasitics.all()) {
      tree_nodes += static_cast<std::size_t>(tree.num_nodes());
      sinks += tree.sinks().size();
    }
    auto end_to_end = [&](bool flat, unsigned threads, const ParasiticDb& db,
                          StaEngine::Result& out) {
      StaConfig cfg;
      cfg.exec.threads = threads;
      cfg.min_parallel_cells = threads > 1 ? 1 : netlist.num_cells() + 1;
      const StaEngine engine(model, tech, cfg);
      double best = 1e300;
      for (int rep = 0; rep < 2; ++rep) {
        const auto t0 = clock::now();
        out = flat ? engine.run(netlist, db)
                   : testfix::reference_sta_run(netlist, db, model, tech, cfg);
        best = std::min(best, std::chrono::duration<double>(
                                  clock::now() - t0).count());
      }
      return best;
    };
    StaEngine::Result off1, off4, flat1, flat4, legacy1, legacy4;
    const double off1_s = end_to_end(true, 1, none, off1);
    const double flat1_s = end_to_end(true, 1, parasitics, flat1);
    const double legacy1_s = end_to_end(false, 1, parasitics, legacy1);
    const double off4_s = end_to_end(true, 4, none, off4);
    const double flat4_s = end_to_end(true, 4, parasitics, flat4);
    const double legacy4_s = end_to_end(false, 4, parasitics, legacy4);
    const bool same = identical(flat1, legacy1) && identical(flat4, legacy4) &&
                      identical(flat4, flat1) && identical(off4, off1);
    all_identical = all_identical && same;
    json << ",\n  \"parasitics_on\": {\"design\": \"" << netlist.name()
         << "\", \"cells\": " << netlist.num_cells()
         << ", \"tree_nodes\": " << tree_nodes << ", \"sinks\": " << sinks
         << ",\n    \"off_flat_seconds\": " << off1_s
         << ", \"flat_seconds\": " << flat1_s
         << ", \"legacy_seconds\": " << legacy1_s
         << ", \"on_off_ratio\": " << flat1_s / off1_s
         << ",\n    \"off_flat_seconds_4t\": " << off4_s
         << ", \"flat_seconds_4t\": " << flat4_s
         << ", \"legacy_seconds_4t\": " << legacy4_s
         << ", \"on_off_ratio_4t\": " << flat4_s / off4_s
         << ",\n    \"bit_identical\": " << (same ? "true" : "false") << "}";
    std::cerr << "[flatgraph-sweep] " << netlist.name() << " parasitics-on ("
              << tree_nodes << " tree nodes, " << sinks << " sinks): flat "
              << flat1_s * 1e3 << " ms vs " << off1_s * 1e3
              << " ms off (ratio " << flat1_s / off1_s << "), legacy "
              << legacy1_s * 1e3 << " ms; 4t flat " << flat4_s * 1e3
              << " ms vs " << off4_s * 1e3 << " ms off (ratio "
              << flat4_s / off4_s << "), legacy " << legacy4_s * 1e3 << " ms"
              << (same ? "" : "  MISMATCH") << "\n";
  }

  json << ",\n  \"largest_design_speedup\": " << largest_speedup
       << ",\n  \"speedup_gate\": 1.3\n}\n";
  std::cerr << "[flatgraph-sweep] wrote " << json_path << "\n";
  if (!all_identical) {
    std::cerr << "[flatgraph-sweep] ERROR: flat result diverged from the "
                 "reference walk\n";
    return 1;
  }
  if (largest_speedup < 1.3) {
    std::cerr << "[flatgraph-sweep] ERROR: flat speedup " << largest_speedup
              << " on the largest design is below the 1.3x gate\n";
    return 1;
  }
  return 0;
}

// --------------------------------------------- serve throughput ---------

/// Requests/sec of the nsdc_serve daemon over a unix socket: baseline
/// arrival queries from one and from four concurrent clients, and a
/// stateful edit session streaming retype batches through IncrementalSta.
/// Every response status is checked; a non-OK answer fails the record.
/// The JSON record lands in serve_perf.json.
int run_serve_perf(const std::string& json_path) {
  using clock = std::chrono::steady_clock;
  const TechParams tech = TechParams::nominal28();
  const CellLibrary lib = CellLibrary::standard();
  const CharLib charlib = testfix::make_full_charlib();
  const NSigmaCellModel model = NSigmaCellModel::fit(charlib);
  const NSigmaWireModel wire_model =
      NSigmaWireModel::fit(testfix::make_charlib(), lib);

  RandomNetlistSpec spec;
  spec.name = "serve_perf";
  spec.target_cells = 1500;
  spec.seed = 42;
  GateNetlist netlist = generate_random_mapped(spec, lib);
  finalize_design(netlist, lib, tech);
  const ParasiticDb parasitics = generate_parasitics(netlist, tech);

  serve::ServiceRefs refs;
  refs.netlist = &netlist;
  refs.parasitics = &parasitics;
  refs.cell_library = &lib;
  refs.cell_model = &model;
  refs.wire_model = &wire_model;
  refs.tech = &tech;
  refs.charlib = &charlib;
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
  double arrival_rps = 0.0;
  {
    net::Client client(daemon.endpoint());
    const auto t0 = clock::now();
    for (int i = 0; i < kQueries; ++i) {
      ok = call_ok(client, serve::make_arrival(
                               static_cast<std::uint32_t>(i), po_name)) &&
           ok;
    }
    arrival_rps = kQueries /
                  std::chrono::duration<double>(clock::now() - t0).count();
  }

  // Four concurrent clients, same total request count: measures the
  // batching loop, not just one connection's turnaround.
  double arrival_rps_4c = 0.0;
  {
    const int per_client = kQueries / 4;
    std::vector<std::thread> clients;
    std::array<bool, 4> oks{true, true, true, true};
    const auto t0 = clock::now();
    for (int k = 0; k < 4; ++k) {
      clients.emplace_back([&, k] {
        net::Client client(daemon.endpoint());
        for (int i = 0; i < per_client; ++i) {
          oks[static_cast<std::size_t>(k)] =
              call_ok(client,
                      serve::make_arrival(
                          static_cast<std::uint32_t>(k * per_client + i),
                          po_name)) &&
              oks[static_cast<std::size_t>(k)];
        }
      });
    }
    for (auto& t : clients) t.join();
    arrival_rps_4c = 4.0 * per_client /
                     std::chrono::duration<double>(clock::now() - t0).count();
    for (const bool o : oks) ok = ok && o;
  }

  // Stateful edit session: each request retypes one cell (alternating
  // strengths) and runs the incremental update — requests/sec of the
  // journal -> IncrementalSta path including the timing answer.
  const int kEdits = 200;
  double edit_rps = 0.0;
  {
    net::Client client(daemon.endpoint());
    const std::string open = client.call(serve::make_session_open(1));
    net::WireReader orr(open);
    ok = ok && serve::read_response_head(orr).status == serve::Status::kOk;
    const std::uint32_t session = orr.u32();
    const CellFunc func = netlist.cell(0).type->func();
    const auto t0 = clock::now();
    for (int i = 0; i < kEdits; ++i) {
      serve::SessionEditRequest edit(static_cast<std::uint32_t>(100 + i),
                                     session);
      edit.set_cell_type(0, lib.by_func(func, (i % 2) != 0 ? 4 : 2).name());
      ok = call_ok(client, edit.take()) && ok;
    }
    edit_rps =
        kEdits / std::chrono::duration<double>(clock::now() - t0).count();
    ok = call_ok(client, serve::make_session_close(2, session)) && ok;
  }

  daemon.request_stop();
  runner.join();

  std::ofstream json(json_path);
  perfjson::open_envelope(json, "serve_perf");
  json << ",\n  \"design\": \"" << netlist.name()
       << "\", \"cells\": " << netlist.num_cells()
       << ", \"nets\": " << netlist.num_nets()
       << ",\n  \"transport\": \"unix socket, length-prefixed frames\""
       << ",\n  \"arrival_requests_per_sec\": " << arrival_rps
       << ",\n  \"arrival_requests_per_sec_4_clients\": " << arrival_rps_4c
       << ",\n  \"edit_session_requests_per_sec\": " << edit_rps
       << ",\n  \"requests_served\": " << daemon.requests_served()
       << ",\n  \"all_responses_ok\": " << (ok ? "true" : "false") << "\n}\n";
  std::cerr << "[serve-perf] " << netlist.num_cells() << " cells: arrival "
            << arrival_rps << " req/s (4 clients " << arrival_rps_4c
            << ")  edit-session " << edit_rps << " req/s\n"
            << "[serve-perf] wrote " << json_path << "\n";
  if (!ok) {
    std::cerr << "[serve-perf] ERROR: a request returned a non-OK status\n";
    return 1;
  }
  return 0;
}

// --------------------------------------------- dist shard sweep ---------

/// Multi-process shard-coordinator sweep (src/dist): wall-clock of the
/// same netlist-MC run at 1/2/4 fork/exec'd workers versus the in-process
/// single-run reference, plus a recovery run with a SIGKILL injected
/// mid-shard (NSDC_FAULTS, inherited by the worker fleet) measuring the
/// retry/resume overhead. Every distributed run — the killed one included
/// — must merge byte-identical to the in-process reference; a mismatch
/// fails the record (exit 1). The JSON record lands in dist_perf.json.
int run_dist_sweep(const std::string& json_path) {
  using clock = std::chrono::steady_clock;
  dist::BundleSpec spec;  // mul/5: the shard tests' deterministic bundle
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
  const auto t0 = clock::now();
  const auto ref = mc.run(bundle.netlist, bundle.parasitics, cfg);
  const double local_s =
      std::chrono::duration<double>(clock::now() - t0).count();
  std::cerr << "[dist-sweep] design MUL" << spec.size << ": "
            << bundle.netlist.num_cells() << " cells, " << kSamples
            << " samples, in-process " << local_s * 1e3 << " ms\n";

  auto identical = [&](const NetlistMonteCarlo::Result& got) {
    if (got.circuit_samples.size() != ref.circuit_samples.size() ||
        got.nets.size() != ref.nets.size() || got.worst_po != ref.worst_po) {
      return false;
    }
    if (std::memcmp(got.circuit_samples.data(), ref.circuit_samples.data(),
                    ref.circuit_samples.size() * sizeof(double)) != 0) {
      return false;
    }
    for (std::size_t n = 0; n < ref.nets.size(); ++n) {
      for (std::size_t e = 0; e < 2; ++e) {
        if (std::memcmp(&got.nets[n][e].moments, &ref.nets[n][e].moments,
                        sizeof(Moments)) != 0) {
          return false;
        }
      }
    }
    return true;
  };

  auto options_for = [&](unsigned workers, const char* tag) {
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
    return opt;
  };

  std::ofstream json(json_path);
  perfjson::open_envelope(json, "dist_sweep");
  json << ",\n  \"design\": \"" << bundle.netlist.name() << "\",\n"
       << "  \"cells\": " << bundle.netlist.num_cells() << ",\n"
       << "  \"samples\": " << kSamples << ",\n"
       << "  \"in_process_seconds\": " << local_s << ",\n"
       << "  \"runs\": [";
  bool first = true;
  bool all_identical = true;
  double one_worker_s = 0.0;
  for (const unsigned workers : {1u, 2u, 4u}) {
    const auto opt =
        options_for(workers, ("w" + std::to_string(workers)).c_str());
    const auto w0 = clock::now();
    const dist::DistResult res = dist::run_coordinator(opt);
    const double secs =
        std::chrono::duration<double>(clock::now() - w0).count();
    if (workers == 1) one_worker_s = secs;
    const bool same = res.complete && identical(res.mc);
    all_identical = all_identical && same;
    json << (first ? "" : ",") << "\n    {\"workers\": " << workers
         << ", \"seconds\": " << secs
         << ", \"speedup_vs_1\": " << one_worker_s / secs
         << ", \"byte_identical\": " << (same ? "true" : "false") << "}";
    first = false;
    std::cerr << "[dist-sweep] workers=" << workers << "  " << secs * 1e3
              << " ms  speedup=" << one_worker_s / secs
              << (same ? "" : "  MISMATCH") << "\n";
  }

  // Recovery overhead: SIGKILL one worker after accumulation block 2 of
  // attempt 0 (the NSDC_FAULTS plan travels to the fleet through the
  // inherited environment); the retried shard resumes from its checkpoint
  // and the merge must STILL be byte-identical.
  ::setenv("NSDC_FAULTS", "dist.worker.kill@2=throw", 1);
  const auto kopt = options_for(2, "kill");
  const auto k0 = clock::now();
  const dist::DistResult killed = dist::run_coordinator(kopt);
  const double killed_s =
      std::chrono::duration<double>(clock::now() - k0).count();
  ::unsetenv("NSDC_FAULTS");
  const bool killed_same = killed.complete && identical(killed.mc);
  all_identical = all_identical && killed_same;
  json << "\n  ],\n  \"recovery\": {\"workers\": 2"
       << ", \"seconds\": " << killed_s
       << ", \"workers_lost\": " << killed.workers_lost
       << ", \"shard_retries\": " << killed.shard_retries
       << ", \"byte_identical\": " << (killed_same ? "true" : "false")
       << "}\n}\n";
  std::cerr << "[dist-sweep] recovery (1 SIGKILL): " << killed_s * 1e3
            << " ms, lost=" << killed.workers_lost
            << " retries=" << killed.shard_retries
            << (killed_same ? "" : "  MISMATCH") << "\n"
            << "[dist-sweep] wrote " << json_path << "\n";
  if (!all_identical) {
    std::cerr << "[dist-sweep] ERROR: a distributed merge diverged from "
                 "the in-process reference\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nsdc

int main(int argc, char** argv) {
  bool sta_scaling = true;
  bool netmc_scaling = true;
  bool incremental_scaling = true;
  bool checkpoint_perf = true;
  bool ssta_sweep = true;
  bool analysis_perf = true;
  bool flatgraph_sweep = true;
  bool serve_perf = true;
  bool dist_sweep = true;
  std::string json_path = "sta_parallel_perf.json";
  std::string netmc_json_path = "netmc_parallel_perf.json";
  std::string incremental_json_path = "incremental_sta_perf.json";
  std::string checkpoint_json_path = "netmc_checkpoint_perf.json";
  std::string ssta_json_path = "ssta_analytic_perf.json";
  std::string analysis_json_path = "analysis_perf.json";
  std::string flatgraph_json_path = "flatgraph_perf.json";
  std::string serve_json_path = "serve_perf.json";
  std::string dist_json_path = "dist_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no_sta_scaling") == 0) {
      sta_scaling = false;
      argv[i--] = argv[--argc];  // hide from google-benchmark, re-examine slot
    } else if (std::strcmp(argv[i], "--no_netmc_scaling") == 0) {
      netmc_scaling = false;
      argv[i--] = argv[--argc];
    } else if (std::strcmp(argv[i], "--no_incremental_scaling") == 0) {
      incremental_scaling = false;
      argv[i--] = argv[--argc];
    } else if (std::strcmp(argv[i], "--no_checkpoint_perf") == 0) {
      checkpoint_perf = false;
      argv[i--] = argv[--argc];
    } else if (std::strcmp(argv[i], "--no_ssta_sweep") == 0) {
      ssta_sweep = false;
      argv[i--] = argv[--argc];
    } else if (std::strcmp(argv[i], "--no_analysis_perf") == 0) {
      analysis_perf = false;
      argv[i--] = argv[--argc];
    } else if (std::strcmp(argv[i], "--no_flatgraph_sweep") == 0) {
      flatgraph_sweep = false;
      argv[i--] = argv[--argc];
    } else if (std::strcmp(argv[i], "--no_serve_perf") == 0) {
      serve_perf = false;
      argv[i--] = argv[--argc];
    } else if (std::strcmp(argv[i], "--no_dist_sweep") == 0) {
      dist_sweep = false;
      argv[i--] = argv[--argc];
    } else if (std::strncmp(argv[i], "--dist_json=", 12) == 0) {
      dist_json_path = argv[i] + 12;
      argv[i--] = argv[--argc];
    } else if (std::strncmp(argv[i], "--serve_json=", 13) == 0) {
      serve_json_path = argv[i] + 13;
      argv[i--] = argv[--argc];
    } else if (std::strncmp(argv[i], "--flatgraph_json=", 17) == 0) {
      flatgraph_json_path = argv[i] + 17;
      argv[i--] = argv[--argc];
    } else if (std::strncmp(argv[i], "--analysis_json=", 16) == 0) {
      analysis_json_path = argv[i] + 16;
      argv[i--] = argv[--argc];
    } else if (std::strncmp(argv[i], "--ssta_json=", 12) == 0) {
      ssta_json_path = argv[i] + 12;
      argv[i--] = argv[--argc];
    } else if (std::strncmp(argv[i], "--sta_json=", 11) == 0) {
      json_path = argv[i] + 11;
      argv[i--] = argv[--argc];
    } else if (std::strncmp(argv[i], "--netmc_json=", 13) == 0) {
      netmc_json_path = argv[i] + 13;
      argv[i--] = argv[--argc];
    } else if (std::strncmp(argv[i], "--incremental_json=", 19) == 0) {
      incremental_json_path = argv[i] + 19;
      argv[i--] = argv[--argc];
    } else if (std::strncmp(argv[i], "--checkpoint_json=", 18) == 0) {
      checkpoint_json_path = argv[i] + 18;
      argv[i--] = argv[--argc];
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  int rc = 0;
  if (sta_scaling) rc |= nsdc::run_sta_scaling(json_path);
  if (netmc_scaling) rc |= nsdc::run_netmc_scaling(netmc_json_path);
  if (incremental_scaling) {
    rc |= nsdc::run_incremental_scaling(incremental_json_path);
  }
  if (checkpoint_perf) rc |= nsdc::run_checkpoint_perf(checkpoint_json_path);
  if (ssta_sweep) rc |= nsdc::run_ssta_sweep(ssta_json_path);
  if (analysis_perf) rc |= nsdc::run_analysis_perf(analysis_json_path);
  if (flatgraph_sweep) rc |= nsdc::run_flatgraph_sweep(flatgraph_json_path);
  if (serve_perf) rc |= nsdc::run_serve_perf(serve_json_path);
  if (dist_sweep) rc |= nsdc::run_dist_sweep(dist_json_path);
  return rc;
}
