#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/client.hpp"
#include "netlist/flatgraph.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "setup.hpp"
#include "sta/engine.hpp"
#include "sta/flatsta.hpp"
#include "sta/incremental.hpp"
#include "sta/netmc.hpp"
#include "sta/ssta_analytic.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace nsdc;

namespace {

constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kSetupMaxReps = 50;
constexpr double kSetupBudgetS = 2.0;
constexpr int kMcSamples = 4096;
constexpr unsigned kLanes = 4;

// --- Bitwise result digests (the 4-lane vs 1-lane oracles) ---------------

std::uint64_t digest(const StaEngine::Result& r) {
  Digest d;
  for (const StaEngine::NetTime& t : r.nets) {
    d.add(t.arrival).add(t.slew).add(t.from_pin).add(t.reachable);
  }
  for (const double l : r.net_load) d.add(l);
  d.add(r.max_arrival).add(r.critical_net).add(r.critical_edge);
  return d.value();
}

std::uint64_t digest(const std::vector<PathDescription>& paths) {
  Digest d;
  for (const PathDescription& p : paths) {
    d.add_str(p.design).add_str(p.note);
    for (const PathStage& s : p.stages) {
      d.add_str(s.cell ? s.cell->name() : std::string());
      d.add(s.pin).add(s.in_rising).add(s.input_slew).add(s.output_load);
      d.add(s.wire.num_nodes()).add(s.sink_node).add_str(s.load_cell);
    }
  }
  return d.value();
}

Digest& add_moments(Digest& d, const Moments& m) {
  return d.add(m.mu).add(m.sigma).add(m.gamma).add(m.kappa);
}

std::uint64_t digest(const AnalyticSsta::Result& r) {
  Digest d;
  for (const auto& net : r.nets) {
    for (const auto& e : net) add_moments(d, e.moments).add(e.reachable);
  }
  for (const int po : r.po_nets) d.add(po);
  for (const Moments& m : r.po_moments) add_moments(d, m);
  for (const auto& q : r.po_quantiles) d.add(q);
  add_moments(d, r.circuit_moments).add(r.circuit_quantiles);
  d.add(r.worst_po).add(r.levels);
  return d.value();
}

std::uint64_t digest(const NetlistMonteCarlo::Result& r) {
  Digest d;
  for (const auto& net : r.nets) {
    for (const auto& e : net) add_moments(d, e.moments).add(e.count);
  }
  for (const int po : r.po_nets) d.add(po);
  for (const auto& samples : r.po_samples) {
    for (const double s : samples) d.add(s);
  }
  for (const Moments& m : r.po_moments) add_moments(d, m);
  for (const auto& q : r.po_quantiles) d.add(q);
  for (const double s : r.circuit_samples) d.add(s);
  add_moments(d, r.circuit_moments).add(r.circuit_quantiles);
  d.add(r.worst_po).add(r.total_quarantined).add(r.samples_done);
  return d.value();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// --- Set-up ---------------------------------------------------------------

struct Setup {
  std::unique_ptr<Library> lib;
  std::unique_ptr<Design> design;
  /// eco_session only: the design loaded into the daemon's service.
  std::unique_ptr<serve::Service> service;
};

serve::ServiceRefs service_refs(const Setup& s) {
  serve::ServiceRefs refs;
  refs.netlist = &s.design->netlist;
  refs.parasitics = &s.design->parasitics;
  refs.cell_library = &s.lib->cells;
  refs.cell_model = &s.lib->cell_model;
  refs.wire_model = &s.lib->wire_model;
  refs.tech = &s.lib->tech;
  refs.charlib = &s.lib->charlib;
  return refs;
}

Setup setup_once(const Args& a) {
  Setup s;
  s.lib = load_library();
  s.design = build_design(a.workload, a.seed, *s.lib);
  // Loading the design into the service (its baseline STA + SSTA) is part
  // of what a user waits for before the first edit.
  if (a.workload == "eco_session") {
    s.service = std::make_unique<serve::Service>(service_refs(s));
  }
  return s;
}

/// The set-up a workload runs on, timed: its time is the first setup_s
/// sample. It is the first thing the process allocates, so peak_rss_mb does
/// not depend on how many repetitions repeat_setups makes afterwards.
Setup first_setup(const Args& a, std::vector<double>& setup_times,
                  Outcome& out) {
  const auto t0 = Clock::now();
  Setup s = setup_once(a);
  setup_times.push_back(seconds_since(t0));
  out.notes.push_back("setup: " + s.design->generator + ", " +
                      std::to_string(s.design->netlist.num_cells()) +
                      " cells");
  return s;
}

/// Runs the whole set-up afresh, each repetition released before the next,
/// until there are at least kSetupReps samples and kSetupBudgetS have
/// passed; setup_s is the median, so a set-up of a few milliseconds is
/// still measured over many repetitions. Called once the workload is done,
/// so neither its timed window nor its memory high-water sees these.
void repeat_setups(const Args& a, std::vector<double> setup_times,
                   Outcome& out) {
  const auto start = Clock::now();
  while (setup_times.size() < kSetupReps ||
         (seconds_since(start) < kSetupBudgetS &&
          setup_times.size() < kSetupMaxReps)) {
    const auto t0 = Clock::now();
    const Setup s = setup_once(a);
    setup_times.push_back(seconds_since(t0));
  }
  out.metrics["setup_s"] = median(setup_times);
  out.notes.push_back("setup_s: median of " +
                      std::to_string(setup_times.size()) + " set-ups");
}

StaConfig lanes_config(unsigned lanes) {
  StaConfig cfg;
  cfg.exec.threads = lanes;
  return cfg;
}

/// Fills the shared latency metrics from the main/follow samples.
void latency_metrics(Outcome& out, const std::string& main_name,
                     const std::vector<double>& main_s,
                     const std::string& follow_name,
                     const std::vector<double>& follow_s) {
  const double q = tail_quantile(main_s.size());
  out.metrics["main_p50_ms"] = median(main_s) * 1e3;
  out.metrics["main_tail_ms"] = quantile(main_s, q) * 1e3;
  out.metrics["follow_p50_ms"] = median(follow_s) * 1e3;
  out.notes.push_back("main = " + main_name + ": " +
                      std::to_string(main_s.size()) + " samples, tail = p" +
                      std::to_string(q * 100.0).substr(0, 4));
  out.notes.push_back("follow = " + follow_name + ": " +
                      std::to_string(follow_s.size()) + " samples");
}

// --- Traced STA phase replay ---------------------------------------------

/// Level-by-level propagation exactly as StaEngine::run schedules it.
void propagate_levels(const FlatTimingGraph& graph, const FlatArcRecords& rec,
                      const NSigmaCellModel& model, const ExecContext& exec,
                      StaEngine::Result& res) {
  using Id = FlatTimingGraph::Id;
  for (Id l = 0; l < graph.num_levels(); ++l) {
    const Id begin = graph.level_begin(l);
    exec.parallel_for_autotuned(graph.level_end(l) - begin,
                                [&](std::size_t i) {
                                  flat_kernel::flat_propagate_cell(
                                      graph, rec, model,
                                      begin + static_cast<Id>(i), res);
                                });
  }
}

/// Digests of the 1-lane STA run and worst-path report: the oracle every
/// 4-lane call and traced replay must match bit for bit.
struct StaOracle {
  std::uint64_t result = 0;
  std::uint64_t paths = 0;
};

StaOracle sta_oracle(const Library& lib, const Design& d) {
  const StaEngine serial(lib.cell_model, lib.tech, lanes_config(1));
  const StaEngine::Result ref = serial.run(d.netlist, d.parasitics);
  return {digest(ref),
          digest(serial.extract_worst_paths(d.netlist, ref, d.report_paths))};
}

/// One traced iteration: the untraced StaEngine::run call, then a replay
/// of it through the public flat_kernel functions with a span per phase,
/// then the per-layer extras (1-lane propagation, Elmore over every bound
/// sink, the worst-path report). Every replayed result is checked against
/// the untraced call bit for bit.
void traced_sta_iteration(const Library& lib, const Design& d,
                          const StaOracle& oracle, SpanRecorder& spans,
                          Outcome& out) {
  using Id = FlatTimingGraph::Id;
  const GateNetlist& nl = d.netlist;
  const StaConfig cfg = lanes_config(kLanes);
  const StaEngine engine(lib.cell_model, lib.tech, cfg);

  std::optional<StaEngine::Result> plain;
  {
    Scope s(spans, "sta.untraced");
    plain.emplace(engine.run(nl, d.parasitics));
  }
  const std::uint64_t untraced = digest(*plain);
  plain.reset();
  out.check(untraced == oracle.result,
            "4-lane STA differs from the 1-lane run");

  std::optional<FlatTimingGraph> graph;
  StaEngine::Result res;
  FlatArcRecords rec;
  const ExecContext exec =
      cfg.parallel_for_size(nl.num_cells()) ? cfg.exec : cfg.exec.with_threads(1);
  {
    Scope total(spans, "sta.replay");
    {
      Scope s(spans, "netlist.compile");
      graph.emplace(FlatTimingGraph::compile(nl));
      s.set_items(graph->num_cells());
    }
    res.nets.resize(nl.num_nets());
    res.annotated.resize(nl.num_nets());
    res.net_load.assign(nl.num_nets(), 0.0);
    {
      Scope s(spans, "sta.flat.annotate");
      exec.parallel_for(nl.num_nets(), [&](std::size_t n) {
        flat_kernel::flat_annotate_net(*graph, nl, d.parasitics, lib.tech, n,
                                       res);
      });
      s.set_items(nl.num_nets());
    }
    for (const Id pi : graph->primary_inputs()) {
      StaEngine::NetTime& t = res.nets[pi];
      t.reachable = true;
      t.arrival = {0.0, 0.0};
      t.slew = {10e-12, 10e-12};
    }
    {
      Scope s(spans, "sta.flat.bind");
      flat_kernel::bind_arc_records(*graph, lib.cell_model, res, exec, rec);
      s.set_items(graph->num_arcs());
    }
    {
      Scope s(spans, "sta.flat.propagate");
      propagate_levels(*graph, rec, lib.cell_model, exec, res);
      s.set_items(graph->num_levels());
    }
    {
      Scope s(spans, "sta.flat.select");
      flat_kernel::flat_select_critical(*graph, res);
    }
  }
  const bool identical = digest(res) == untraced;
  out.check(identical, "traced STA replay is not byte-identical");
  out.metrics["sta.flat.replay_identical"] = identical ? 1.0 : 0.0;

  {
    Scope s(spans, "sta.flat.propagate_1lane");
    propagate_levels(*graph, rec, lib.cell_model, cfg.exec.with_threads(1),
                     res);
    s.set_items(graph->num_levels());
  }
  out.check(digest(res) == untraced, "1-lane replay differs");

  // Elmore over every bound sink, on the lanes bind uses, checked against
  // the values bind stored.
  struct Sink {
    const RcTree* tree;
    int node;
    Id arc;
  };
  std::vector<Sink> sinks;
  double tree_nodes = 0.0;
  for (Id n = 0; n < graph->num_nets(); ++n) {
    if (res.annotated[n].num_nodes() > 1) tree_nodes += res.annotated[n].num_nodes();
  }
  for (Id arc = 0; arc < graph->num_arcs(); ++arc) {
    if (!rec.has_tree[arc]) continue;
    const RcTree& tree = res.annotated[graph->fanin_net(arc)];
    sinks.push_back(
        {&tree, tree.sink_node(graph->sink_name(graph->fanin_sink(arc))), arc});
  }
  std::vector<double> elmore(sinks.size(), 0.0);
  {
    Scope s(spans, "parasitics.elmore");
    exec.parallel_for(sinks.size(), [&](std::size_t i) {
      elmore[i] = sinks[i].tree->elmore(sinks[i].node);
    });
    s.set_items(sinks.size());
  }
  bool elmore_ok = true;
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    elmore_ok = elmore_ok && same_bits(elmore[i], rec.elmore[sinks[i].arc]);
  }
  out.check(elmore_ok, "Elmore replay differs from the bound records");
  out.metrics["parasitics.elmore_calls"] = static_cast<double>(sinks.size());
  out.metrics["parasitics.tree_nodes"] = tree_nodes;
  out.metrics["netlist.levels"] = graph->num_levels();
  out.metrics["netlist.cells_per_level"] =
      static_cast<double>(graph->num_cells()) / graph->num_levels();

  {
    Scope s(spans, "sta.paths");
    const auto paths = engine.extract_worst_paths(nl, res, d.report_paths);
    s.set_items(paths.size());
    out.check(digest(paths) == oracle.paths, "worst-path report differs");
  }
}

/// Per-layer STA metrics from the spans of traced_sta_iteration.
void sta_layer_metrics(const SpanRecorder& spans, Outcome& out) {
  const double prop = spans.median_s("sta.flat.propagate");
  const double prop1 = spans.median_s("sta.flat.propagate_1lane");
  out.metrics["netlist.compile_s"] = spans.median_s("netlist.compile");
  out.metrics["sta.flat.annotate_s"] = spans.median_s("sta.flat.annotate");
  out.metrics["sta.flat.bind_s"] = spans.median_s("sta.flat.bind");
  out.metrics["sta.flat.propagate_s"] = prop;
  out.metrics["sta.flat.propagate_1lane_s"] = prop1;
  out.metrics["sta.flat.lane_ratio"] = prop1 > 0.0 ? prop / prop1 : 0.0;
  out.metrics["parasitics.elmore_s"] = spans.median_s("parasitics.elmore");
  out.metrics["sta.paths_s"] = spans.median_s("sta.paths");
  out.metrics["trace.overhead_ms"] =
      (spans.median_s("sta.replay") - spans.median_s("sta.untraced")) * 1e3;
}

/// Runs traced STA iterations for `seconds` (at least `min_iters`).
void profile_sta(const Library& lib, const Design& d, double seconds,
                 int min_iters, SpanRecorder& spans, Outcome& out) {
  const StaOracle oracle = sta_oracle(lib, d);
  const auto t0 = Clock::now();
  for (int i = 0; i < min_iters || seconds_since(t0) < seconds; ++i) {
    traced_sta_iteration(lib, d, oracle, spans, out);
  }
  sta_layer_metrics(spans, out);
}

// --- signoff_wide / deep_narrow -------------------------------------------

Outcome run_sta_workload(const Args& a, std::vector<double>& setup_times,
                         SpanRecorder& spans) {
  Outcome out;
  Setup s = first_setup(a, setup_times, out);
  const Library& lib = *s.lib;
  const Design& d = *s.design;
  if (a.trace) {
    profile_sta(lib, d, a.seconds, 2, spans, out);
    return out;
  }

  const StaOracle oracle = sta_oracle(lib, d);
  // The high-water of set-up plus one single-lane run and report. Read
  // before any 4-lane call: pool workers allocate in per-thread malloc
  // arenas, and how much each holds depends on the scheduling of the run.
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  const StaEngine engine(lib.cell_model, lib.tech, lanes_config(kLanes));

  std::vector<double> run_s, report_s;
  bool warm = false;
  const auto t0 = Clock::now();
  while (!warm || seconds_since(t0) < a.seconds) {
    try {
      const auto c0 = Clock::now();
      const StaEngine::Result res = engine.run(d.netlist, d.parasitics);
      const auto c1 = Clock::now();
      const auto paths = engine.extract_worst_paths(d.netlist, res,
                                                    d.report_paths);
      const auto c2 = Clock::now();
      out.check(digest(res) == oracle.result,
                "4-lane STA differs from the 1-lane run");
      out.check(digest(paths) == oracle.paths, "worst-path report differs");
      if (warm) {
        run_s.push_back(std::chrono::duration<double>(c1 - c0).count());
        report_s.push_back(std::chrono::duration<double>(c2 - c1).count());
      }
    } catch (const std::exception& e) {
      out.fail(std::string("STA call threw: ") + e.what());
    }
    warm = true;
  }
  latency_metrics(out, "StaEngine::run(netlist, parasitics)", run_s,
                  "extract_worst_paths(" + std::to_string(d.report_paths) + ")",
                  report_s);
  return out;
}

// --- nsigma_stat ------------------------------------------------------------

Outcome run_nsigma_workload(const Args& a, std::vector<double>& setup_times,
                            SpanRecorder& spans) {
  Outcome out;
  Setup s = first_setup(a, setup_times, out);
  const Library& lib = *s.lib;
  const Design& d = *s.design;

  AnalyticSstaOptions so4, so1;
  so4.sta = lanes_config(kLanes);
  so1.sta = lanes_config(1);
  const AnalyticSsta ssta4(lib.cell_model, lib.wire_model, lib.tech, so4);
  const AnalyticSsta ssta1(lib.cell_model, lib.wire_model, lib.tech, so1);
  NetMcOptions mo4, mo1;
  mo4.sta = lanes_config(kLanes);
  mo1.sta = lanes_config(1);
  const NetlistMonteCarlo mc4(lib.cell_model, lib.wire_model, lib.tech, mo4);
  const NetlistMonteCarlo mc1(lib.cell_model, lib.wire_model, lib.tech, mo1);
  McConfig mcfg4, mcfg1;
  mcfg4.samples = mcfg1.samples = kMcSamples;
  mcfg4.seed = mcfg1.seed = derive_seed(a.seed, 29);
  mcfg4.threads = kLanes;
  mcfg1.threads = 1;

  // The 1-lane oracle runs come first: single-threaded allocation makes
  // their memory high-water repeatable, while 4-lane runs spread frees over
  // per-thread malloc arenas and fragment by a varying amount.
  const double rss0 = peak_rss_mb();
  const AnalyticSsta::Result ref_ssta = ssta1.run(d.netlist, d.parasitics);
  const double rss_delta = peak_rss_mb() - rss0;
  const NetlistMonteCarlo::Result ref_mc =
      mc1.run(d.netlist, d.parasitics, mcfg1);
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  (void)ssta4.run(d.netlist, d.parasitics);  // warm-up
  (void)mc4.run(d.netlist, d.parasitics, mcfg4);
  const std::uint64_t ref_ssta_digest = digest(ref_ssta);
  const std::uint64_t ref_mc_digest = digest(ref_mc);

  std::vector<double> ssta_s, mc_s;
  std::uint64_t quarantined = 0;
  unsigned shards = 0;
  const auto t0 = Clock::now();
  for (bool first = true; first || seconds_since(t0) < a.seconds;
       first = false) {
    try {
      const auto c0 = Clock::now();
      std::optional<AnalyticSsta::Result> r;
      {
        Scope sp(spans, "sta.ssta.run");
        r.emplace(ssta4.run(d.netlist, d.parasitics));
        sp.set_items(r->levels);
      }
      const auto c1 = Clock::now();
      std::optional<NetlistMonteCarlo::Result> m;
      {
        Scope sp(spans, "sta.netmc.run");
        m.emplace(mc4.run(d.netlist, d.parasitics, mcfg4));
        sp.set_items(kMcSamples);
      }
      const auto c2 = Clock::now();
      ssta_s.push_back(std::chrono::duration<double>(c1 - c0).count());
      mc_s.push_back(std::chrono::duration<double>(c2 - c1).count());
      out.check(digest(*r) == ref_ssta_digest,
                "4-lane SSTA differs from the 1-lane run");
      out.check(digest(*m) == ref_mc_digest,
                "4-lane MC differs from the 1-lane run");
      // Every MC sample is an operation; quarantined samples failed.
      out.attempted += kMcSamples;
      out.failed += m->total_quarantined;
      quarantined += m->total_quarantined;
      if (m->total_quarantined != 0) {
        out.correct = false;
        out.notes.push_back("FAILED: MC quarantined samples");
      }
      shards = m->shards;
    } catch (const std::exception& e) {
      out.fail(std::string("statistical engine threw: ") + e.what());
    }
  }

  if (a.trace) {
    out.metrics["sta.ssta.run_s"] = spans.median_s("sta.ssta.run");
    out.metrics["sta.ssta.levels"] = static_cast<double>(ref_ssta.levels);
    out.metrics["sta.ssta.rss_delta_mb"] = rss_delta;
    out.metrics["sta.netmc.run_s"] = spans.median_s("sta.netmc.run");
    out.metrics["sta.netmc.shards"] = shards;
    out.metrics["sta.netmc.quarantined"] = static_cast<double>(quarantined);
    // Worst-PO +3 sigma quantile of the analytic engine against the MC
    // oracle, in units of the MC sigma.
    const auto it = std::find(ref_ssta.po_nets.begin(), ref_ssta.po_nets.end(),
                              ref_mc.worst_po);
    if (it != ref_ssta.po_nets.end() && ref_mc.worst_po_moments.sigma > 0.0) {
      const auto k = static_cast<std::size_t>(it - ref_ssta.po_nets.begin());
      out.metrics["sta.ssta.q3_err_sigma"] =
          std::abs(ref_ssta.po_quantiles[k][6] - ref_mc.worst_po_quantiles[6]) /
          ref_mc.worst_po_moments.sigma;
    } else {
      out.fail("MC worst PO missing from the SSTA result");
    }
    profile_sta(lib, d, 0.0, 5, spans, out);
    return out;
  }
  latency_metrics(out, "AnalyticSsta::run", ssta_s,
                  "NetlistMonteCarlo::run(" + std::to_string(kMcSamples) +
                      " samples)",
                  mc_s);
  return out;
}

// --- eco_session ------------------------------------------------------------

/// Runs a Daemon on its own thread; stops and joins it on destruction.
class DaemonThread {
 public:
  explicit DaemonThread(serve::Daemon& daemon)
      : daemon_(daemon), thread_([this] {
          try {
            daemon_.run();
          } catch (const std::exception& e) {
            error_ = e.what();
          }
        }) {}
  ~DaemonThread() { stop(); }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  /// Stops the loop and joins; returns the error run() threw, if any.
  std::string stop() {
    if (thread_.joinable()) {
      daemon_.request_stop();
      thread_.join();
    }
    return error_;
  }

 private:
  serve::Daemon& daemon_;
  std::string error_;
  std::thread thread_;
};

struct Edit {
  int cell = 0;
  const CellType* type = nullptr;
};

/// Seeded same-function retype: a random cell gets a different strength.
Edit next_edit(Rng& rng, const GateNetlist& mirror, const CellLibrary& cells) {
  Edit e;
  e.cell = static_cast<int>(
      rng.uniform_int(0, static_cast<std::int64_t>(mirror.num_cells()) - 1));
  const CellType& cur = *mirror.cell(e.cell).type;
  std::vector<int> strengths;
  for (const int st : {1, 2, 4, 8}) {
    if (st != cur.strength()) strengths.push_back(st);
  }
  e.type = &cells.by_func(
      cur.func(), strengths[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(strengths.size()) - 1))]);
  return e;
}

std::string edit_payload(std::uint32_t id, std::uint32_t session,
                         const Edit& e) {
  serve::SessionEditRequest req(id, session);
  req.set_cell_type(static_cast<std::uint32_t>(e.cell), e.type->name());
  return req.take();
}

/// Response status check; positions `r` at the body.
bool response_ok(net::WireReader& r, std::uint32_t id) {
  const serve::ResponseHead head = serve::read_response_head(r);
  return r.ok() && head.status == serve::Status::kOk && head.request_id == id;
}

Outcome run_eco_workload(const Args& a, std::vector<double>& setup_times,
                         SpanRecorder& spans) {
  Outcome out;
  Setup s = first_setup(a, setup_times, out);
  const Library& lib = *s.lib;
  const Design& d = *s.design;
  const std::string po_name =
      d.netlist.net(s.service->baseline().critical_net).name;

  std::filesystem::create_directories(".bench_build");
  const std::string sock =
      ".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock";
  std::filesystem::remove(sock);
  serve::Daemon daemon(net::Endpoint::unix_path(sock), *s.service);
  DaemonThread runner(daemon);
  net::Client client(daemon.endpoint());

  std::uint32_t id = 1;
  std::uint32_t session = 0;
  {
    const std::string resp = client.call(serve::make_session_open(id));
    net::WireReader r(resp);
    out.check(response_ok(r, id), "session open failed");
    session = r.u32();
    ++id;
  }

  GateNetlist mirror = d.netlist;  // the same edits, applied locally
  Rng rng(derive_seed(a.seed, 23));
  std::vector<Edit> edits;
  std::vector<double> edit_s, query_s;
  // Traced runs split the window between the daemon loop and the two
  // in-process replays of the same stream.
  const double window = a.trace ? a.seconds / 3.0 : a.seconds;
  bool warm = false;
  const auto t0 = Clock::now();
  while (!warm || seconds_since(t0) < window) {
    const Edit e = next_edit(rng, mirror, lib.cells);
    const std::string edit_req = edit_payload(id, session, e);
    const std::string query_req =
        serve::make_session_query(id + 1, session, po_name);
    try {
      const auto c0 = Clock::now();
      const std::string edit_resp = client.call(edit_req);
      const auto c1 = Clock::now();
      const std::string query_resp = client.call(query_req);
      const auto c2 = Clock::now();
      net::WireReader er(edit_resp), qr(query_resp);
      out.check(response_ok(er, id), "session edit not kOk");
      out.check(response_ok(qr, id + 1), "session query not kOk");
      if (warm) {
        edit_s.push_back(std::chrono::duration<double>(c1 - c0).count());
        query_s.push_back(std::chrono::duration<double>(c2 - c1).count());
      }
    } catch (const std::exception& e2) {
      out.fail(std::string("daemon call threw: ") + e2.what());
    }
    if (!warm) out.metrics["peak_rss_mb"] = peak_rss_mb();
    mirror.set_cell_type(e.cell, *e.type);
    edits.push_back(e);
    id += 2;
    warm = true;
  }

  // Oracle: the session's arrivals at every PO equal a fresh full STA of
  // the locally edited copy.
  const StaEngine fresh_engine(lib.cell_model, lib.tech);
  const StaEngine::Result fresh = fresh_engine.run(mirror, d.parasitics);
  bool session_ok = true;
  for (const int po : mirror.primary_outputs()) {
    const std::string resp = client.call(
        serve::make_session_query(id, session, mirror.net(po).name));
    net::WireReader r(resp);
    bool ok = response_ok(r, id);
    ++id;
    const std::uint32_t net = r.u32();
    const bool reachable = r.u8() != 0;
    const StaEngine::NetTime& t = fresh.nets[static_cast<std::size_t>(po)];
    ok = ok && net == static_cast<std::uint32_t>(po) &&
         reachable == t.reachable;
    for (const double want : {t.arrival[0], t.arrival[1], t.slew[0],
                              t.slew[1], fresh.max_arrival}) {
      ok = ok && same_bits(r.f64(), want);
    }
    ok = ok && r.ok();
    out.check(ok, "session arrival at PO '" + mirror.net(po).name +
                      "' differs from a fresh StaEngine::run");
    session_ok = session_ok && ok;
  }
  out.notes.push_back(std::string("session vs fresh STA at ") +
                      std::to_string(mirror.primary_outputs().size()) +
                      " POs after " + std::to_string(edits.size()) +
                      " edits: " + (session_ok ? "identical" : "DIFFERENT"));
  client.close();
  const std::string daemon_error = runner.stop();
  std::filesystem::remove(sock);
  if (!daemon_error.empty()) out.fail("daemon: " + daemon_error);

  if (!a.trace) {
    latency_metrics(out, "session edit round trip", edit_s,
                    "session query round trip", query_s);
    return out;
  }

  // Replay 1: the same edit stream through IncrementalSta in process.
  {
    GateNetlist nl = d.netlist;
    IncrementalSta incr(lib.cell_model, lib.tech);
    incr.bind(nl, d.parasitics);
    std::vector<double> cells;
    double full_reruns = 0.0;
    for (const Edit& e : edits) {
      nl.set_cell_type(e.cell, *e.type);
      Scope sp(spans, "sta.incremental.update");
      incr.update();
      const auto& st = incr.last_stats();
      sp.set_items(st.cells_recomputed);
      cells.push_back(static_cast<double>(st.cells_recomputed));
      full_reruns += st.full_rerun ? 1.0 : 0.0;
    }
    out.check(digest(incr.result()) == digest(fresh),
              "in-process incremental replay differs from a fresh run");
    const auto upd = spans.durations("sta.incremental.update");
    const double q = tail_quantile(upd.size());
    out.metrics["sta.incremental.update_p50_s"] = median(upd);
    out.metrics["sta.incremental.update_p99_s"] = quantile(upd, q);
    out.metrics["sta.incremental.cells_recomputed_p50"] = median(cells);
    out.metrics["sta.incremental.cells_recomputed_p99"] = quantile(cells, q);
    out.metrics["sta.incremental.full_reruns"] = full_reruns;
  }

  // Replay 2: the same payloads through Service::handle in process.
  {
    serve::Service local(service_refs(s));
    const int conn = 1;
    std::uint64_t seq = 0;
    std::uint32_t rid = 1;
    const auto opened =
        local.handle(conn, seq++, serve::make_session_open(rid));
    net::WireReader r(opened.response);
    out.check(response_ok(r, rid), "in-process session open failed");
    const std::uint32_t lsession = r.u32();
    ++rid;
    for (const Edit& e : edits) {
      const std::string edit_req = edit_payload(rid, lsession, e);
      const std::string query_req =
          serve::make_session_query(rid + 1, lsession, po_name);
      std::string edit_resp, query_resp;
      {
        Scope sp(spans, "serve.handle.edit");
        edit_resp = local.handle(conn, seq++, edit_req).response;
      }
      {
        Scope sp(spans, "serve.handle.query");
        query_resp = local.handle(conn, seq++, query_req).response;
      }
      net::WireReader er(edit_resp), qr(query_resp);
      out.check(response_ok(er, rid), "in-process edit not kOk");
      out.check(response_ok(qr, rid + 1), "in-process query not kOk");
      rid += 2;
    }
    const auto h_edit = spans.durations("serve.handle.edit");
    const auto h_query = spans.durations("serve.handle.query");
    out.metrics["serve.handle_edit_p50_us"] = median(h_edit) * 1e6;
    out.metrics["serve.handle_edit_p99_us"] =
        quantile(h_edit, tail_quantile(h_edit.size())) * 1e6;
    out.metrics["serve.handle_query_p50_us"] = median(h_query) * 1e6;
    out.metrics["net.overhead_us"] =
        (median(query_s) - median(h_query)) * 1e6;
  }
  profile_sta(lib, d, 0.0, 5, spans, out);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "signoff_wide", "deep_narrow", "nsigma_stat", "eco_session"};
  return names;
}

unsigned workload_lanes(const std::string& workload) {
  // eco_session: the client thread plus the daemon thread and two pool
  // workers (the daemon's batch lanes) make four threads.
  return workload == "eco_session" ? 3 : kLanes;
}

Outcome run_workload(const Args& args, SpanRecorder& spans) {
  Outcome out;
  std::vector<double> setup_times;
  if (args.workload == "signoff_wide" || args.workload == "deep_narrow") {
    out = run_sta_workload(args, setup_times, spans);
  } else if (args.workload == "nsigma_stat") {
    out = run_nsigma_workload(args, setup_times, spans);
  } else if (args.workload == "eco_session") {
    out = run_eco_workload(args, setup_times, spans);
  } else {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  // setup_s is an end-to-end metric: traced runs do not report it.
  if (!args.trace) repeat_setups(args, std::move(setup_times), out);
  return out;
}

}  // namespace perfbench
