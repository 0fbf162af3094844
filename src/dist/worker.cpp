#include "dist/worker.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <mutex>
#include <optional>
#include <thread>

#include "core/mcconfig.hpp"
#include "dist/protocol.hpp"
#include "net/client.hpp"
#include "netlist/flatgraph.hpp"
#include "sta/flatsta.hpp"
#include "sta/netmc.hpp"
#include "util/errors.hpp"
#include "util/faultinject.hpp"

namespace nsdc::dist {

namespace {

/// Crash without stack unwinding — the faulted worker must look exactly
/// like a process the OS killed mid-shard.
[[noreturn]] void die_by_sigkill() {
  ::raise(SIGKILL);
  for (;;) ::pause();  // unreachable; SIGKILL cannot be handled
}

/// Wedge the calling thread forever (a hung worker: alive, not working).
[[noreturn]] void hang_forever() {
  for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

/// The dist.worker.kill site: fired after work unit `unit` of attempt
/// `attempt` is durable, so a kill here never loses the unit it reports.
void fire_kill_site(std::uint64_t attempt, std::uint64_t unit) {
  switch (fault_at("dist.worker.kill", attempt * 10000 + unit)) {
    case FaultAction::kThrow:
      die_by_sigkill();
    case FaultAction::kCancel:
      // Hang mid-shard with the heartbeat thread still beating: only the
      // per-shard deadline watchdog can reclaim this worker.
      hang_forever();
    default:
      break;
  }
}

/// MC shard: blocks [lo, hi) into the assignment's checkpoint file.
/// resume=true picks up whatever valid prefix an earlier attempt left.
void run_mc_shard(const WorkerConfig& cfg, const DesignBundle& bundle,
                  const AssignMsg& a, std::atomic<std::uint64_t>& units) {
  NetMcOptions opt;
  opt.block_begin = static_cast<std::size_t>(a.lo);
  opt.block_end = static_cast<std::size_t>(a.hi);
  opt.checkpoint_path = a.checkpoint_path;
  opt.resume = true;
  opt.on_block_done = [&](std::size_t b) {
    units.fetch_add(1, std::memory_order_relaxed);
    fire_kill_site(a.attempt, static_cast<std::uint64_t>(b));
  };
  const NetlistMonteCarlo mc(bundle.cell_model, bundle.wire_model,
                             bundle.tech, opt);
  McConfig mcc;
  mcc.samples = cfg.samples;
  mcc.seed = cfg.seed;
  mcc.threads = cfg.threads;
  (void)mc.run(bundle.netlist, bundle.parasitics, mcc);
}

/// STA shard: propagate only the fanin cones of sorted-PO indices
/// [lo, hi), level by level, with the flat_kernel calls StaEngine::run
/// makes. A PO's NetTime depends only on its fanin cone, so every returned
/// value is byte-identical to the full-netlist run.
std::vector<PoTime> run_sta_shard(const WorkerConfig& cfg,
                                  const DesignBundle& bundle,
                                  const FlatTimingGraph& graph,
                                  const AssignMsg& a,
                                  std::atomic<std::uint64_t>& units) {
  using Id = FlatTimingGraph::Id;
  const GateNetlist& nl = bundle.netlist;
  const auto& pos = nl.primary_outputs();  // ascending net ids
  const std::size_t lo = std::min(static_cast<std::size_t>(a.lo), pos.size());
  const std::size_t hi = std::min(static_cast<std::size_t>(a.hi), pos.size());

  // Reverse DFS: the positions whose outputs feed the assigned POs.
  std::vector<char> pos_seen(graph.num_cells(), 0);
  std::vector<Id> stack;
  const auto visit_driver = [&](Id net) {
    const Id d = graph.net_driver_pos(net);
    if (d == FlatTimingGraph::kNoId || pos_seen[d]) return;
    pos_seen[d] = 1;
    stack.push_back(d);
  };
  for (std::size_t i = lo; i < hi; ++i) visit_driver(static_cast<Id>(pos[i]));
  while (!stack.empty()) {
    const Id d = stack.back();
    stack.pop_back();
    for (Id arc = graph.fanin_begin(d); arc < graph.fanin_end(d); ++arc) {
      if (graph.fanin_net(arc) != FlatTimingGraph::kNoId) {
        visit_driver(graph.fanin_net(arc));
      }
    }
  }

  StaEngine::Result res;
  res.nets.resize(nl.num_nets());
  res.annotated.resize(nl.num_nets());
  res.net_load.assign(nl.num_nets(), 0.0);
  const ExecContext exec = ExecContext{}.with_threads(cfg.threads);
  // Annotation and binding are net- and arc-local; covering the whole
  // design keeps them branch-free, and every value matches the full run.
  exec.parallel_for_autotuned(nl.num_nets(), [&](std::size_t n) {
    flat_kernel::flat_annotate_net(graph, nl, bundle.parasitics, bundle.tech,
                                   n, res);
  });
  for (const Id pi : graph.primary_inputs()) {
    auto& nt = res.nets[pi];
    nt.reachable = true;
    nt.arrival = {0.0, 0.0};
    nt.slew = {10e-12, 10e-12};
  }
  FlatArcRecords rec;
  flat_kernel::bind_arc_records(graph, bundle.cell_model, res, exec, rec);
  // Work unit l is topological level l (graph level l is netlist level l).
  std::vector<Id> mine;
  for (Id l = 0; l < graph.num_levels(); ++l) {
    mine.clear();
    for (Id p = graph.level_begin(l); p < graph.level_end(l); ++p) {
      if (pos_seen[p]) mine.push_back(p);
    }
    if (!mine.empty()) {
      exec.parallel_for_autotuned(mine.size(), [&](std::size_t i) {
        flat_kernel::flat_propagate_cell(graph, rec, bundle.cell_model,
                                         mine[i], res);
      });
    }
    units.fetch_add(1, std::memory_order_relaxed);
    fire_kill_site(a.attempt, l);
  }

  std::vector<PoTime> out;
  out.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    const auto& nt = res.nets[static_cast<std::size_t>(pos[i])];
    PoTime p;
    p.net = pos[i];
    p.reachable = nt.reachable ? 1 : 0;
    p.arrival = nt.arrival;
    p.slew = nt.slew;
    out.push_back(p);
  }
  return out;
}

}  // namespace

int run_worker(const WorkerConfig& cfg) {
  const DesignBundle bundle = make_bundle(cfg.bundle);
  std::optional<FlatTimingGraph> graph;  // compiled by the first STA shard

  // The coordinator may still be binding its socket when we come up;
  // bounded deterministic backoff instead of a first-connect failure.
  RetryPolicy connect_retry;
  connect_retry.max_retries = 8;
  connect_retry.base_delay_s = 0.02;
  connect_retry.multiplier = 2.0;
  connect_retry.max_delay_s = 0.25;
  net::Client client(cfg.endpoint, connect_retry);

  std::mutex send_mu;  // heartbeat thread and main thread share the socket
  const auto send = [&](const std::string& payload) {
    const std::lock_guard<std::mutex> lock(send_mu);
    client.send_frame(payload);
  };
  send(encode_hello(HelloMsg{cfg.worker_id}));

  std::uint64_t hb_seq = 0;         // process-lifetime beat counter
  std::atomic<bool> wedged{false};  // dist.heartbeat fired: permanent silence

  for (;;) {
    std::string payload;
    try {
      if (!client.try_recv_frame(&payload)) return 0;  // coordinator gone
    } catch (const IoError&) {
      return 0;
    }
    const MsgType type = peek_type(payload);
    if (type == MsgType::kStop) return 0;
    if (type != MsgType::kAssign) continue;  // unknown frames are ignored
    AssignMsg a;
    if (!decode_assign(payload, &a)) continue;

    std::atomic<std::uint64_t> units{0};
    std::atomic<bool> hb_stop{false};
    std::thread beat([&] {
      while (!hb_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg.heartbeat_ms));
        const std::uint64_t seq = ++hb_seq;
        if (wedged.load(std::memory_order_acquire)) continue;
        // Query-only (fault_at, not fault_fire): a throw from this thread
        // would terminate the process, but the site's contract is
        // silence-while-alive.
        if (fault_at("dist.heartbeat", cfg.worker_id * 1000 + seq) !=
            FaultAction::kNone) {
          wedged.store(true, std::memory_order_release);
          continue;
        }
        HeartbeatMsg hb{cfg.worker_id, a.shard, a.attempt,
                        units.load(std::memory_order_relaxed)};
        try {
          send(encode_heartbeat(hb));
        } catch (const IoError&) {
          break;  // coordinator went away; main loop will see EOF too
        }
      }
    });

    ShardDoneMsg done;
    done.worker_id = cfg.worker_id;
    done.shard = a.shard;
    done.attempt = a.attempt;
    try {
      if (cfg.mode == "sta") {
        if (!graph) graph.emplace(FlatTimingGraph::compile(bundle.netlist));
        done.po_times = run_sta_shard(cfg, bundle, *graph, a, units);
      } else {
        run_mc_shard(cfg, bundle, a, units);
      }
      done.ok = true;
    } catch (const std::exception& e) {
      done.ok = false;
      done.detail = e.what();
    }
    hb_stop.store(true, std::memory_order_release);
    beat.join();
    if (wedged.load(std::memory_order_acquire)) {
      // Silent-worker semantics: the shard finished but the result is
      // never reported — the missed-heartbeat watchdog must reclaim us.
      hang_forever();
    }
    try {
      send(encode_shard_done(done));
    } catch (const IoError&) {
      return 0;
    }
  }
}

}  // namespace nsdc::dist
