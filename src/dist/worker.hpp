#pragma once
// Shard-worker process body (`nsdc_dist --worker`). Rebuilds the
// deterministic DesignBundle, connects to the coordinator with bounded
// connect-retry, and executes Assign orders until Stop (or the
// coordinator's socket disappears — either way exit 0, the coordinator
// owns the outcome).
//
// Per shard, the worker streams Heartbeat frames from a side thread and
// runs the work unit range:
//   MC:  NetlistMonteCarlo over accumulation blocks [lo, hi) with the
//        assignment's checkpoint path and resume=true — a retried shard
//        continues from the longest valid record prefix a previous
//        attempt (or a torn file) left behind.
//   STA: levelized mean-delay propagation restricted to the fanin cones
//        of sorted-PO-list indices [lo, hi), over a graph the worker
//        compiles once, via the flat_kernel functions of the full engine
//        — per-PO results return inline.
//
// Fault sites exercised here (util/faultinject, indices chosen so a
// retried attempt never re-fires a spent trigger):
//   dist.worker.kill   index = attempt*10000 + unit, fired after the unit
//                      is durable. throw => raise(SIGKILL) (crash without
//                      unwinding); cancel => hang with heartbeats still
//                      beating (the per-shard deadline must fire).
//   dist.heartbeat     index = worker_id*1000 + beat sequence. Any action
//                      => the worker goes permanently silent (beats stop,
//                      no ShardDone) while the process stays alive — the
//                      missed-heartbeat watchdog must reap it.

#include <cstdint>
#include <string>

#include "dist/bundle.hpp"
#include "net/socket.hpp"

namespace nsdc::dist {

struct WorkerConfig {
  net::Endpoint endpoint;        ///< coordinator control socket
  std::uint64_t worker_id = 0;   ///< spawn sequence, assigned by the parent
  std::string mode = "mc";       ///< "mc" | "sta"
  BundleSpec bundle;
  int samples = 1024;            ///< MC sample count (full run's)
  std::uint64_t seed = 777;      ///< MC base seed
  unsigned threads = 1;          ///< lanes inside this worker
  int heartbeat_ms = 25;
};

/// Runs the worker loop to completion. Returns the process exit code
/// (0 on an orderly stop).
int run_worker(const WorkerConfig& config);

}  // namespace nsdc::dist
