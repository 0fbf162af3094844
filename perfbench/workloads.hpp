#pragma once
// The benchmark workloads. Each runs a closed loop with one caller for
// Args::seconds after its set-up, checks every result against an oracle
// computed in the same process, and fills an Outcome with either the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Worker lanes a workload may use; the process never runs more than four
/// threads in total.
unsigned workload_lanes(const std::string& workload);

/// Runs `args.workload`. Traced runs record spans into `spans`. Throws on
/// set-up failure (unknown workload, missing library, guard refusal).
Outcome run_workload(const Args& args, SpanRecorder& spans);

}  // namespace perfbench
