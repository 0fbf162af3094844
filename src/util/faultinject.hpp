#pragma once
// Deterministic fault injection for the robustness test matrix.
//
// A FaultPlan is a list of (site, index) -> action triggers. Instrumented
// code names its preemption points with stable site strings and the
// deterministic index it is about to process, e.g.
//   fault_fire("netmc.block", b, token)
// and the plan decides whether that exact visit throws, cancels the run,
// poisons the sample with NaN, or truncates the file being written.
// Because every trigger is keyed on a deterministic index (accumulation
// block, sample number, checkpoint record) and never on wall-clock or
// thread identity, a faulted run is reproducible bit-for-bit — which is
// what lets the kill/resume equivalence tests assert byte-identical
// statistics.
//
// Plan grammar (NSDC_FAULTS environment variable, or install_fault_plan):
//   plan   := spec (';' spec)*
//   spec   := site '@' index '=' action
//   action := 'throw' | 'cancel' | 'nan' | 'truncate' ':' bytes
// Example:
//   NSDC_FAULTS="netmc.block@3=throw;netmc.sample@100=nan"
//
// Instrumented sites:
//   netmc.block       index = accumulation block, before its samples run
//   netmc.sample      index = sample number (nan poisons that sample)
//   pathmc.sample     index = sample number of the path MC reference
//   ssta.level        index = levelized barrier of the analytic SSTA
//                     engine, before that level's tasks dispatch
//   sta.level         index = level of StaEngine::run's propagation, before
//                     that level's cells dispatch (inline or on the pool)
//   checkpoint.write  index = block record being appended (truncate:N cuts
//                     N bytes off the file after the record is flushed)
//   analyze.interval  index = net id in the static interval propagation
//                     (nan collapses that net's certified arrival bounds
//                     to [0, 0], proving the verify-engines gate fires)
//   flatgraph.compile index = topological level being packed into the
//                     FlatTimingGraph (throw/cancel abort the compile
//                     before any engine consumes the graph)
//   serve.request     index = the daemon's deterministic request sequence
//                     number, fired before the request dispatches (throw
//                     -> internal-error response, cancel -> cancelled
//                     response; the daemon survives either and keeps
//                     serving)
//   dist.worker.spawn index = worker spawn sequence in the shard
//                     coordinator (throw -> that spawn fails, consuming
//                     spawn budget; the run degrades, never aborts)
//   dist.worker.kill  index = attempt*10000 + work unit, fired in the
//                     worker process after the unit is durable (throw ->
//                     raise(SIGKILL): crash mid-shard; cancel -> hang with
//                     heartbeats beating, so only the shard deadline
//                     reclaims it)
//   dist.heartbeat    index = worker_id*1000 + beat sequence (any action
//                     -> the worker goes permanently silent without dying;
//                     the missed-heartbeat watchdog must reap it)
//   dist.shard.checkpoint
//                     index = shard*100 + validation attempt, fired when
//                     the coordinator validates a completed MC shard
//                     (truncate:N tears N bytes off the shard checkpoint
//                     before loading; throw -> validation failure; either
//                     way the shard retries and the merged statistics must
//                     stay byte-identical)
//
// The global plan is parsed lazily from NSDC_FAULTS on first query;
// install_fault_plan / clear_fault_plan override it (tests). Queries are
// lock-free when no plan is active, so release builds with no NSDC_FAULTS
// pay one relaxed atomic load per site visit.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/cancel.hpp"

namespace nsdc {

enum class FaultAction : int {
  kNone = 0,
  kThrow,     ///< throw FaultInjectedError at the site
  kCancel,    ///< request_cancel(kFault) on the run's token
  kNan,       ///< poison the site's sample with quiet NaN
  kTruncate,  ///< truncate the file being written by `arg` bytes
};

struct FaultSpec {
  std::string site;
  std::uint64_t index = 0;
  FaultAction action = FaultAction::kNone;
  std::uint64_t arg = 0;  ///< byte count for kTruncate, 0 otherwise
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses the grammar above; throws nsdc::ParseError on malformed text.
  /// An empty string parses to an empty (inactive) plan.
  static FaultPlan parse(std::string_view text);

  void add(FaultSpec spec) { specs_.push_back(std::move(spec)); }
  bool empty() const noexcept { return specs_.empty(); }
  std::size_t size() const noexcept { return specs_.size(); }
  const std::vector<FaultSpec>& specs() const noexcept { return specs_; }

  /// Action planned for visiting `site` at `index` (kNone when unplanned).
  /// The first matching spec wins; `arg` receives its argument when
  /// non-null.
  FaultAction at(std::string_view site, std::uint64_t index,
                 std::uint64_t* arg = nullptr) const noexcept;

 private:
  std::vector<FaultSpec> specs_;
};

/// Installs `plan` as the process-global plan (replacing NSDC_FAULTS).
void install_fault_plan(FaultPlan plan);

/// Removes the global plan; subsequent queries see no faults. (NSDC_FAULTS
/// is only re-read at process start, not after a clear.)
void clear_fault_plan();

/// True when a non-empty global plan is active (fast path: one atomic).
bool fault_plan_active() noexcept;

/// Global-plan lookup; kNone when no plan is active. Throws ParseError on
/// the first call when NSDC_FAULTS holds a malformed plan (a plan that
/// silently fails to run would defeat its purpose).
FaultAction fault_at(std::string_view site, std::uint64_t index,
                     std::uint64_t* arg = nullptr);

/// Site helper: queries the plan and executes throw/cancel actions in
/// place — kThrow raises FaultInjectedError, kCancel latches `token` (or
/// throws CancelledError directly when `token` is null). kNan/kTruncate
/// are returned for the caller to apply (only the caller knows its sample
/// buffer or file handle).
FaultAction fault_fire(std::string_view site, std::uint64_t index,
                       CancellationToken* token = nullptr,
                       std::uint64_t* arg = nullptr);

}  // namespace nsdc
