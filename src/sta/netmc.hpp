#pragma once
// Whole-netlist Monte-Carlo SSTA — the circuit-level accuracy yardstick
// (Table-III-scale comparisons) the path-based golden reference cannot
// provide: PathMonteCarlo simulates one extracted path at a time, while
// this engine samples the complete timing graph, so every PO's arrival
// distribution (and the max over all of them) is observed jointly.
//
// Each sample draws one die-to-die corner (a shared standard-normal per
// domain: cell delays, wire delays) plus per-instance and per-net local
// variation, then runs a full levelized arrival propagation over the
// frozen system of sta/statarcs: per arc, cell_stage_delay (calibrated
// mu/sigma with an optional Cornish-Fisher gamma/kappa shaping) plus
// wire_stage_delay (Elmore scaled by the Eq. 7 variability X_w).
// AnalyticSsta integrates the same StatArc records through the same two
// functions under the same die-to-die split, so the two should agree
// moment by moment within sampling error, and the residual is the
// analytic max's approximation error.
//
// Sharding/determinism contract (same as PathMonteCarlo): samples shard
// across the persistent ThreadPool with counter-based per-sample RNG
// forks; per-net statistics stream into Pebay/Welford accumulators grouped
// into kAccumBlocks fixed sample blocks whose boundaries depend only on
// the sample count, and the blocks merge in index order — so results are
// byte-identical at any thread count and any scheduling grain. Within a
// block, samples walk the tasks in batches of 8, and the per-PO endpoint
// statistics are computed in parallel once every sample is in; neither
// changes a bit. Memory stays O(kAccumBlocks * nets) for the streaming
// statistics, 8 * (2 * nets + cells + nets) doubles of scratch per chunk,
// plus O(POs * samples) for the retained endpoint sample vectors (the
// empirical -3s..+3s quantiles fall out of those).

#include <array>
#include <cstddef>
#include <functional>
#include <vector>

#include "core/mcconfig.hpp"
#include "core/nsigma_cell.hpp"
#include "core/nsigma_wire.hpp"
#include "netlist/netlist.hpp"
#include "parasitics/spef.hpp"
#include "sta/engine.hpp"
#include "sta/netmc_checkpoint.hpp"
#include "sta/statarcs.hpp"
#include "stats/moments.hpp"
#include "util/diag.hpp"

namespace nsdc {

/// The statistical model knobs plus the netlist MC's checkpoint and shard
/// controls (execution policy — samples, seed, pool, lanes — comes from
/// the shared McConfig instead).
struct NetMcOptions : StatModelOptions {
  /// When non-empty, stream completed accumulation blocks to this
  /// checkpoint file (see sta/netmc_checkpoint.hpp for the format). A run
  /// killed mid-flight — cancellation, deadline, crash — leaves every
  /// completed block on disk.
  std::string checkpoint_path{};
  /// With checkpoint_path set: restore completed blocks from the file and
  /// compute only the remainder. A missing, mismatched, or damaged
  /// checkpoint degrades to a fresh run with a Result diagnostic, never an
  /// error; the resumed result is byte-identical to an uninterrupted run.
  bool resume = false;
  /// Restrict the run to accumulation blocks [block_begin, block_end) —
  /// the shard-worker hook (src/dist): a worker computes only its block
  /// range, the coordinator merges the per-shard checkpoints. Block
  /// boundaries depend only on the sample count, so every block's values
  /// are identical no matter which process computes it. A partitioning
  /// knob like threads/grain: excluded from the checkpoint fingerprint,
  /// so shard checkpoints resume/merge interchangeably with full-run
  /// ones. The default covers every block. A subset run's Result carries
  /// valid streamed moments and retained samples for its own blocks only
  /// (endpoint moments/quantiles are left empty; samples_done counts the
  /// covered samples) — the merged statistics come from partial_result
  /// over the union of shard checkpoints.
  std::size_t block_begin = 0;
  std::size_t block_end = static_cast<std::size_t>(-1);
  /// Invoked after a block completes — its samples accumulated and, when
  /// checkpointing, its record flushed to disk — with the block index.
  /// Also fired for blocks restored by a resume. Called from worker
  /// threads: must be thread-safe and cheap. Shard workers hang their
  /// progress heartbeats and fault-injection hooks here.
  std::function<void(std::size_t)> on_block_done{};
};

class NetlistMonteCarlo {
 public:
  /// Samples are grouped into this many fixed accumulation blocks (fewer
  /// when samples < kAccumBlocks). Block boundaries depend only on the
  /// sample count, so the streaming-moment merge tree — and therefore the
  /// result — is invariant to thread count and grain. Also the upper bound
  /// on shard parallelism.
  static constexpr std::size_t kAccumBlocks = 32;

  NetlistMonteCarlo(const NSigmaCellModel& cell_model,
                    const NSigmaWireModel& wire_model, const TechParams& tech)
      : cell_model_(cell_model), wire_model_(wire_model), tech_(tech) {}

  NetlistMonteCarlo(const NSigmaCellModel& cell_model,
                    const NSigmaWireModel& wire_model, const TechParams& tech,
                    NetMcOptions options)
      : cell_model_(cell_model),
        wire_model_(wire_model),
        tech_(tech),
        options_(options) {}

  /// Streaming arrival statistics of one net edge (0 = rise at the net).
  struct EdgeStats {
    Moments moments;
    std::size_t count = 0;  ///< samples accumulated (0 = unreachable)
  };

  struct Result {
    /// Per net, per edge: streamed arrival moments. Unreachable nets keep
    /// count == 0.
    std::vector<std::array<EdgeStats, 2>> nets;
    /// Reachable primary-output net ids, ascending. The po_* vectors below
    /// are indexed in parallel with this list.
    std::vector<int> po_nets;
    std::vector<std::vector<double>> po_samples;  ///< worst-edge arrival
    std::vector<Moments> po_moments;
    std::vector<std::array<double, 7>> po_quantiles;  ///< empirical -3s..+3s
    /// Per sample, the max arrival over every PO — the circuit delay.
    std::vector<double> circuit_samples;
    Moments circuit_moments;
    std::array<double, 7> circuit_quantiles{};
    int worst_po = -1;  ///< net id of the PO with the largest mean arrival
    Moments worst_po_moments;
    std::array<double, 7> worst_po_quantiles{};
    unsigned shards = 0;  ///< chunks the sample blocks were scheduled into
    double runtime_seconds = 0.0;
    /// Per net, per edge: non-finite samples quarantined instead of
    /// accumulated (an injected fault or a numeric blow-up). Quarantined
    /// samples bump these counters and the Result diagnostics but never
    /// reach the streamed moments, so reported statistics stay finite.
    std::vector<std::array<std::uint64_t, 2>> quarantined;
    std::uint64_t total_quarantined = 0;
    /// Checkpoint/quarantine events of this run (util/diag records,
    /// deterministic order).
    std::vector<Diagnostic> diagnostics;
    std::uint64_t blocks_resumed = 0;  ///< blocks restored from checkpoint
    std::uint64_t samples_done = 0;    ///< samples covered by the result
  };

  Result run(const GateNetlist& netlist, const ParasiticDb& parasitics,
             const McConfig& config) const;

  /// Rebuilds the statistics a checkpoint holds — the "partial stats"
  /// escape hatch after a cancelled or crashed run. Per-net moments merge
  /// the restored blocks in index order; endpoint moments/quantiles cover
  /// the completed sample ranges only (samples_done says how many).
  static Result partial_result(const McCheckpointData& data);

 private:
  const NSigmaCellModel& cell_model_;
  const NSigmaWireModel& wire_model_;
  TechParams tech_;
  NetMcOptions options_{};
};

}  // namespace nsdc
