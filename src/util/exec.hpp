#pragma once
// ExecContext: the execution policy handed down through the timing flow
// (STA engine, statistical propagation, Monte-Carlo loops, library
// characterization). Bundles which pool to run on and how many lanes to
// use, so thread count is configurable end-to-end from one place
// (NSDC_THREADS env var, the flow tools' --threads flag, or a test's
// explicit context) without every API growing its own knob.

#include <cstddef>
#include <functional>

#include "util/cancel.hpp"
#include "util/threading.hpp"

namespace nsdc {

struct ExecContext {
  /// Pool to run on; nullptr means the process-global pool.
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation/deadline/sample-budget token; nullptr means
  /// the run cannot be cancelled. Non-owning — the token must outlive
  /// every loop issued through this context. The parallel_for wrappers
  /// poll it once per index (per block for the chunked and autotuned
  /// variants) and abort by throwing nsdc::CancelledError through the
  /// pool's normal first-exception rethrow, so a cancelled pool stays
  /// reusable.
  CancellationToken* cancel = nullptr;
  /// Lane count for partitioning; 0 means default_threads().
  unsigned threads = 0;
  /// Grain override for parallel_for_chunked and parallel_for_autotuned:
  /// when nonzero it replaces the caller's per-call grain (for the
  /// autotuned loop, its minimum block). 0 defers to the NSDC_GRAIN
  /// environment variable, then to the per-call default. Grain affects
  /// scheduling only — callers that accumulate per chunk must derive their
  /// reduction structure from the index space, never from chunk
  /// boundaries, so results stay bit-identical at every grain setting.
  std::size_t grain = 0;

  /// parallel_for_autotuned's default minimum block. A batch of fewer than
  /// two blocks runs inline on the calling thread: below that, a pool
  /// round trip (~8 us) costs more than the work it would spread (a
  /// 10-cell STA level is ~2 us).
  static constexpr std::size_t kAutotunedMinBlock = 256;

  /// The lane count this context resolves to (>= 1).
  unsigned resolved_threads() const;

  /// The effective grain for a chunked loop whose per-call default is
  /// `call_grain`: the explicit `grain` field wins, then NSDC_GRAIN (read
  /// per call so tests and sweeps can vary it), then `call_grain`.
  std::size_t resolved_grain(std::size_t call_grain) const;

  /// This context with its lane count replaced when `override_threads` is
  /// nonzero — the idiom for configs that keep a legacy `threads` field.
  ExecContext with_threads(unsigned override_threads) const;

  /// parallel_for on this context's pool/lanes; returns blocks used.
  unsigned parallel_for(std::size_t count,
                        const std::function<void(std::size_t)>& fn) const;

  /// The dispatch for few, uneven items (the SSTA's level tasks, whose cost
  /// follows their fanin cone): min(lanes, count) lanes each claim the next
  /// index in ascending order from one shared cursor until none is left,
  /// polling the token before every index. Once an index throws, no lane
  /// claims another; the first exception is rethrown on the caller. With
  /// one lane, or on a pool without workers, fn runs in index order on the
  /// calling thread. Returns lanes used.
  unsigned parallel_for_claimed(
      std::size_t count, const std::function<void(std::size_t)>& fn) const;

  /// Chunked variant with a minimum block size of resolved_grain(call_grain)
  /// indices (see the `grain` field for the override order).
  unsigned parallel_for_chunked(
      std::size_t count, std::size_t call_grain,
      const std::function<void(std::size_t, std::size_t)>& fn) const;

  /// The dispatch for per-level batches (STA and interval propagation)
  /// whose per-index work is small. With a minimum block of
  /// resolved_grain(kAutotunedMinBlock) indices — so an explicit `grain`
  /// or NSDC_GRAIN replaces the floor — the batch splits into
  /// min(lanes, count / block) equal blocks; when that is one block, fn
  /// runs inline on the calling thread after a single cancellation poll.
  /// Returns blocks used (1 for the inline path).
  unsigned parallel_for_autotuned(
      std::size_t count, const std::function<void(std::size_t)>& fn) const;

  /// Throws CancelledError when the attached token (if any) has fired.
  /// Inner loops with long per-index work call this between samples.
  void check_cancel() const {
    if (cancel != nullptr) cancel->throw_if_cancelled();
  }

  /// True when a token is attached and has fired (non-throwing poll).
  bool cancelled() const noexcept {
    return cancel != nullptr && cancel->cancelled();
  }
};

}  // namespace nsdc
