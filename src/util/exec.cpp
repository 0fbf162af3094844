#include "util/exec.hpp"

#include <algorithm>
#include <atomic>

#include "util/argparse.hpp"

namespace nsdc {

namespace {

/// The context's pool; the process-global pool when none is set.
ThreadPool& pool_of(const ExecContext& exec) {
  return exec.pool != nullptr ? *exec.pool : global_pool();
}

/// Runs body(begin, end) over [0, count) in blocks of `block` indices,
/// polling the context's token once per block.
unsigned run_guarded_blocks(
    const ExecContext& exec, std::size_t count, std::size_t block,
    const std::function<void(std::size_t, std::size_t)>& body) {
  CancellationToken* token = exec.cancel;
  return pool_of(exec).run_blocks(
      count, block, [token, &body](std::size_t begin, std::size_t end) {
        if (token != nullptr) token->throw_if_cancelled();
        body(begin, end);
      });
}

}  // namespace

unsigned ExecContext::resolved_threads() const {
  return threads != 0 ? threads : default_threads();
}

std::size_t ExecContext::resolved_grain(std::size_t call_grain) const {
  if (grain != 0) return grain;
  // Validated parse: a garbage NSDC_GRAIN warns and defers to the per-call
  // grain instead of silently scheduling with grain 0.
  if (const long long n =
          env_integer_or("NSDC_GRAIN", 0, 1, 1LL << 40);
      n > 0) {
    return static_cast<std::size_t>(n);
  }
  return call_grain;
}

ExecContext ExecContext::with_threads(unsigned override_threads) const {
  ExecContext out = *this;
  if (override_threads != 0) out.threads = override_threads;
  return out;
}

unsigned ExecContext::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return 0;
  // Cooperative cancellation: poll the token before every index. The
  // throwing path reuses the pool's first-exception machinery, so the pool
  // is immediately reusable after a cancelled loop.
  const std::size_t n =
      std::min<std::size_t>(std::max(1u, resolved_threads()), count);
  CancellationToken* token = cancel;
  return pool_of(*this).run_blocks(
      count, (count + n - 1) / n,
      [token, &fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (token != nullptr) token->throw_if_cancelled();
          fn(i);
        }
      });
}

unsigned ExecContext::parallel_for_claimed(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return 0;
  // One pool block per lane; each block claims indices one at a time, so a
  // lane that drew a long item does not hold back the items behind it.
  const std::size_t lanes =
      std::min<std::size_t>(std::max(1u, resolved_threads()), count);
  CancellationToken* token = cancel;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  return pool_of(*this).run_blocks(
      lanes, 1, [&, token](std::size_t, std::size_t) {
        try {
          while (!failed.load()) {
            const std::size_t i = cursor.fetch_add(1);
            if (i >= count) return;
            if (token != nullptr) token->throw_if_cancelled();
            fn(i);
          }
        } catch (...) {
          failed.store(true);
          throw;
        }
      });
}

unsigned ExecContext::parallel_for_autotuned(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return 0;
  // One block (a batch narrower than two minimum blocks) is run inline on
  // the caller by ThreadPool::run_blocks after the single token poll.
  const std::size_t blocks = std::max<std::size_t>(
      1, std::min<std::size_t>(std::max(1u, resolved_threads()),
                               count / resolved_grain(kAutotunedMinBlock)));
  return run_guarded_blocks(*this, count, (count + blocks - 1) / blocks,
                            [&fn](std::size_t begin, std::size_t end) {
                              for (std::size_t i = begin; i < end; ++i) fn(i);
                            });
}

unsigned ExecContext::parallel_for_chunked(
    std::size_t count, std::size_t call_grain,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  if (count == 0) return 0;
  // Chunked loops poll once per chunk; bodies with long-running chunks
  // (the MC sample loops) additionally poll per sample via check_cancel().
  const std::size_t n =
      std::min<std::size_t>(std::max(1u, resolved_threads()), count);
  const std::size_t per_lane = (count + n - 1) / n;
  const std::size_t block =
      std::max(std::max<std::size_t>(1, resolved_grain(call_grain)), per_lane);
  return run_guarded_blocks(*this, count, block, fn);
}

}  // namespace nsdc
