#pragma once
// Parallel execution primitives shared by every compute-heavy subsystem.
//
// ThreadPool keeps a set of long-lived workers behind a condition-variable
// task queue, so repeated fork-join regions (per-level STA propagation,
// Monte-Carlo sample loops, characterization grids) pay for thread startup
// once per process instead of once per call. Work is partitioned into
// statically-sized index blocks; blocks are data-disjoint, so results are
// bit-identical for any worker count as long as per-index state (RNG
// streams, output slots) is derived from the index alone — which is the
// convention everywhere in this codebase.
//
// The calling thread always participates in executing blocks, so a pool
// with zero workers (or a nested parallel_for issued from inside a worker)
// still makes progress and completes serially. Loops are issued through
// ExecContext (util/exec.hpp), which picks the pool, lanes and block size.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace nsdc {

class ThreadPool {
 public:
  /// Spawns exactly `workers` long-lived worker threads (0 is legal: all
  /// work then runs on the calling thread).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (the calling thread adds one more lane).
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Runs body(begin, end) over [0, count) split into blocks of
  /// `block_size` indices. Blocks are claimed dynamically by the caller
  /// and any free workers; the block boundaries themselves are static, so
  /// per-block side effects land in deterministic index ranges.
  /// The first exception thrown by any block is rethrown on the caller
  /// after all claimed blocks finish; remaining unclaimed blocks are
  /// skipped (fail-fast). A single-block job, or any job on a zero-worker
  /// pool, runs in index order on the calling thread without touching the
  /// queue or the pool mutex.
  /// Returns the number of blocks (the effective parallelism).
  unsigned run_blocks(std::size_t count, std::size_t block_size,
                      const std::function<void(std::size_t, std::size_t)>& body);

 private:
  struct Job;
  void worker_loop();
  /// Claims and runs one block of `job`; false when no blocks remain.
  bool run_one_block(Job& job);
  /// Removes `job` from the queue if it is still enqueued.
  void dequeue(const std::shared_ptr<Job>& job);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool stop_ = false;
};

/// The process-global pool, used by every ExecContext loop that names no
/// pool. Created on first use with default_threads() - 1 workers (caller
/// participation supplies the last lane).
ThreadPool& global_pool();

/// The process-default worker-lane count: set_default_threads() override
/// if present, else the NSDC_THREADS environment variable, else
/// std::thread::hardware_concurrency(). Always >= 1.
unsigned default_threads();

/// Overrides default_threads() for the whole process (0 restores the
/// environment/hardware default). Takes effect for the partition width of
/// subsequent calls; the global pool's thread count is fixed at first use.
void set_default_threads(unsigned threads);

}  // namespace nsdc
