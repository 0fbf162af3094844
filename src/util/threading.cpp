#include "util/threading.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/argparse.hpp"

namespace nsdc {

/// One fork-join region in flight. Blocks are claimed via the atomic
/// counter; completion and the first error are tracked under the pool
/// mutex so the issuing thread can sleep on done_cv.
struct ThreadPool::Job {
  std::size_t count = 0;
  std::size_t block_size = 1;
  unsigned num_blocks = 0;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::atomic<unsigned> next{0};
  std::atomic<bool> failed{false};
  unsigned done = 0;         ///< guarded by ThreadPool::mu_
  std::exception_ptr error;  ///< guarded by ThreadPool::mu_
  std::condition_variable done_cv;
};

ThreadPool::ThreadPool(unsigned workers) {
  workers_.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& th : workers_) th.join();
}

bool ThreadPool::run_one_block(Job& job) {
  const unsigned b = job.next.fetch_add(1, std::memory_order_relaxed);
  if (b >= job.num_blocks) return false;
  if (!job.failed.load(std::memory_order_acquire)) {
    const std::size_t begin = static_cast<std::size_t>(b) * job.block_size;
    const std::size_t end = std::min(job.count, begin + job.block_size);
    try {
      (*job.body)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!job.error) job.error = std::current_exception();
      job.failed.store(true, std::memory_order_release);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (++job.done == job.num_blocks) job.done_cv.notify_all();
  }
  return true;
}

void ThreadPool::dequeue(const std::shared_ptr<Job>& job) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (*it == job) {
      queue_.erase(it);
      return;
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    auto job = queue_.front();
    lock.unlock();
    while (run_one_block(*job)) {
    }
    lock.lock();
    if (!queue_.empty() && queue_.front() == job) queue_.pop_front();
  }
}

unsigned ThreadPool::run_blocks(
    std::size_t count, std::size_t block_size,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return 0;
  block_size = std::max<std::size_t>(1, block_size);
  const auto num_blocks =
      static_cast<unsigned>((count + block_size - 1) / block_size);

  // Single block or no workers: run the blocks in index order on the
  // calling thread, with no Job, queue or lock. The first exception
  // propagates straight to the caller and skips the remaining blocks.
  if (num_blocks == 1 || workers_.empty()) {
    for (std::size_t begin = 0; begin < count; begin += block_size) {
      body(begin, std::min(count, begin + block_size));
    }
    return num_blocks;
  }

  auto job = std::make_shared<Job>();
  job->count = count;
  job->block_size = block_size;
  job->num_blocks = num_blocks;
  job->body = &body;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(job);
  }
  work_cv_.notify_all();

  // The caller is a full work lane: claim blocks until exhausted, then
  // sleep until the in-flight ones (claimed by workers) drain.
  while (run_one_block(*job)) {
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    job->done_cv.wait(lock, [&] { return job->done == job->num_blocks; });
  }
  dequeue(job);
  if (job->error) std::rethrow_exception(job->error);
  return job->num_blocks;
}

namespace {

std::atomic<unsigned> g_default_threads{0};

unsigned env_threads() {
  // Validated parse: garbage ("foo", "4x", "-2", 0) warns once per query
  // and falls back to 0 = "unset" instead of silently configuring 0 lanes.
  return static_cast<unsigned>(env_integer_or("NSDC_THREADS", 0, 1, 4096));
}

}  // namespace

unsigned default_threads() {
  if (const unsigned forced = g_default_threads.load()) return forced;
  if (const unsigned env = env_threads()) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void set_default_threads(unsigned threads) { g_default_threads.store(threads); }

ThreadPool& global_pool() {
  // Sized so that caller + workers == default_threads() at first use.
  static ThreadPool pool(default_threads() - 1);
  return pool;
}

}  // namespace nsdc
