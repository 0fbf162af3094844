#pragma once
// The nsdc_serve event loop: one thread owns all socket I/O (a nonblocking
// net::ServerLoop); each pass collects at most one pending request per
// connection — connection-id ascending — into a batch and executes the
// batch on the shared ThreadPool via run_blocks, then queues the responses
// in the same order.
//
// Why one-per-connection batches: requests of one connection are
// serialized (so a session's edit/query stream is applied in order and
// its state needs no locking), while requests of different connections
// run concurrently. The batch order and the per-request sequence numbers
// are derived from connection ids, never from scheduling, so the
// serve.request fault-site index and every per-session response byte are
// the same at any thread count.
//
// Service::handle never throws, so run_blocks never rethrows and the pool
// stays clean for the next batch — a request that fails (including an
// injected serve.request fault) becomes an error response, not a dead
// daemon.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "net/server.hpp"
#include "serve/service.hpp"
#include "util/threading.hpp"

namespace nsdc::serve {

class Daemon {
 public:
  struct Options {
    net::ServerLoop::Options net{};
    /// poll(2) wait per idle pass; bounds request_stop() latency.
    int poll_timeout_ms = 50;
    /// Pool the request batches run on; nullptr = global_pool().
    ThreadPool* pool = nullptr;
    /// External graceful-stop flag, polled once per pass. The tool's
    /// SIGTERM/SIGINT handler just stores true into this atomic (the only
    /// async-signal-safe thing it can do). Once it is set, run() refuses
    /// new connections, executes every request already received, flushes
    /// the responses, then returns. In-flight batches are never cut
    /// mid-execution; partially received frames are abandoned with their
    /// connections. Non-owning; may be null.
    const std::atomic<bool>* drain_stop = nullptr;
  };

  /// Binds and listens. Throws IoError on failure. (Overloads instead of
  /// a defaulted Options argument — see net/server.hpp.)
  Daemon(const net::Endpoint& endpoint, Service& service, Options options);
  Daemon(const net::Endpoint& endpoint, Service& service)
      : Daemon(endpoint, service, Options()) {}

  /// Serves until a kShutdown request or request_stop(). Flushes queued
  /// response bytes before returning.
  void run();

  /// Stops run() from another thread (latency <= poll_timeout_ms).
  /// Abrupt: requests still queued when the flag is seen are dropped.
  void request_stop() { stop_.store(true, std::memory_order_release); }

  /// Resolved TCP port (0 for unix endpoints).
  std::uint16_t port() const { return loop_.port(); }
  const net::Endpoint& endpoint() const { return loop_.endpoint(); }

  std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  /// Executes pending requests batch by batch until none remain (or a
  /// shutdown request landed).
  void drain();
  void drop_connection(int conn);

  net::ServerLoop loop_;
  Service& service_;
  Options options_;
  /// Received-but-not-yet-executed requests, per connection.
  std::map<int, std::deque<std::string>> pending_;
  std::uint64_t next_seq_ = 0;
  std::atomic<std::uint64_t> served_{0};
  std::atomic<bool> stop_{false};

  bool graceful_requested() const {
    return options_.drain_stop != nullptr &&
           options_.drain_stop->load(std::memory_order_acquire);
  }
};

}  // namespace nsdc::serve
