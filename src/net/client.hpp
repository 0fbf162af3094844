#pragma once
// Blocking client for the nsdc_serve frame protocol — the counterpart of
// ServerLoop used by tests, the bench throughput record, and embedders
// that want a synchronous call() interface. One Client is one connection;
// it is not thread-safe (use one per thread, the daemon multiplexes).

#include <cstddef>
#include <string>
#include <string_view>

#include "net/socket.hpp"
#include "util/retry.hpp"

namespace nsdc::net {

class Client {
 public:
  /// Connects (blocking). Throws IoError on failure.
  explicit Client(const Endpoint& endpoint);

  /// Connects with bounded retry: a refused or not-yet-bound endpoint
  /// (ECONNREFUSED, ENOENT — the daemon is still starting) is retried on
  /// the policy's deterministic backoff schedule instead of failing the
  /// first attempt. Throws the last IoError once the policy is exhausted.
  /// `sleep` is injectable for tests (default: real sleep).
  Client(const Endpoint& endpoint, const RetryPolicy& retry,
         const RetrySleepFn& sleep = retry_sleep);
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one framed payload. Throws IoError on a broken connection.
  void send_frame(std::string_view payload);

  /// Receives one complete frame (blocking). Throws IoError on EOF or a
  /// malformed length prefix.
  std::string recv_frame();

  /// recv_frame that tolerates a clean end of stream: returns false when
  /// the peer closed at a frame boundary (no partial bytes), fills
  /// `payload` and returns true on a complete frame, and still throws
  /// IoError when the connection dies mid-frame — which is how the
  /// graceful-shutdown tests assert "no truncated response frames".
  bool try_recv_frame(std::string* payload);

  /// Round trip: send_frame + recv_frame.
  std::string call(std::string_view payload) {
    send_frame(payload);
    return recv_frame();
  }

  /// Sends raw unframed bytes — the hook the robustness tests use to feed
  /// the daemon malformed and truncated streams.
  void send_raw(const void* data, std::size_t n);

  void close();
  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

}  // namespace nsdc::net
