#pragma once
// Nonblocking accept/read/write loop over length-prefixed frames — the
// transport layer of nsdc_serve. One thread owns the loop; poll() drains
// whatever the kernel has ready (new connections, readable bytes, writable
// send queues) and hands complete frames up. send() only queues bytes into
// the connection's buffered send queue and opportunistically flushes; a
// slow reader never blocks the loop, its responses just accumulate until
// its socket drains (bounded by Options::max_sendq_bytes — past that the
// connection is dropped rather than ballooning daemon memory).
//
// Robustness contract (exercised by tests/test_serve.cpp): a frame whose
// declared length exceeds max_frame_bytes poisons that connection's stream
// — the length prefix cannot be trusted to resynchronize — so the
// connection is closed, and the loop carries on. A peer that
// disconnects mid-frame (truncated frame) is detected at EOF and closed.
// Neither event is an error of the loop itself; the daemon never dies on
// client behavior.

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"

namespace nsdc::net {

/// One complete frame received from a connection.
struct InFrame {
  int conn = -1;
  std::string payload;
};

/// What one poll() pass observed.
struct PollResult {
  std::vector<InFrame> frames;  ///< complete frames, connection order
  std::vector<int> closed;      ///< connections that went away this pass
};

class ServerLoop {
 public:
  struct Options {
    std::size_t max_frame_bytes = 1u << 20;   ///< request payload cap
    std::size_t max_sendq_bytes = 64u << 20;  ///< per-conn response backlog
    int backlog = 64;                         ///< listen(2) backlog
  };

  /// Binds and listens. Throws IoError on failure. (Two overloads instead
  /// of a defaulted argument: GCC cannot use a nested class's default
  /// member initializers in a default argument of the enclosing class.)
  ServerLoop(const Endpoint& endpoint, Options options);
  explicit ServerLoop(const Endpoint& endpoint)
      : ServerLoop(endpoint, Options()) {}
  ~ServerLoop();
  ServerLoop(const ServerLoop&) = delete;
  ServerLoop& operator=(const ServerLoop&) = delete;

  /// One pass: waits up to `timeout_ms` for readiness, accepts pending
  /// connections, reads available bytes into per-connection frame
  /// decoders, flushes pending send queues. Complete frames and closed
  /// connections land in `out` (cleared first).
  void poll(int timeout_ms, PollResult* out);

  /// Frames `payload` and queues it for `conn`, then attempts an
  /// immediate nonblocking flush. Returns false when the connection is
  /// unknown or had to be dropped (peer gone, send queue overflow) — the
  /// caller should release any per-connection state.
  bool send(int conn, std::string_view payload);

  /// True while any connection has queued bytes (the daemon's shutdown
  /// path polls until this clears so final responses reach their peers).
  bool any_send_pending() const;

  /// Drops one connection (queued bytes are discarded).
  void close_conn(int conn);

  /// Graceful-shutdown step: closes the listening socket so new connects
  /// are refused, while established connections keep reading/flushing
  /// through poll(). Idempotent.
  void stop_accepting();

  /// Resolved TCP port (0 for unix endpoints).
  std::uint16_t port() const { return port_; }
  const Endpoint& endpoint() const { return endpoint_; }

 private:
  struct Conn {
    int fd = -1;
    FrameDecoder decoder;
    std::deque<std::string> sendq;  ///< framed bytes awaiting the kernel
    std::size_t send_offset = 0;    ///< bytes of sendq.front() already sent
    std::size_t sendq_bytes = 0;
    explicit Conn(std::size_t max_frame) : decoder(max_frame) {}
  };

  void accept_pending(PollResult* out);
  /// Reads until EAGAIN/EOF; returns false when the conn must close.
  bool read_conn(int id, Conn& conn, PollResult* out);
  /// Writes until EAGAIN or empty; returns false on a broken pipe.
  bool flush_conn(Conn& conn);
  void destroy_conn(int id);

  Endpoint endpoint_;
  Options options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int next_conn_id_ = 0;
  std::map<int, Conn> conns_;  ///< ordered: deterministic iteration
};

}  // namespace nsdc::net
