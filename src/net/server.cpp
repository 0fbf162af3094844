#include "net/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace nsdc::net {

ServerLoop::ServerLoop(const Endpoint& endpoint, Options options)
    : endpoint_(endpoint), options_(options) {
  listen_fd_ = listen_socket(endpoint_, options_.backlog, &port_);
  if (endpoint_.kind == Endpoint::Kind::kTcp) endpoint_.port = port_;
}

ServerLoop::~ServerLoop() {
  for (auto& [id, conn] : conns_) close_fd(conn.fd);
  close_fd(listen_fd_);
  if (endpoint_.kind == Endpoint::Kind::kUnix) {
    ::unlink(endpoint_.path.c_str());
  }
}

void ServerLoop::accept_pending(PollResult* out) {
  (void)out;
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; the loop stays up
    }
    set_nonblocking(fd);
    const int id = next_conn_id_++;
    conns_.emplace(id, Conn(options_.max_frame_bytes));
    conns_.at(id).fd = fd;
  }
}

bool ServerLoop::read_conn(int id, Conn& conn, PollResult* out) {
  char buf[65536];
  for (;;) {
    const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (got > 0) {
      conn.decoder.feed(buf, static_cast<std::size_t>(got));
      std::string payload;
      while (conn.decoder.pop(&payload)) {
        out->frames.push_back({id, std::move(payload)});
      }
      if (conn.decoder.oversized()) {
        return false;  // length prefix untrustworthy: drop the connection
      }
      continue;
    }
    if (got == 0) {
      // Peer closed. Bytes short of a frame boundary mean the last frame
      // was truncated: there is nothing to deliver.
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // ECONNRESET and friends
  }
}

bool ServerLoop::flush_conn(Conn& conn) {
  while (!conn.sendq.empty()) {
    const std::string& front = conn.sendq.front();
    const char* data = front.data() + conn.send_offset;
    const std::size_t left = front.size() - conn.send_offset;
    const ssize_t sent = ::send(conn.fd, data, left, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // EPIPE etc: peer is gone
    }
    conn.send_offset += static_cast<std::size_t>(sent);
    conn.sendq_bytes -= static_cast<std::size_t>(sent);
    if (conn.send_offset == front.size()) {
      conn.sendq.pop_front();
      conn.send_offset = 0;
    }
  }
  return true;
}

void ServerLoop::destroy_conn(int id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  close_fd(it->second.fd);
  conns_.erase(it);
}

void ServerLoop::poll(int timeout_ms, PollResult* out) {
  out->frames.clear();
  out->closed.clear();

  std::vector<pollfd> fds;
  std::vector<int> ids;  // ids[i] corresponds to fds[i + 1]
  fds.reserve(conns_.size() + 1);
  fds.push_back({listen_fd_, POLLIN, 0});
  for (const auto& [id, conn] : conns_) {
    short events = POLLIN;
    if (!conn.sendq.empty()) events |= POLLOUT;
    fds.push_back({conn.fd, events, 0});
    ids.push_back(id);
  }

  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready <= 0) return;  // timeout or EINTR: nothing to do this pass

  if ((fds[0].revents & POLLIN) != 0) accept_pending(out);

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const int id = ids[i];
    const short revents = fds[i + 1].revents;
    if (revents == 0) continue;
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn& conn = it->second;
    bool alive = true;
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      alive = read_conn(id, conn, out);
    }
    if (alive && (revents & POLLOUT) != 0) alive = flush_conn(conn);
    if (!alive) {
      out->closed.push_back(id);
      destroy_conn(id);
    }
  }
}

bool ServerLoop::send(int conn_id, std::string_view payload) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return false;
  Conn& conn = it->second;
  std::string framed = encode_frame(payload);
  conn.sendq_bytes += framed.size();
  conn.sendq.push_back(std::move(framed));
  if (conn.sendq_bytes > options_.max_sendq_bytes || !flush_conn(conn)) {
    // A reader this far behind (or already gone) forfeits the connection;
    // unbounded buffering would trade one slow client for daemon memory.
    destroy_conn(conn_id);
    return false;
  }
  return true;
}

bool ServerLoop::any_send_pending() const {
  for (const auto& [id, conn] : conns_) {
    if (!conn.sendq.empty()) return true;
  }
  return false;
}

void ServerLoop::close_conn(int conn_id) { destroy_conn(conn_id); }

void ServerLoop::stop_accepting() {
  // poll() skips negative fds (POSIX: events ignored, revents zeroed), so
  // the listen slot in the pollfd array goes inert without reindexing.
  close_fd(listen_fd_);
  listen_fd_ = -1;
  if (endpoint_.kind == Endpoint::Kind::kUnix) {
    ::unlink(endpoint_.path.c_str());
  }
}

}  // namespace nsdc::net
