#include "net/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/wire.hpp"
#include "util/errors.hpp"

namespace nsdc::net {

Client::Client(const Endpoint& endpoint) : fd_(connect_socket(endpoint)) {}

Client::Client(const Endpoint& endpoint, const RetryPolicy& retry,
               const RetrySleepFn& sleep) {
  // Bounded connect-retry: every IoError from connect_socket (refused,
  // socket file not created yet) is treated as retryable — connecting to a
  // daemon that is still binding its endpoint is the normal race this
  // ctor exists to absorb. The last failure is rethrown verbatim.
  const int attempts = retry.max_attempts();
  for (int a = 0; a < attempts; ++a) {
    if (a > 0 && sleep) sleep(retry.delay_s(a));
    try {
      fd_ = connect_socket(endpoint);
      return;
    } catch (const IoError&) {
      if (a + 1 >= attempts) throw;
    }
  }
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Client::send_raw(const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  std::size_t left = n;
  while (left > 0) {
    const ssize_t sent = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("client send: ") + std::strerror(errno));
    }
    p += sent;
    left -= static_cast<std::size_t>(sent);
  }
}

void Client::send_frame(std::string_view payload) {
  const std::string framed = encode_frame(payload);
  send_raw(framed.data(), framed.size());
}

std::string Client::recv_frame() {
  auto read_exactly = [&](char* dst, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, dst + got, n - got, 0);
      if (r < 0) {
        if (errno == EINTR) continue;
        throw IoError(std::string("client recv: ") + std::strerror(errno));
      }
      if (r == 0) {
        throw IoError("client recv: connection closed by server");
      }
      got += static_cast<std::size_t>(r);
    }
  };
  char header[kFrameHeaderBytes];
  read_exactly(header, sizeof(header));
  WireReader r(std::string_view(header, sizeof(header)));
  const std::uint32_t len = r.u32();
  std::string payload(len, '\0');
  if (len > 0) read_exactly(payload.data(), len);
  return payload;
}

bool Client::try_recv_frame(std::string* payload) {
  // Like recv_frame, but a clean EOF before the first header byte means
  // "stream over" instead of an error. EOF anywhere past that point is a
  // truncated frame and still throws.
  std::size_t got = 0;
  char header[kFrameHeaderBytes];
  while (got < sizeof(header)) {
    const ssize_t r = ::recv(fd_, header + got, sizeof(header) - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("client recv: ") + std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0) return false;  // clean close at a frame boundary
      throw IoError("client recv: connection closed mid-frame header");
    }
    got += static_cast<std::size_t>(r);
  }
  WireReader rd(std::string_view(header, sizeof(header)));
  const std::uint32_t len = rd.u32();
  payload->assign(len, '\0');
  got = 0;
  while (got < len) {
    const ssize_t r = ::recv(fd_, payload->data() + got, len - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("client recv: ") + std::strerror(errno));
    }
    if (r == 0) throw IoError("client recv: connection closed mid-frame");
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void Client::close() {
  close_fd(fd_);
  fd_ = -1;
}

}  // namespace nsdc::net
