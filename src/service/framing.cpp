#include "src/service/framing.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "src/util/timer.h"

namespace vlsipart::service {
namespace {

void set_cloexec(int fd) {
  // Sockets must not leak into children the embedding process forks.
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

void tune_stream_socket(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Bound response writes so a client that stops reading cannot wedge a
  // connection thread forever; the write fails and the server moves on.
  timeval send_timeout{};
  send_timeout.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
  // Bound each blocking recv() so a peer that stalls mid-frame yields
  // kAgain ticks (idle/stall accounting) instead of wedging the reader.
  timeval recv_timeout{};
  recv_timeout.tv_sec = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
               sizeof(recv_timeout));
}

bool wait_readable(int fd, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  while (true) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return true;  // let the read surface the error
  }
}

}  // namespace

std::string Endpoint::describe() const {
  if (is_unix()) return "unix:" + unix_path;
  return "tcp:127.0.0.1:" + std::to_string(tcp_port);
}

bool Endpoint::parse(const std::string& spec, Endpoint& out,
                     std::string* error) {
  out = Endpoint{};
  if (spec.rfind("unix:", 0) == 0) {
    out.unix_path = spec.substr(5);
  } else if (spec.rfind("tcp:", 0) == 0) {
    const std::string port = spec.substr(4);
    char* end = nullptr;
    const long value = std::strtol(port.c_str(), &end, 10);
    if (end == port.c_str() || *end != '\0' || value < 0 || value > 65535) {
      if (error != nullptr) *error = "bad tcp port in endpoint: " + spec;
      return false;
    }
    out.tcp_port = static_cast<std::uint16_t>(value);
    return true;
  } else {
    out.unix_path = spec;
  }
  if (out.unix_path.empty()) {
    if (error != nullptr) *error = "empty unix socket path";
    return false;
  }
  sockaddr_un addr{};
  if (out.unix_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "unix socket path too long (max " +
               std::to_string(sizeof(addr.sun_path) - 1) +
               " bytes): " + out.unix_path;
    }
    return false;
  }
  return true;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Socket listen_endpoint(const Endpoint& endpoint) {
  if (endpoint.is_unix()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("unix socket path too long: " +
                               endpoint.unix_path);
    }
    std::memcpy(addr.sun_path, endpoint.unix_path.c_str(),
                endpoint.unix_path.size() + 1);
    Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!s.valid()) {
      throw std::runtime_error("socket(AF_UNIX): " +
                               std::string(std::strerror(errno)));
    }
    set_cloexec(s.fd());
    ::unlink(endpoint.unix_path.c_str());  // stale socket from a dead run
    if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw std::runtime_error("bind(" + endpoint.unix_path +
                               "): " + std::strerror(errno));
    }
    if (::listen(s.fd(), 64) != 0) {
      throw std::runtime_error("listen(" + endpoint.unix_path +
                               "): " + std::strerror(errno));
    }
    return s;
  }
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) {
    throw std::runtime_error("socket(AF_INET): " +
                             std::string(std::strerror(errno)));
  }
  set_cloexec(s.fd());
  const int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(endpoint.tcp_port);
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("bind(127.0.0.1:" +
                             std::to_string(endpoint.tcp_port) +
                             "): " + std::strerror(errno));
  }
  if (::listen(s.fd(), 64) != 0) {
    throw std::runtime_error("listen: " + std::string(std::strerror(errno)));
  }
  return s;
}

std::uint16_t bound_tcp_port(const Socket& listener) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

Socket connect_endpoint(const Endpoint& endpoint, int timeout_ms,
                        std::string* error) {
  (void)timeout_ms;  // local connects complete immediately or fail
  if (endpoint.is_unix()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint.unix_path.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) *error = "unix socket path too long";
      return Socket();
    }
    std::memcpy(addr.sun_path, endpoint.unix_path.c_str(),
                endpoint.unix_path.size() + 1);
    Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!s.valid() ||
        ::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      if (error != nullptr) {
        *error = "connect(" + endpoint.describe() +
                 "): " + std::strerror(errno);
      }
      return Socket();
    }
    set_cloexec(s.fd());
    tune_stream_socket(s.fd());
    return s;
  }
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(endpoint.tcp_port);
  if (!s.valid() ||
      ::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error =
          "connect(" + endpoint.describe() + "): " + std::strerror(errno);
    }
    return Socket();
  }
  set_cloexec(s.fd());
  tune_stream_socket(s.fd());
  return s;
}

Socket accept_client(const Socket& listener, int timeout_ms) {
  if (!wait_readable(listener.fd(), timeout_ms)) return Socket();
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) return Socket();
  set_cloexec(fd);
  tune_stream_socket(fd);
  return Socket(fd);
}

const char* frame_status_name(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kAgain: return "again";
    case FrameStatus::kClosed: return "closed";
    case FrameStatus::kTruncated: return "truncated";
    case FrameStatus::kOversized: return "oversized";
    case FrameStatus::kIoError: return "io-error";
  }
  return "unknown";
}

FrameReader::FrameReader(int fd, std::size_t max_payload)
    : fd_(fd), max_payload_(max_payload) {}

void FrameReader::reset() {
  header_got_ = 0;
  payload_.clear();
  payload_got_ = 0;
  have_length_ = false;
}

FrameStatus FrameReader::poll_once(int timeout_ms) {
  if (!wait_readable(fd_, timeout_ms)) return FrameStatus::kAgain;
  // Drain what is available without blocking again; partial progress is
  // kept across calls.
  while (true) {
    if (!have_length_) {
      const ssize_t n =
          ::recv(fd_, header_ + header_got_, 4 - header_got_, 0);
      if (n == 0) {
        return header_got_ == 0 ? FrameStatus::kClosed
                                : FrameStatus::kTruncated;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return FrameStatus::kAgain;
        }
        if (errno == EINTR) continue;
        return FrameStatus::kIoError;
      }
      header_got_ += static_cast<std::size_t>(n);
      if (header_got_ < 4) return FrameStatus::kAgain;
      const std::size_t length =
          (static_cast<std::size_t>(header_[0]) << 24) |
          (static_cast<std::size_t>(header_[1]) << 16) |
          (static_cast<std::size_t>(header_[2]) << 8) |
          static_cast<std::size_t>(header_[3]);
      if (length > max_payload_) return FrameStatus::kOversized;
      have_length_ = true;
      payload_.resize(length);
      payload_got_ = 0;
      if (length == 0) return FrameStatus::kOk;
    }
    while (payload_got_ < payload_.size()) {
      const ssize_t n = ::recv(fd_, payload_.data() + payload_got_,
                               payload_.size() - payload_got_, 0);
      if (n == 0) return FrameStatus::kTruncated;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return FrameStatus::kAgain;
        }
        if (errno == EINTR) continue;
        return FrameStatus::kIoError;
      }
      payload_got_ += static_cast<std::size_t>(n);
    }
    return FrameStatus::kOk;
  }
}

FrameStatus read_frame(int fd, std::string& payload, std::size_t max_payload,
                       int timeout_ms) {
  // A poll slice ends early when a recv() mid-frame runs into the
  // socket's SO_RCVTIMEO, so the slices repeat until the deadline.
  const WallTimer timer;
  const auto left_ms = [&] {
    return std::max(0.0, timeout_ms - timer.elapsed() * 1000.0);
  };
  FrameReader reader(fd, max_payload);
  while (true) {
    const FrameStatus status = reader.poll_once(
        timeout_ms < 0 ? -1 : static_cast<int>(std::ceil(left_ms())));
    if (status == FrameStatus::kOk) {
      payload = std::move(reader.payload());
      return status;
    }
    if (status != FrameStatus::kAgain) return status;
    if (timeout_ms >= 0 && left_ms() <= 0.0) return FrameStatus::kAgain;
  }
}

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > 0xFFFFFFFFULL) return false;
  unsigned char header[4];
  const auto length = static_cast<std::uint32_t>(payload.size());
  header[0] = static_cast<unsigned char>((length >> 24) & 0xFF);
  header[1] = static_cast<unsigned char>((length >> 16) & 0xFF);
  header[2] = static_cast<unsigned char>((length >> 8) & 0xFF);
  header[3] = static_cast<unsigned char>(length & 0xFF);
  std::string buffer;
  buffer.reserve(4 + payload.size());
  buffer.append(reinterpret_cast<const char*>(header), 4);
  buffer.append(payload);
  std::size_t sent = 0;
  while (sent < buffer.size()) {
    const ssize_t n = ::send(fd, buffer.data() + sent, buffer.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace vlsipart::service
