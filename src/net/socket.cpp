#include "net/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "util/failpoint.hpp"

namespace ea::net {
namespace {

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Every in-tree dial targets a loopback listener, so establishment (or
// refusal) is near-immediate; the bound only matters for a dead peer.
constexpr int kConnectConfirmTimeoutMs = 1000;

}  // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

Socket Socket::listen_on(std::uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Socket();
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0 || !set_nonblocking(fd)) {
    ::close(fd);
    return Socket();
  }
  return Socket(fd);
}

Socket Socket::connect_to(const std::string& host, std::uint16_t port) {
  // Injected connect failure (host unreachable / port closed).
  if (EA_FAIL_TRIGGERED("net.socket.connect")) return Socket();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Socket();
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return Socket();
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.empty() ? "127.0.0.1" : host.c_str(),
                  &addr.sin_addr) != 1) {
    ::close(fd);
    return Socket();
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return Socket();
    }
    // Pending non-blocking connect: confirm establishment before reporting
    // the socket up. A refused dial can also surface as EINPROGRESS (the
    // refusal only appears later via SO_ERROR), and callers — the OPENER
    // in particular — treat a valid return as "connection up": a channel
    // link would take a socket that never existed as its dialled one.
    pollfd pfd{fd, POLLOUT, 0};
    int err = 0;
    socklen_t len = sizeof(err);
    if (::poll(&pfd, 1, kConnectConfirmTimeoutMs) != 1 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return Socket();
    }
  }
  return Socket(fd);
}

std::uint16_t Socket::local_port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

std::optional<Socket> Socket::accept_nb() {
  // Injected accept failure (EMFILE, aborted handshake, ...).
  if (EA_FAIL_TRIGGERED("net.socket.accept")) return std::nullopt;
  int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return std::nullopt;
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return std::nullopt;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

long Socket::read_nb(std::span<std::uint8_t> buf) {
  // Injection follows the return convention: 0 is an EAGAIN-style stall,
  // a negative value is reset/EOF, and a positive value caps the buffer
  // *before* the syscall so a short count never discards received bytes.
  long inject = 0;
  if (EA_FAIL_VALUE("net.socket.read", inject)) {
    if (inject <= 0) return inject < 0 ? -1 : 0;
    if (static_cast<std::size_t>(inject) < buf.size()) {
      buf = buf.first(static_cast<std::size_t>(inject));
    }
  }
  ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
  if (n > 0) return n;
  if (n == 0) return -1;  // orderly shutdown
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
  return -1;
}

long Socket::write_nb(std::span<const std::uint8_t> buf) {
  // Same convention as read_nb: 0 = full kernel buffer, negative = reset,
  // positive = short write (the syscall sees a capped buffer).
  long inject = 0;
  if (EA_FAIL_VALUE("net.socket.write", inject)) {
    if (inject <= 0) return inject < 0 ? -1 : 0;
    if (static_cast<std::size_t>(inject) < buf.size()) {
      buf = buf.first(static_cast<std::size_t>(inject));
    }
  }
  ssize_t n = ::send(fd_, buf.data(), buf.size(), MSG_NOSIGNAL);
  if (n >= 0) return n;
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
  return -1;
}

}  // namespace ea::net
