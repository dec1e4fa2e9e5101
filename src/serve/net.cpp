#include "serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "serve/protocol.hpp"

namespace focv::serve::net {

namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

int listen_tcp(std::uint16_t port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error = std::string("bind 127.0.0.1:") + std::to_string(port) + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 512) != 0) {
    error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

int connect_tcp(std::uint16_t port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr = loopback(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error = std::string("connect 127.0.0.1:") + std::to_string(port) + ": " +
            std::strerror(errno);
    ::close(fd);
    return -1;
  }
  tune_stream(fd);
  return fd;
}

void tune_stream(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_exact(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::recv(fd, p, size, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF mid-read
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_frame(int fd, std::string_view payload) {
  unsigned char header[4];
  encode_frame_header(static_cast<std::uint32_t>(payload.size()), header);
  // One buffered write per frame so concurrent writers (which hold a
  // per-connection lock around this call) emit contiguous frames.
  std::string wire;
  wire.reserve(payload.size() + 4);
  wire.append(reinterpret_cast<const char*>(header), 4);
  wire.append(payload);
  return write_all(fd, wire.data(), wire.size());
}

int read_frame(int fd, std::uint32_t max_payload, std::string& payload) {
  unsigned char header[4];
  // Distinguish a clean close (EOF before any header byte) from a
  // truncated frame.
  ssize_t n;
  do {
    n = ::recv(fd, header, 1, 0);
  } while (n < 0 && errno == EINTR);
  if (n == 0) return 0;
  if (n < 0) return -1;
  if (!read_exact(fd, header + 1, 3)) return -1;
  const std::uint32_t size = decode_frame_header(header);
  if (size > max_payload) return -1;
  payload.resize(size);
  if (size > 0 && !read_exact(fd, payload.data(), size)) return -1;
  return 1;
}

void shutdown_fd(int fd) { ::shutdown(fd, SHUT_RDWR); }

void close_fd(int fd) { ::close(fd); }

}  // namespace focv::serve::net
