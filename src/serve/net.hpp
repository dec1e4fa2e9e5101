// Minimal blocking TCP + frame I/O helpers shared by the focv-serve
// server, its client library and the load generator. Loopback-oriented:
// the daemon binds 127.0.0.1 only — focv-serve/v1 has no authentication
// and is meant to sit behind one machine's loopback, not on a network
// edge.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace focv::serve::net {

/// Bind + listen on 127.0.0.1:`port` (0 = kernel-assigned ephemeral
/// port). Returns the listening fd, or -1 with `error` filled.
[[nodiscard]] int listen_tcp(std::uint16_t port, std::string& error);

/// The local port an fd is bound to (0 on failure).
[[nodiscard]] std::uint16_t bound_port(int fd);

/// Blocking connect to 127.0.0.1:`port`. Returns fd or -1 with `error`.
[[nodiscard]] int connect_tcp(std::uint16_t port, std::string& error);

/// Tune a connected stream for request/response traffic: TCP_NODELAY,
/// so a small frame is sent at once instead of waiting (Nagle) for the
/// peer's delayed ACK of the previous one. Both ends call it: the client
/// on connect, the server on every accepted socket.
void tune_stream(int fd);

/// Write exactly `size` bytes (retrying partial writes; EPIPE-safe —
/// never raises SIGPIPE). False on any error.
bool write_all(int fd, const void* data, std::size_t size);

/// Read exactly `size` bytes. False on EOF or error.
bool read_exact(int fd, void* data, std::size_t size);

/// Frame `payload` (4-byte big-endian length prefix) and write it.
bool write_frame(int fd, std::string_view payload);

/// Read one frame into `payload`. Returns 1 on success, 0 on clean EOF
/// (connection closed between frames), -1 on I/O error, truncated
/// frame, or a payload longer than `max_payload`.
int read_frame(int fd, std::uint32_t max_payload, std::string& payload);

/// Shut down both directions (unblocks a reader parked in read_frame).
void shutdown_fd(int fd);
/// Close the descriptor.
void close_fd(int fd);

}  // namespace focv::serve::net
