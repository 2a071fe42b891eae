// Server: the TCP transport of `xoridx serve`.
//
// A thin line-framing layer over serve::Service — one listening socket,
// one reader thread per connection, NDJSON in both directions (see
// serve/protocol.hpp for the wire format). Any number of requests may
// be in flight per connection; events of a request fire on its driver
// thread and are serialized onto the socket under the connection's
// write lock, so frames never interleave mid-line.
//
// Lifecycle: bind() (port 0 picks an ephemeral port, readable via
// port() — the smoke test and unit tests rely on this), then serve()
// blocks in the accept loop until request_stop(). request_stop() is
// async-signal-safe — it only writes one byte to a self-pipe — so
// SIGINT/SIGTERM handlers may call it directly; serve() then stops
// accepting, drains the service (in-flight requests flush their
// partial cancel-marked streams), unblocks every connection reader and
// joins it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/status.hpp"
#include "serve/service.hpp"

namespace xoridx::serve {

struct ServerOptions {
  /// "host:port" ("127.0.0.1:7420", ":0", "0.0.0.0:7420"). An empty or
  /// omitted host binds the loopback interface; port 0 is ephemeral.
  std::string listen = "127.0.0.1:7420";
  /// SO_SNDTIMEO on every client socket: a send() that cannot make
  /// progress for this long means the client stopped reading (wedged
  /// reader, dead NAT mapping). The connection is treated as hung up:
  /// its in-flight requests are cancelled and their slots freed —
  /// without this a single stalled client pins a driver thread and an
  /// inflight slot forever. 0 disables (block indefinitely).
  double send_timeout_s = 30.0;
  /// SO_SNDBUF for client sockets; 0 keeps the OS default. Tests set a
  /// tiny buffer so a non-reading client back-pressures send() quickly.
  int send_buffer_bytes = 0;
  ServiceOptions service;
};

/// Parse "host:port" (host may be empty or omitted entirely: "7420" and
/// ":7420" both mean loopback).
[[nodiscard]] api::Result<std::pair<std::string, std::uint16_t>>
parse_listen_address(const std::string& listen);

/// Per-connection socket options for an accepted client: TCP_NODELAY
/// (each event frame goes out when written, not after the peer's
/// delayed ACK), plus the options' send timeout and buffer size. Best
/// effort: a failing setsockopt leaves that option at its default.
void configure_client_socket(int fd, const ServerOptions& options);

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Resolve, bind and listen. Returns the io_error on failure; after
  /// ok the actual port (ephemeral included) is port().
  [[nodiscard]] api::Status bind();

  /// The bound port; 0 before bind() succeeds.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accept loop; blocks until request_stop() (or a `shutdown` command),
  /// then drains the service and joins connection readers. bind() must
  /// have succeeded.
  void serve();

  /// Stop serve() from any thread or signal handler. Idempotent,
  /// async-signal-safe (one write(2) to a self-pipe).
  void request_stop() noexcept;

  [[nodiscard]] Service& service() noexcept { return service_; }

 private:
  struct Connection;

  void handle_connection(const std::shared_ptr<Connection>& conn);
  void dispatch_line(const std::shared_ptr<Connection>& conn,
                     const std::string& line);

  ServerOptions options_;
  Service service_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_requested_{false};

  std::mutex connections_mutex_;
  std::vector<std::weak_ptr<Connection>> connections_;
  std::vector<std::thread> readers_;
};

}  // namespace xoridx::serve
