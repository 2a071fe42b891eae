#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstring>
#include <functional>
#include <sstream>
#include <utility>

#include "fail/failpoint.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace xoridx::serve {

namespace {

using api::Status;
using api::StatusCode;

Status errno_status(const std::string& what) {
  return {StatusCode::io_error, what + ": " + std::strerror(errno)};
}

void close_fd(int& fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

api::Result<std::pair<std::string, std::uint16_t>> parse_listen_address(
    const std::string& listen) {
  std::string host = "127.0.0.1";
  std::string port_text = listen;
  if (const std::size_t colon = listen.rfind(':');
      colon != std::string::npos) {
    if (colon != 0) host = listen.substr(0, colon);
    port_text = listen.substr(colon + 1);
  }
  unsigned port = 0;
  const auto [end, ec] = std::from_chars(
      port_text.data(), port_text.data() + port_text.size(), port);
  if (ec != std::errc() || end != port_text.data() + port_text.size() ||
      port > 65535)
    return Status(StatusCode::invalid_argument,
                  "listen address '" + listen +
                      "' is not host:port with a port in [0, 65535]");
  return std::make_pair(std::move(host),
                        static_cast<std::uint16_t>(port));
}

/// One client socket. send() may be called concurrently from driver
/// threads (events of in-flight requests) and the reader thread
/// (synchronous replies); the mutex keeps frames whole. The fd is
/// closed by the destructor, which runs only after the last event
/// callback holding a shared_ptr has fired — shutdown_socket() is the
/// non-destructive "stop talking" used on disconnect and server stop.
struct Server::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() { close_fd(fd); }

  void send(const std::string& frame) {
    bool timed_out = false;
    {
      std::lock_guard lock(write_mutex);
      if (closed.load(std::memory_order_relaxed)) return;
      // Chaos hook: error(EPIPE) simulates the peer vanishing mid-frame,
      // delay() a congested socket under SO_SNDTIMEO.
      if (int injected = XORIDX_FAILPOINT("serve.send"); injected != 0) {
        timed_out = injected == EAGAIN || injected == EWOULDBLOCK;
        closed.store(true, std::memory_order_relaxed);
      }
      std::string wire = frame;
      wire += '\n';
      std::size_t off = 0;
      while (off < wire.size() && !closed.load(std::memory_order_relaxed)) {
        const ssize_t n = ::send(fd, wire.data() + off, wire.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          // SO_SNDTIMEO expired: the peer's receive window stayed full
          // for the whole timeout — a client that stopped reading.
          // Everything else is an ordinary disconnect. Either way later
          // frames are dropped; the timeout additionally counts as a
          // hangup (below) so the client's requests are cancelled
          // instead of streaming into a dead socket forever.
          timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
          closed.store(true, std::memory_order_relaxed);
          break;
        }
        off += static_cast<std::size_t>(n);
      }
    }
    if (timed_out) {
      XORIDX_OBS_COUNT("serve.send_timeouts", 1);
      ::shutdown(fd, SHUT_RDWR);  // unblock our reader thread too
      if (!hangup_fired.exchange(true) && on_hangup) on_hangup();
    }
  }

  void shutdown_socket() noexcept {
    closed.store(true, std::memory_order_relaxed);
    ::shutdown(fd, SHUT_RDWR);
  }

  /// In-flight request bookkeeping, so a hangup can cancel exactly this
  /// connection's requests. Guarded by ids_mutex (reader thread adds,
  /// driver threads remove, the hangup path drains).
  void track(const std::string& id) {
    std::lock_guard lock(ids_mutex);
    inflight_ids.push_back(id);
  }
  void untrack(const std::string& id) {
    std::lock_guard lock(ids_mutex);
    inflight_ids.erase(
        std::remove(inflight_ids.begin(), inflight_ids.end(), id),
        inflight_ids.end());
  }
  [[nodiscard]] std::vector<std::string> take_inflight() {
    std::lock_guard lock(ids_mutex);
    return std::exchange(inflight_ids, {});
  }

  int fd = -1;
  std::mutex write_mutex;
  std::atomic<bool> closed{false};
  /// Fired at most once, outside write_mutex, when a send times out.
  /// Set by the server at accept; captures the Connection raw (the
  /// caller is a member function, so the object is alive) — a
  /// shared_ptr capture would be a reference cycle.
  std::function<void()> on_hangup;
  std::atomic<bool> hangup_fired{false};
  std::mutex ids_mutex;
  std::vector<std::string> inflight_ids;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)), service_(options_.service) {
  // A peer that disconnects mid-write must surface as a send() error,
  // not a process-killing SIGPIPE (MSG_NOSIGNAL covers send, this
  // covers any stray write path).
  std::signal(SIGPIPE, SIG_IGN);
}

Server::~Server() {
  request_stop();
  service_.shutdown();
  {
    std::lock_guard lock(connections_mutex_);
    for (const std::weak_ptr<Connection>& weak : connections_)
      if (const std::shared_ptr<Connection> conn = weak.lock())
        conn->shutdown_socket();
  }
  for (std::thread& t : readers_)
    if (t.joinable()) t.join();
  close_fd(listen_fd_);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
}

api::Status Server::bind() {
  api::Result<std::pair<std::string, std::uint16_t>> addr =
      parse_listen_address(options_.listen);
  if (!addr.ok()) return addr.status();

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr->second);
  if (::inet_pton(AF_INET, addr->first.c_str(), &sa.sin_addr) != 1)
    return Status(StatusCode::invalid_argument,
                  "listen host '" + addr->first +
                      "' is not an IPv4 address literal");

  if (::pipe(wake_pipe_) != 0) return errno_status("pipe");
  ::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
  ::fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return errno_status("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&sa),
             sizeof(sa)) != 0) {
    const Status s = errno_status("bind " + options_.listen);
    close_fd(listen_fd_);
    return s;
  }
  if (::listen(listen_fd_, 16) != 0) {
    const Status s = errno_status("listen");
    close_fd(listen_fd_);
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &len) == 0)
    port_ = ntohs(bound.sin_port);
  return {};
}

void configure_client_socket(int fd, const ServerOptions& options) {
  // Every reply is a burst of small frames (accepted, cell..., done)
  // written one send() each; with Nagle on, each frame after the first
  // waits for the client's delayed ACK (~40 ms on Linux).
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options.send_timeout_s > 0.0) {
    timeval timeout{};
    timeout.tv_sec = static_cast<time_t>(options.send_timeout_s);
    timeout.tv_usec = static_cast<suseconds_t>(
        (options.send_timeout_s - std::floor(options.send_timeout_s)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  }
  if (options.send_buffer_bytes > 0)
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options.send_buffer_bytes,
                 sizeof(options.send_buffer_bytes));
}

void Server::request_stop() noexcept {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    // Best effort: a full pipe already guarantees a pending wake-up.
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::serve() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;  // the signal handler set the flag
      break;
    }
    if (fds[1].revents != 0) break;  // request_stop
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    XORIDX_OBS_COUNT("serve.connections", 1);
    configure_client_socket(client, options_);
    auto conn = std::make_shared<Connection>(client);
    // The hangup path runs on whichever driver thread hit the timeout;
    // Service delivers events outside its mutex, so cancelling from an
    // event callback cannot deadlock.
    conn->on_hangup = [this, raw = conn.get()] {
      for (const std::string& id : raw->take_inflight())
        (void)service_.cancel(id);
    };
    std::lock_guard lock(connections_mutex_);
    connections_.push_back(conn);
    readers_.emplace_back(
        [this, conn = std::move(conn)] { handle_connection(conn); });
  }

  // Drain: cancel in-flight work, flush partial streams, then hang up.
  service_.shutdown();
  std::vector<std::shared_ptr<Connection>> live;
  {
    std::lock_guard lock(connections_mutex_);
    for (const std::weak_ptr<Connection>& weak : connections_)
      if (std::shared_ptr<Connection> conn = weak.lock())
        live.push_back(std::move(conn));
  }
  for (const std::shared_ptr<Connection>& conn : live)
    conn->shutdown_socket();
  live.clear();
  for (std::thread& t : readers_)
    if (t.joinable()) t.join();
}

void Server::handle_connection(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  char chunk[4096];
  while (!conn->closed.load(std::memory_order_relaxed)) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: the client hung up
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos; nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) dispatch_line(conn, line);
    }
    buffer.erase(0, start);
    if (buffer.size() > (1u << 20)) {
      conn->send(error_event(
          "", Status(StatusCode::invalid_argument,
                     "command line exceeds 1 MiB without a newline")));
      break;
    }
  }
  conn->shutdown_socket();
}

void Server::dispatch_line(const std::shared_ptr<Connection>& conn,
                           const std::string& line) {
  api::Result<Command> parsed = parse_command(line);
  if (!parsed.ok()) {
    conn->send(error_event("", parsed.status()));
    return;
  }
  Command& command = *parsed;
  switch (command.kind) {
    case Command::Kind::explore: {
      const std::string id = command.id;
      // Track before submit so a hangup racing the accept still finds
      // the id; terminal events untrack (after the frame, so a timeout
      // on the done event itself still cancels siblings, harmlessly
      // including this settling request).
      conn->track(id);
      RequestEvents events;
      events.on_accepted = [conn, id](std::size_t jobs) {
        conn->send(accepted_event(id, jobs));
      };
      events.on_cell = [conn, id](const CellEvent& cell) {
        conn->send(cell_event(id, cell));
      };
      events.on_done = [conn, id](const RequestSummary& summary) {
        conn->send(done_event(id, summary));
        conn->untrack(id);
      };
      events.on_error = [conn, id](const Status& status) {
        conn->send(error_event(id, status));
        conn->untrack(id);
      };
      // Rejections surface through on_error; the return value is the
      // transport-free caller's copy.
      (void)service_.submit(std::move(command.id),
                            std::move(command.request), std::move(events));
      return;
    }
    case Command::Kind::cancel: {
      if (const Status s = service_.cancel(command.id); !s.ok())
        conn->send(error_event(command.id, s));
      // Success is acknowledged by the request's own stream (its done
      // event reports the cancelled-cell split).
      return;
    }
    case Command::Kind::status:
      conn->send(status_event(service_.status()));
      return;
    case Command::Kind::metrics: {
      std::ostringstream text;
      obs::registry().snapshot().write_openmetrics(text);
      conn->send(metrics_event(text.str()));
      return;
    }
    case Command::Kind::shutdown:
      conn->send(status_event(service_.status()));
      request_stop();
      return;
  }
}

}  // namespace xoridx::serve
