/// \file server.hpp
/// Single-threaded poll() event-loop socket server for the pricing service.
///
/// One thread, one poll() loop, no per-connection threads: the listener, a
/// stop signal (an eventfd, for a thread-safe stop()), the handler's
/// watched fds and every live connection share one pollfd set. Each
/// connection owns a net::FrameReader, so bytes may arrive in arbitrary
/// splits; completed frames are handed to the ServerHandler in stream
/// order. All handler callbacks run on the loop thread -- handler
/// state needs no locks, and Server::send()/close_connection() are loop-
/// thread-only by the same token (stop() is the one thread-safe entry
/// point). Writes are buffered per connection and flushed via POLLOUT, so a
/// slow reader never blocks the loop.
///
/// A poisoned reader (net/codec.hpp) is a protocol violation: the handler
/// gets on_malformed() -- typically answering with an encoded kMalformed
/// reject -- and the connection is torn down after its outbound buffer
/// drains. Nothing after the first framing error is ever parsed.
///
/// Completion-driven ticks: a handler whose work finishes on other threads
/// (the pricing service's tenant runtimes) registers those threads' ready
/// fds with watch() from a callback. A readable watched fd wakes the loop,
/// which then runs on_tick at once instead of at the next tick_us timeout.
/// The worker threads never see the Server: they only signal an fd that
/// the handler's own objects own.
///
/// Transports: a unix-domain socket (path; used by tests and the bench --
/// no port collisions) or TCP on loopback/any (port 0 picks an ephemeral
/// port, readable via tcp_port()). The socket is bound and listening when
/// the constructor returns, so clients may connect before run() starts.

#pragma once

#include <time.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/wake_signal.hpp"
#include "net/codec.hpp"

namespace cdsflow::net {

struct ServerConfig {
  /// Non-empty: serve on this unix-domain socket path (unlinked first).
  std::string unix_path;
  /// Used when unix_path is empty: TCP port to bind (0 = ephemeral).
  std::uint16_t tcp_port = 0;
  int backlog = 16;
  /// Loop timeout in microseconds, honoured to the microsecond (ppoll);
  /// must be positive. on_tick() fires at least this often even when idle.
  /// The service harvests on its runtimes' ready fds (Server::watch), so
  /// the tick is only its fallback.
  std::uint64_t tick_us = 500;
};

/// The loop's ppoll() timeout for a tick of `tick_us` microseconds.
timespec tick_timeout(std::uint64_t tick_us);

class Server;

/// Event callbacks, all invoked on the loop thread inside run().
class ServerHandler {
 public:
  virtual ~ServerHandler() = default;
  /// A completed, structurally-valid frame from connection `conn`.
  virtual void on_frame(Server& server, int conn, Frame frame) = 0;
  /// The connection's stream is poisoned (`error` from the FrameReader).
  /// The server closes the connection after this returns (outbound bytes,
  /// e.g. a reject sent here, are flushed first).
  virtual void on_malformed(Server& server, int conn,
                            const std::string& error);
  /// Fires once per loop iteration (after I/O, at least every tick_us, and
  /// at once when a watched fd becomes readable).
  virtual void on_tick(Server& server);
  /// The peer disconnected or the connection was torn down.
  virtual void on_disconnect(int conn);
};

class Server {
 public:
  /// Binds and listens; throws cdsflow::Error on any socket failure.
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs the event loop on the calling thread until stop().
  void run(ServerHandler& handler);

  /// Thread-safe and nonblocking: wakes the loop and makes run() return
  /// (idempotent). A stop() before run() makes the next run() return after
  /// one iteration.
  void stop();

  /// Adds `fd` to the poll set for the rest of the current run() (loop
  /// thread only, i.e. from handler callbacks; idempotent, so a handler may
  /// register from every on_tick). A readable watched fd ends the poll
  /// wait, and on_tick runs in that same iteration. The server never
  /// reads, writes or closes it: the owner drains it in on_tick (or the
  /// loop spins) and keeps it open until run() returns. Registering from a
  /// callback rather than through a handler method keeps the wake when a
  /// decorator handler forwards only the callbacks.
  void watch(int fd);

  /// Queues bytes to `conn` (loop thread only, i.e. from handler
  /// callbacks). Unknown connection ids are ignored (the peer may have
  /// disconnected between frame and response).
  void send(int conn, const std::vector<std::uint8_t>& bytes);

  /// Flushes `conn`'s outbound buffer, then closes it (loop thread only).
  void close_connection(int conn);

  /// Bound TCP port (the ephemeral one when config.tcp_port was 0);
  /// 0 for unix-domain servers.
  std::uint16_t tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return config_.unix_path; }
  std::size_t connections() const { return connections_.size(); }

 private:
  struct Connection {
    FrameReader reader;
    std::vector<std::uint8_t> outbound;
    std::size_t outbound_offset = 0;
    /// Close once the outbound buffer drains (reject-then-close path).
    bool closing = false;
  };

  void accept_ready(ServerHandler& handler);
  /// Returns false when the connection was torn down.
  bool read_ready(ServerHandler& handler, int fd);
  bool flush(int fd);
  void teardown(ServerHandler& handler, int fd, bool notify);

  ServerConfig config_;
  int listen_fd_ = -1;
  WakeSignal stop_signal_;  // stop() notifies, the loop clears
  std::uint16_t tcp_port_ = 0;
  std::map<int, Connection> connections_;
  /// Handler fds polled this run (see watch()); cleared when run() starts.
  std::vector<int> watched_;
};

}  // namespace cdsflow::net
