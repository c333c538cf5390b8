// Connection supervisor for the lcld daemon: one poll-based event loop
// owning the listener and every connection file descriptor, replacing
// the PR-9 thread-per-connection Unix-socket loop.
//
// Two listener flavors behind one loop:
//
//   * Unix stream socket (`unix_path`) — the local pipe-replacement
//     transport CI replays;
//   * TCP (`tcp_host`/`tcp_port`, port 0 = ephemeral) — the network
//     front door; the resolved port is readable via `port()` so tests
//     and benches can bind ephemerally.
//
// Per-connection state machine: read buffer -> line framing -> bounded
// in-flight window -> ordered write backlog. Flow control is explicit
// and per-connection:
//
//   * a connection may have at most `pipeline_depth` requests submitted
//     to the server's admission queue concurrently (responses come back
//     through per-request futures and are emitted strictly in request
//     order, so clients can pipeline without reordering);
//   * a connection whose client is not draining responses accumulates
//     at most `max_backlog_bytes` of rendered-but-unsent bytes before
//     the supervisor stops *reading* from it (and stops popping
//     completed futures), so one slow client bounds its own memory
//     instead of ballooning the daemon's;
//   * at most `max_conns` connections are resident; an accept beyond
//     that is answered with a single `overloaded` error line and
//     closed.
//
// The loop blocks in poll(); request completions on worker threads wake
// it through a self-pipe (the completion-callback overload of
// `Server::submit`), so responses flush promptly instead of on the next
// poll tick. All socket I/O is non-blocking, retries `EINTR`, treats
// `EAGAIN` as "try after the next poll", and writes with `MSG_NOSIGNAL`
// — a client vanishing mid-reply is a closed connection, never a
// `SIGPIPE` death. A final request line that arrives without a trailing
// newline before EOF is framed and served (the write side stays open
// until its response has been flushed).
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/server.hpp"

namespace lcl::service {

/// Hard cap on one framed request line. A client streaming bytes with
/// no newline is answered `bad_request` and dropped once it crosses
/// this, so an unframed firehose cannot grow a read buffer unboundedly.
inline constexpr std::size_t kMaxLineBytes = 1u << 20;

struct TransportOptions {
  std::string unix_path;  ///< non-empty: listen on a Unix socket
  std::string tcp_host;   ///< non-empty: listen on TCP host:tcp_port
  int tcp_port = 0;       ///< 0 = kernel-assigned ephemeral port
  int max_conns = 256;    ///< resident connection cap (reject beyond)
  int pipeline_depth = 32;  ///< per-connection in-flight request window
  std::size_t max_backlog_bytes = 256u << 10;  ///< per-conn write bound
  int poll_ms = 200;         ///< idle poll tick (stop-flag latency)
  int drain_grace_ms = 5000;  ///< max wait for in-flight work on stop
  int listen_backlog = 64;
  /// SO_SNDBUF for accepted sockets; 0 keeps the system default. The
  /// backlog-stall tests shrink it so a non-draining client jams the
  /// kernel buffer (and thus the supervisor's backlog bound) quickly.
  int sndbuf_bytes = 0;
};

/// Monotonic counters (peaks/gauges excepted), readable concurrently
/// with the loop. The flow-control counters are the observable side of
/// the supervisor's promises and are pinned by the transport tests.
struct TransportStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_at_capacity = 0;  ///< max-conns rejections
  std::uint64_t lines_in = 0;              ///< framed request lines
  std::uint64_t responses_out = 0;         ///< response lines flushed
  std::uint64_t read_pauses = 0;  ///< window/backlog flow-control stalls
  std::uint64_t eintr_retries = 0;
  std::size_t peak_backlog_bytes = 0;  ///< largest unsent backlog seen
  std::size_t peak_conns = 0;
  std::size_t open_conns = 0;
};

/// Writes all of `data`, retrying `EINTR` and waiting out `EAGAIN` on
/// blocking descriptors; sockets are written with `MSG_NOSIGNAL`.
/// Returns false only on a real error (e.g. `EPIPE`). This is the
/// EINTR-correct replacement for the old lcld `write_all`.
[[nodiscard]] bool write_fully(int fd, std::string_view data);

/// Splits `"HOST:PORT"`; accepts port 0 (ephemeral). Returns false on
/// a missing colon, empty host, or non-numeric/out-of-range port.
[[nodiscard]] bool parse_hostport(const std::string& spec,
                                  std::string& host, int& port);

class Transport {
 public:
  /// Does not bind; call `listen_now()` (or let `start()`/`run()` do
  /// it) so construction stays throw-free for members.
  Transport(Server& server, TransportOptions opts);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Binds + listens. Throws std::runtime_error with errno detail.
  void listen_now();

  /// Blocking serve loop for the daemon: runs until `*stop_flag` is
  /// non-zero, then drains (stop accepting/reading, flush in-flight
  /// responses, bounded by `drain_grace_ms`). Returns 0.
  int run(const volatile std::sig_atomic_t* stop_flag);

  /// Background mode for tests and benches: spawns the loop thread.
  void start();
  /// Requests drain, joins the loop thread. Idempotent.
  void stop();

  /// Resolved TCP port (after listen_now); 0 for Unix transports.
  [[nodiscard]] int port() const { return resolved_port_; }
  /// Printable endpoint, e.g. "tcp://127.0.0.1:4815" or "unix://path".
  [[nodiscard]] std::string endpoint() const;

  [[nodiscard]] TransportStats stats() const;

 private:
  struct Conn;
  struct Waker;

  void loop(const volatile std::sig_atomic_t* stop_flag);
  void accept_new();
  void pump_read(Conn& c);
  void frame_lines(Conn& c, bool at_eof);
  void pump_submit(Conn& c);
  void pump_responses(Conn& c);
  void flush_writes(Conn& c);
  [[nodiscard]] bool wants_read(const Conn& c) const;
  [[nodiscard]] bool done(const Conn& c) const;
  void close_listener();

  Server& server_;
  TransportOptions opts_;
  int listen_fd_ = -1;
  int resolved_port_ = 0;
  bool is_tcp_ = false;
  std::shared_ptr<Waker> waker_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::thread loop_thread_;
  /// Written by `stop()` on the caller's thread, read by the loop
  /// thread, so it must be atomic (volatile does not synchronise).
  std::atomic<bool> internal_stop_{false};
  bool started_ = false;

  mutable std::mutex stats_mu_;
  TransportStats stats_;  // guarded by stats_mu_
};

}  // namespace lcl::service
