#include "service/transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <stdexcept>
#include <utility>

namespace lcl::service {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[nodiscard]] std::string errno_detail(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

bool write_fully(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t got = ::send(fd, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
    if (got < 0 && errno == ENOTSOCK) {
      got = ::write(fd, data.data() + off, data.size() - off);
    }
    if (got > 0) {
      off += static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd waiter{fd, POLLOUT, 0};
      (void)::poll(&waiter, 1, 100);
      continue;
    }
    return false;
  }
  return true;
}

bool parse_hostport(const std::string& spec, std::string& host,
                    int& port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  const std::string port_str = spec.substr(colon + 1);
  if (port_str.empty() ||
      port_str.find_first_not_of("0123456789") != std::string::npos ||
      port_str.size() > 5) {
    return false;
  }
  const long value = std::strtol(port_str.c_str(), nullptr, 10);
  if (value < 0 || value > 65535) return false;
  host = spec.substr(0, colon);
  port = static_cast<int>(value);
  return true;
}

// ---------------------------------------------------------------------------
// Internal state.
// ---------------------------------------------------------------------------

/// One connection's state machine. `rbuf` holds unframed bytes,
/// `pending` framed lines waiting for a window slot, `inflight` the
/// submitted requests' futures in request order, `wbuf`/`woff` the
/// ordered write backlog (woff = bytes of wbuf already sent).
struct Transport::Conn {
  int fd = -1;
  std::string rbuf;
  std::deque<std::string> pending;
  std::deque<std::future<std::string>> inflight;
  std::string wbuf;
  std::size_t woff = 0;
  bool eof = false;   ///< peer half-closed (or daemon draining)
  bool dead = false;  ///< hard error: close without flushing
  bool reading = true;  ///< last computed wants_read (stall counting)
  /// Oversized-line rejection mode: keep reading-and-dropping the
  /// peer's bytes until it hangs up. Closing with unread data pending
  /// would RST the socket and destroy the rejection line in flight.
  bool discard = false;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  [[nodiscard]] std::size_t backlog() const { return wbuf.size() - woff; }
};

/// Self-pipe shared with the server's completion callbacks. Workers
/// may outlive one transport's loop (the callback holds a weak_ptr and
/// upgrades it for the duration of the wake), so the fds are owned
/// here, closed only when the last reference drops.
struct Transport::Waker {
  int read_fd = -1;
  int write_fd = -1;
  std::mutex mu;

  Waker() {
    int fds[2] = {-1, -1};
    if (::pipe(fds) == 0) {
      read_fd = fds[0];
      write_fd = fds[1];
      set_nonblocking(read_fd);
      set_nonblocking(write_fd);
    }
  }
  ~Waker() {
    if (read_fd >= 0) ::close(read_fd);
    if (write_fd >= 0) ::close(write_fd);
  }

  void wake() {
    std::lock_guard<std::mutex> lock(mu);
    if (write_fd < 0) return;
    const char byte = 1;
    // A full pipe already has a wake pending; EAGAIN is success.
    (void)!::write(write_fd, &byte, 1);
  }
  void drain() {
    char sink[256];
    while (::read(read_fd, sink, sizeof(sink)) > 0) {
    }
  }
};

Transport::Transport(Server& server, TransportOptions opts)
    : server_(server),
      opts_(std::move(opts)),
      waker_(std::make_shared<Waker>()) {
  opts_.max_conns = std::max(1, opts_.max_conns);
  opts_.pipeline_depth = std::max(1, opts_.pipeline_depth);
  opts_.max_backlog_bytes = std::max<std::size_t>(1, opts_.max_backlog_bytes);
  opts_.poll_ms = std::max(1, opts_.poll_ms);
}

Transport::~Transport() {
  stop();
  close_listener();
}

void Transport::listen_now() {
  if (listen_fd_ >= 0) return;
  if (!opts_.tcp_host.empty()) {
    is_tcp_ = true;
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_NUMERICSERV;
    addrinfo* res = nullptr;
    const std::string port_str = std::to_string(opts_.tcp_port);
    if (::getaddrinfo(opts_.tcp_host.c_str(), port_str.c_str(), &hints,
                      &res) != 0 ||
        res == nullptr) {
      throw std::runtime_error("transport: cannot resolve " +
                               opts_.tcp_host + ":" + port_str);
    }
    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) continue;
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      ::close(fd);
      fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
      throw std::runtime_error(
          errno_detail(("transport: bind " + opts_.tcp_host + ":" +
                        port_str)
                           .c_str()));
    }
    if (::listen(fd, opts_.listen_backlog) != 0) {
      ::close(fd);
      throw std::runtime_error(errno_detail("transport: listen"));
    }
    sockaddr_storage bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      if (bound.ss_family == AF_INET) {
        resolved_port_ = ntohs(
            reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        resolved_port_ = ntohs(
            reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
      }
    }
    listen_fd_ = fd;
  } else {
    sockaddr_un addr{};
    if (opts_.unix_path.empty() ||
        opts_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("transport: bad unix socket path \"" +
                               opts_.unix_path + "\"");
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error(errno_detail("transport: socket"));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(opts_.unix_path.c_str());  // stale socket from a prior run
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, opts_.listen_backlog) != 0) {
      ::close(fd);
      throw std::runtime_error(
          errno_detail(("transport: bind/listen " + opts_.unix_path)
                           .c_str()));
    }
    listen_fd_ = fd;
  }
  set_nonblocking(listen_fd_);
}

void Transport::close_listener() {
  if (listen_fd_ < 0) return;
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (!is_tcp_ && !opts_.unix_path.empty()) {
    ::unlink(opts_.unix_path.c_str());
  }
}

std::string Transport::endpoint() const {
  if (is_tcp_) {
    return "tcp://" + opts_.tcp_host + ":" + std::to_string(resolved_port_);
  }
  return "unix://" + opts_.unix_path;
}

TransportStats Transport::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

int Transport::run(const volatile std::sig_atomic_t* stop_flag) {
  listen_now();
  loop(stop_flag);
  return 0;
}

void Transport::start() {
  if (started_) return;
  listen_now();
  internal_stop_.store(false);
  started_ = true;
  loop_thread_ = std::thread([this] { loop(nullptr); });
}

void Transport::stop() {
  internal_stop_.store(true);
  if (loop_thread_.joinable()) loop_thread_.join();
  started_ = false;
}

// ---------------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------------

bool Transport::wants_read(const Conn& c) const {
  if (c.eof || c.dead) return false;
  if (c.discard) return true;  // drain-and-drop needs no window
  return c.pending.size() + c.inflight.size() <
             static_cast<std::size_t>(opts_.pipeline_depth) &&
         c.backlog() < opts_.max_backlog_bytes;
}

bool Transport::done(const Conn& c) const {
  return c.dead || (c.eof && c.pending.empty() && c.inflight.empty() &&
                    c.backlog() == 0);
}

void Transport::loop(const volatile std::sig_atomic_t* stop_flag) {
  using clock = std::chrono::steady_clock;
  bool draining = false;
  clock::time_point drain_deadline{};
  std::vector<pollfd> fds;

  for (;;) {
    const bool stop_now =
        internal_stop_.load() || (stop_flag != nullptr && *stop_flag != 0);
    if (stop_now && !draining) {
      // Graceful drain: stop accepting and reading, flush everything
      // framed or in flight, then leave. A connection with nothing
      // outstanding closes immediately.
      draining = true;
      close_listener();
      for (auto& c : conns_) c->eof = true;
      drain_deadline = clock::now() + std::chrono::milliseconds(
                                          opts_.drain_grace_ms);
    }
    if (draining &&
        (conns_.empty() || clock::now() >= drain_deadline)) {
      break;
    }

    fds.clear();
    const std::size_t listener_slot = fds.size();
    if (listen_fd_ >= 0) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    }
    const std::size_t waker_slot = fds.size();
    fds.push_back(pollfd{waker_->read_fd, POLLIN, 0});
    const std::size_t conn_base = fds.size();
    const std::size_t polled_conns = conns_.size();
    for (auto& c : conns_) {
      short events = 0;
      const bool want = wants_read(*c);
      if (want) events |= POLLIN;
      if (!want && c->reading && !c->eof && !c->dead) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.read_pauses;
      }
      c->reading = want;
      if (c->backlog() > 0) events |= POLLOUT;
      fds.push_back(pollfd{c->fd, events, 0});
    }

    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), opts_.poll_ms);
    if (ready < 0 && errno != EINTR) break;

    if (fds[waker_slot].revents & POLLIN) waker_->drain();
    if (listen_fd_ >= 0 && (fds[listener_slot].revents & POLLIN)) {
      accept_new();
    }

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = *conns_[i];
      // Connections accepted this tick sit past the polled range; they
      // have no revents yet and get their first read next tick.
      const short revents =
          i < polled_conns ? fds[conn_base + i].revents : 0;
      if ((revents & (POLLERR | POLLNVAL)) != 0) c.dead = true;
      if (!c.dead && (revents & (POLLIN | POLLHUP)) != 0 && !c.eof) {
        pump_read(c);
      }
      // Completions may have landed regardless of socket readiness
      // (the waker got us here), so every connection pumps each tick.
      pump_submit(c);
      pump_responses(c);
      if (!c.dead && c.backlog() > 0) flush_writes(c);
      // Submitting may have freed window for already-framed lines.
      pump_submit(c);
      pump_responses(c);
      if (!c.dead && c.backlog() > 0) flush_writes(c);
    }

    conns_.erase(
        std::remove_if(conns_.begin(), conns_.end(),
                       [this](const std::unique_ptr<Conn>& c) {
                         return done(*c);
                       }),
        conns_.end());
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.open_conns = conns_.size();
    }
  }

  conns_.clear();  // abandoned futures resolve into dead shared state
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.open_conns = 0;
  }
  close_listener();
}

void Transport::accept_new() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure: next poll retries
    }
    if (conns_.size() >= static_cast<std::size_t>(opts_.max_conns)) {
      // The rejection path: one typed error line, then close. The
      // fresh socket's send buffer is empty, so this cannot block
      // meaningfully.
      (void)write_fully(
          fd, render_error(false, 0, ErrorCode::kOverloaded,
                           "connection limit reached (max " +
                               std::to_string(opts_.max_conns) + ")") +
                  "\n");
      ::close(fd);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected_at_capacity;
      continue;
    }
    set_nonblocking(fd);
    if (is_tcp_) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    if (opts_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.sndbuf_bytes,
                   sizeof(opts_.sndbuf_bytes));
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conns_.push_back(std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
    stats_.open_conns = conns_.size();
    stats_.peak_conns = std::max(stats_.peak_conns, conns_.size());
  }
}

void Transport::pump_read(Conn& c) {
  char chunk[16384];
  while (wants_read(c)) {
    const ssize_t got = ::recv(c.fd, chunk, sizeof(chunk), 0);
    if (got > 0) {
      if (c.discard) continue;  // rejected firehose: drop the bytes
      c.rbuf.append(chunk, static_cast<std::size_t>(got));
      frame_lines(c, /*at_eof=*/false);
      continue;
    }
    if (got == 0) {
      // EOF: a final line without a trailing newline is still a
      // request — frame the residue and serve it before closing.
      frame_lines(c, /*at_eof=*/true);
      c.eof = true;
      return;
    }
    if (errno == EINTR) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.eintr_retries;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    c.dead = true;  // ECONNRESET and friends
    return;
  }
}

void Transport::frame_lines(Conn& c, bool at_eof) {
  std::size_t start = 0;
  std::uint64_t framed = 0;
  for (;;) {
    const std::size_t newline = c.rbuf.find('\n', start);
    if (newline == std::string::npos) break;
    if (newline > start) {
      c.pending.emplace_back(c.rbuf, start, newline - start);
      ++framed;
    }
    start = newline + 1;
  }
  if (start > 0) c.rbuf.erase(0, start);
  if (at_eof && !c.rbuf.empty()) {
    c.pending.push_back(std::move(c.rbuf));
    c.rbuf.clear();
    ++framed;
  }
  if (!at_eof && !c.discard && c.rbuf.size() > kMaxLineBytes) {
    // Unframed firehose: answer once, then drain-and-drop until the
    // peer hangs up (see Conn::discard).
    c.wbuf += render_error(false, 0, ErrorCode::kBadRequest,
                           "request line exceeds " +
                               std::to_string(kMaxLineBytes) + " bytes");
    c.wbuf += '\n';
    c.rbuf.clear();
    c.rbuf.shrink_to_fit();
    c.discard = true;
  }
  if (framed > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.lines_in += framed;
  }
}

void Transport::pump_submit(Conn& c) {
  while (!c.pending.empty() &&
         c.inflight.size() <
             static_cast<std::size_t>(opts_.pipeline_depth)) {
    std::weak_ptr<Waker> weak = waker_;
    c.inflight.push_back(server_.submit(std::move(c.pending.front()),
                                        [weak] {
                                          if (auto w = weak.lock()) {
                                            w->wake();
                                          }
                                        }));
    c.pending.pop_front();
  }
}

void Transport::pump_responses(Conn& c) {
  std::uint64_t emitted = 0;
  // Only pull completed responses into the backlog while it is under
  // its bound: a stalled client caps its backlog at one response past
  // `max_backlog_bytes`, and the un-popped futures keep the in-flight
  // window closed, which in turn parks the read side.
  while (!c.inflight.empty() && c.backlog() < opts_.max_backlog_bytes &&
         c.inflight.front().wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready) {
    c.wbuf += c.inflight.front().get();
    c.wbuf += '\n';
    c.inflight.pop_front();
    ++emitted;
  }
  if (emitted > 0 || c.backlog() > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.responses_out += emitted;
    stats_.peak_backlog_bytes =
        std::max(stats_.peak_backlog_bytes, c.backlog());
  }
}

void Transport::flush_writes(Conn& c) {
  while (c.woff < c.wbuf.size()) {
    const ssize_t got = ::send(c.fd, c.wbuf.data() + c.woff,
                               c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (got > 0) {
      c.woff += static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.eintr_retries;
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.dead = true;  // EPIPE/ECONNRESET: the client vanished mid-reply
    return;
  }
  if (c.woff == c.wbuf.size()) {
    c.wbuf.clear();
    c.woff = 0;
  } else if (c.woff > (64u << 10)) {
    c.wbuf.erase(0, c.woff);
    c.woff = 0;
  }
}

}  // namespace lcl::service
