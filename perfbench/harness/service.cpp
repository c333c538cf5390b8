// The service workloads: open-loop classify traffic (and, on
// lcld_mixed, two closed-loop solve clients) against the real lcld
// daemon over loopback TCP.
//
// One generator thread drives every connection through a poll loop, so
// generator threads plus lcld workers stay within the machine's cores.
// Open-loop requests are due on a fixed schedule; each is timed from
// when it was due, and the generator records how late it sent
// (send lag). A phase whose send-lag p99 is large next to the latency
// it measures (see `finish`) was limited by the generator, not by lcld:
// it is marked invalid and left out of the report. When the host starves
// the whole machine for a while, every phase of a run can be invalid;
// the run then reports over all phases and says so.
//
// Output checks: every classify reply must be byte-identical to the
// reply of an in-process `service::Server::handle_line` for the same
// line (the request lines carry no id), and every solve reply must carry
// "certified":true. A mismatch, an error reply or a lost reply counts as
// a failed operation.
//
// The traced run serves the same traffic from an in-process
// `service::Server` plus `service::Transport` (the objects lcld wraps)
// while a probe thread times calls into them from outside: parse,
// handle_line, submit, and a cold `problems::classify_table`.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "problems/classify.hpp"
#include "problems/lclgen.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

using namespace lcl;

constexpr int kUniverse = 64;        ///< distinct prewarmed problems
constexpr double kColdShare = 0.02;  ///< share of never-seen seeds
constexpr int kClassifyConns = 2;
constexpr int kSolveClients = 2;     ///< lcld_mixed closed-loop clients
constexpr int kDaemonThreads = 2;    ///< lcld --threads
constexpr int kSetupReps = 9;        ///< daemon starts per run
constexpr double kMinSendLagMs = 1.0;
constexpr double kP99LimitMs = 1.0;  ///< the warm-classify target
/// lcld_classify: the fixed ladder and the named rate of p50/p99.
constexpr double kLadder[] = {5000, 10000, 20000, 40000, 80000};
constexpr double kClassifyRate = 10000;
constexpr double kPhaseSeconds = 0.8;  ///< one open-loop phase
/// lcld_mixed: classify rate under solve load, solve size and count.
constexpr double kMixedRate = 1000;
constexpr std::int64_t kSolveN = 30000;
constexpr int kSolvesPerClient = 3;

/// The request stream: a Zipf(s=1) mix over a prewarmed universe plus
/// a fixed share of never-seen problem seeds. Everything derives from
/// the workload seed.
class Traffic {
 public:
  explicit Traffic(std::uint64_t seed) : seed_(seed) {
    const std::vector<problems::BwTable> tables =
        problems::sample_problems(mix_seed(seed, 1), kUniverse);
    double total = 0.0;
    for (std::size_t r = 0; r < tables.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    for (const auto& t : tables) lines_.push_back(classify_line(t.seed));
  }

  static std::string classify_line(std::uint64_t problem_seed) {
    return "{\"type\":\"classify\",\"problem_seed\":" +
           std::to_string(problem_seed) + "}";
  }

  struct Request {
    std::string line;
    int rank = -1;  ///< universe rank; -1 for a never-seen seed
  };

  Request next() {
    const std::uint64_t i = next_++;
    if (unit(mix_seed(seed_ ^ 0xc01dull, i)) < kColdShare) {
      return {classify_line(fresh_seed()), -1};
    }
    return {lines_[static_cast<std::size_t>(rank(i))], rank(i)};
  }

  /// Zipf rank of draw i.
  [[nodiscard]] int rank(std::uint64_t i) const {
    const double u = unit(mix_seed(seed_ ^ 0x21ffull, i));
    return static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin());
  }

  /// A problem seed outside the universe (53 bits, never 0, the
  /// reserved free table).
  std::uint64_t fresh_seed() {
    return (mix_seed(seed_ ^ 0xf7e5ull, cold_++) >> 11) | 1;
  }

  [[nodiscard]] const std::vector<std::string>& lines() const {
    return lines_;
  }

 private:
  static double unit(std::uint64_t bits) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  std::uint64_t seed_;
  std::uint64_t next_ = 0;
  std::uint64_t cold_ = 0;
  std::vector<double> cdf_;
  std::vector<std::string> lines_;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// A spawned lcld. The destructor stops it (SIGTERM, then SIGKILL after
/// a grace period) and reaps it.
class Daemon {
 public:
  explicit Daemon(const std::string& path) {
    int err_pipe[2];
    if (::pipe(err_pipe) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, err_pipe[1], 2);
    posix_spawn_file_actions_addclose(&fa, err_pipe[0]);
    const std::string threads = std::to_string(kDaemonThreads);
    const char* argv[] = {path.c_str(), "--tcp",           "127.0.0.1:0",
                          "--threads",  threads.c_str(), nullptr};
    const int rc = posix_spawn(&pid_, path.c_str(), &fa, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(err_pipe[1]);
    if (rc != 0) {
      ::close(err_pipe[0]);
      pid_ = -1;
      throw std::runtime_error("cannot start " + path);
    }
    // The announce line: "lcld: listening on tcp://127.0.0.1:PORT".
    std::string text;
    char buf[256];
    const std::string tag = "tcp://127.0.0.1:";
    const auto announced = [&] {
      const auto at = text.find(tag);
      return at != std::string::npos &&
             text.find('\n', at) != std::string::npos;
    };
    while (!announced()) {
      pollfd p{err_pipe[0], POLLIN, 0};
      if (::poll(&p, 1, 10000) <= 0) break;
      const ssize_t got = ::read(err_pipe[0], buf, sizeof(buf));
      if (got <= 0) break;
      text.append(buf, static_cast<std::size_t>(got));
    }
    ::close(err_pipe[0]);  // lcld ignores SIGPIPE; later stderr is dropped
    const auto at = text.find(tag);
    if (at == std::string::npos) {
      stop();
      throw std::runtime_error("lcld did not announce a port: " + text);
    }
    port_ = std::atoi(text.c_str() + at + tag.size());
  }

  ~Daemon() { stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const { return port_; }

  /// The daemon's peak resident memory (VmHWM) in MiB.
  [[nodiscard]] double peak_rss_mb() const {
    return perfbench::peak_rss_mb(pid_);
  }

 private:
  /// SIGTERM (lcld drains and exits), SIGKILL after 5 s; always reaps.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 500; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
  int port_ = 0;
};

/// What one phase of traffic measured.
struct PhaseResult {
  std::vector<double> latency_ms;  ///< classify, due -> reply
  std::vector<double> rtt_ms;      ///< warm classify, sent -> reply
  std::vector<double> send_lag_ms;
  std::vector<double> backlog;     ///< outstanding classifies, sampled
  std::vector<double> solve_ms;    ///< solve round trips
  /// Open loop: first due to last reply. Mixed: first solve sent to
  /// last solve answered.
  double wall_s = 0.0;
  bool valid = true;
};

/// The single-threaded load generator. Connections persist across
/// phases; the byte-identity checks run as replies arrive, except for
/// never-seen seeds, whose replies are kept and checked at the end.
class Generator {
 public:
  Generator(Traffic& traffic, const std::vector<std::string>& expected,
            int port, int solve_clients)
      : traffic_(traffic), expected_(expected) {
    for (int c = 0; c < kClassifyConns + solve_clients; ++c) {
      const int fd = connect_loopback(port);
      if (fd < 0) throw std::runtime_error("cannot connect to lcld");
      conns_.push_back(std::make_unique<Conn>());
      conns_.back()->fd = fd;
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Sends every universe line once on one connection and waits for the
  /// replies (the daemon's prewarm).
  void prewarm() {
    for (std::size_t r = 0; r < traffic_.lines().size(); ++r) {
      enqueue(*conns_[0], traffic_.lines()[r], static_cast<int>(r), false,
              now_s());
    }
    drive([] { return false; }, 30.0, nullptr);
  }

  /// Open loop: `rate` classifies per second for `seconds`.
  PhaseResult open_loop(double rate, double seconds) {
    PhaseResult res;
    const double t0 = now_s() + 1e-3;
    std::uint64_t i = 0;
    drive(
        [&] {
          const double now = now_s();
          while (true) {
            const double due = t0 + static_cast<double>(i) / rate;
            if (due > now || due >= t0 + seconds) break;
            issue(i++, due);
          }
          return t0 + static_cast<double>(i) / rate < t0 + seconds;
        },
        seconds + 30.0, &res);
    res.wall_s = now_s() - t0;
    finish(res);
    return res;
  }

  /// Open-loop classifies at `rate` while every solve connection runs
  /// `per_client` solves back to back; wall_s spans the solves.
  PhaseResult mixed(double rate, const std::vector<std::string>& solves,
                    int per_client) {
    PhaseResult res;
    const double t0 = now_s();
    std::uint64_t i = 0;
    std::vector<int> sent(conns_.size(), 0);
    drive(
        [&] {
          const double now = now_s();
          bool solving = false;
          for (std::size_t c = kClassifyConns; c < conns_.size(); ++c) {
            Conn& conn = *conns_[c];
            if (conn.pending.empty() && sent[c] < per_client) {
              const std::string& line =
                  solves[(c + static_cast<std::size_t>(sent[c])) %
                         solves.size()];
              enqueue(conn, line, -1, true, now);
              ++sent[c];
            }
            solving = solving || !conn.pending.empty() ||
                      sent[c] < per_client;
          }
          while (solving) {
            const double due = t0 + static_cast<double>(i) / rate;
            if (due > now) break;
            issue(i++, due);
          }
          return solving;
        },
        120.0, &res);
    res.wall_s = last_solve_s_ - t0;
    finish(res);
    return res;
  }

  /// Checks the kept never-seen replies against `reference`.
  void check_cold(const std::function<std::string(const std::string&)>&
                      reference) {
    for (const auto& [line, reply] : cold_replies_) {
      if (reference(line) != reply) {
        ++failed_;
        note_mismatch(line, reply);
      }
    }
    cold_replies_.clear();
  }

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& issues() const {
    return issues_;
  }

 private:
  struct Pending {
    double due_s = 0.0;
    double sent_s = -1.0;
    std::size_t end_offset = 0;  ///< bytes written once this line is out
    int rank = -1;
    bool solve = false;
    std::string cold_line;
  };
  struct Conn {
    Conn() = default;
    ~Conn() {
      if (fd >= 0) ::close(fd);
    }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    int fd = -1;
    std::string out;
    std::size_t queued_bytes = 0;  ///< total bytes ever queued
    std::size_t written = 0;       ///< total bytes ever written
    std::string in;
    std::deque<Pending> pending;
  };

  [[nodiscard]] double now_s() const { return clock_.now_s(); }

  void issue(std::uint64_t i, double due) {
    Traffic::Request r = traffic_.next();
    Conn& conn = *conns_[i % kClassifyConns];
    enqueue(conn, r.line, r.rank, false, due);
  }

  void enqueue(Conn& conn, const std::string& line, int rank, bool solve,
               double due) {
    conn.out += line;
    conn.out += '\n';
    conn.queued_bytes += line.size() + 1;
    Pending p;
    p.due_s = due;
    p.end_offset = conn.queued_bytes;
    p.rank = rank;
    p.solve = solve;
    if (rank < 0 && !solve) p.cold_line = line;
    conn.pending.push_back(std::move(p));
    ++attempted_;
  }

  /// The poll loop. `step` issues whatever is due and returns whether
  /// more will be issued; the loop ends once nothing more will be issued
  /// and every reply is in, or after `deadline_s`.
  template <typename Step>
  void drive(Step step, double deadline_s, PhaseResult* res) {
    if (broken_) return;  // an earlier phase lost the daemon
    const double start = now_s();
    double next_sample = start;
    bool more = true;
    for (;;) {
      more = more && step();
      flush(res);
      const double now = now_s();
      std::size_t outstanding = 0;
      for (const auto& c : conns_) outstanding += c->pending.size();
      if (res != nullptr && now >= next_sample) {
        std::size_t classify_backlog = 0;
        for (int c = 0; c < kClassifyConns; ++c) {
          classify_backlog += conns_[static_cast<std::size_t>(c)]
                                  ->pending.size();
        }
        res->backlog.push_back(static_cast<double>(classify_backlog));
        next_sample = now + 0.005;
      }
      if (!more && outstanding == 0) return;
      if (broken_ || now - start > deadline_s) {
        for (auto& c : conns_) {
          failed_ += static_cast<std::int64_t>(c->pending.size());
          c->pending.clear();
        }
        issues_.push_back(broken_ ? "lcld closed a connection"
                                  : "phase deadline exceeded");
        // Late replies would pair with the wrong requests from now on.
        broken_ = true;
        return;
      }
      std::vector<pollfd> fds;
      for (const auto& c : conns_) {
        fds.push_back({c->fd,
                       static_cast<short>(POLLIN |
                                          (c->out.empty() ? 0 : POLLOUT)),
                       0});
      }
      // Sleep at most 50 us so a due request is sent on time.
      const timespec ts{0, more ? 50000 : 2000000};
      ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
          receive(*conns_[c], res);
        }
      }
    }
  }

  void flush(PhaseResult* res) {
    for (auto& cp : conns_) {
      Conn& c = *cp;
      while (!c.out.empty()) {
        const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(),
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) break;
        c.out.erase(0, static_cast<std::size_t>(n));
        c.written += static_cast<std::size_t>(n);
      }
      const double now = now_s();
      for (auto it = c.pending.rbegin(); it != c.pending.rend(); ++it) {
        if (it->sent_s >= 0) break;
        if (it->end_offset > c.written) continue;
        it->sent_s = now;
        if (res != nullptr && !it->solve) {
          res->send_lag_ms.push_back((now - it->due_s) * 1e3);
        }
      }
    }
  }

  void receive(Conn& c, PhaseResult* res) {
    char buf[65536];
    for (;;) {
      const ssize_t got = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (got > 0) {
        c.in.append(buf, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      if (got == 0) broken_ = true;  // EOF
      break;
    }
    std::size_t pos = 0;
    for (;;) {
      const std::size_t nl = c.in.find('\n', pos);
      if (nl == std::string::npos) break;
      const std::string_view reply(c.in.data() + pos, nl - pos);
      pos = nl + 1;
      if (c.pending.empty()) {
        ++failed_;
        continue;
      }
      Pending p = std::move(c.pending.front());
      c.pending.pop_front();
      const double now = now_s();
      record(p, reply, now, res);
    }
    c.in.erase(0, pos);
  }

  void record(const Pending& p, std::string_view reply, double now,
              PhaseResult* res) {
    bool ok;
    if (p.solve) {
      ok = reply.find("\"ok\":true") != std::string_view::npos &&
           reply.find("\"certified\":true") != std::string_view::npos;
      last_solve_s_ = now;
      if (res != nullptr) res->solve_ms.push_back((now - p.sent_s) * 1e3);
    } else if (p.rank >= 0) {
      ok = reply == expected_[static_cast<std::size_t>(p.rank)];
    } else {
      ok = reply.find("\"ok\":true") != std::string_view::npos;
      cold_replies_.emplace_back(p.cold_line, std::string(reply));
    }
    if (!ok) {
      ++failed_;
      note_mismatch(p.solve ? "solve" : "classify", std::string(reply));
    }
    if (res != nullptr && !p.solve) {
      res->latency_ms.push_back((now - p.due_s) * 1e3);
      if (p.rank >= 0) res->rtt_ms.push_back((now - p.sent_s) * 1e3);
    }
  }

  void note_mismatch(const std::string& what, const std::string& reply) {
    if (issues_.size() < 5) {
      issues_.push_back("check failed (" + what + "): " +
                          reply.substr(0, 160));
    }
  }

  /// A phase is generator-bound when its send-lag p99 exceeds both
  /// kMinSendLagMs and a tenth of the latency it measured (p50).
  static void finish(PhaseResult& res) {
    const double limit =
        std::max(kMinSendLagMs, 0.1 * nearest_rank(res.latency_ms, 0.5));
    res.valid = nearest_rank(res.send_lag_ms, 0.99) <= limit;
  }

  Traffic& traffic_;
  const std::vector<std::string>& expected_;
  Tracer clock_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::pair<std::string, std::string>> cold_replies_;
  std::vector<std::string> issues_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  double last_solve_s_ = 0.0;
  bool broken_ = false;
};

/// Solve lines for lcld_mixed: bw_generic on the path family for the
/// named edge-coloring table, whose cost does not depend on the seed;
/// each client gets its own instance seed.
std::vector<std::string> solve_lines(std::uint64_t seed) {
  std::vector<std::string> lines;
  for (int c = 0; c < kSolveClients; ++c) {
    lines.push_back(
        "{\"type\":\"solve\",\"problem\":\"edge_coloring\","
        "\"solver\":\"bw_generic\",\"family\":\"path\",\"n\":" +
        std::to_string(kSolveN) + ",\"seed\":" +
        std::to_string(mix_seed(seed, 100 + c) >> 11) + "}");
  }
  return lines;
}

/// A run's phases. Shared machines stall now and then for milliseconds,
/// so latency percentiles are taken per phase and the run reports their
/// median over the valid phases; the pooled samples serve diagnostics.
struct Pool {
  std::vector<double> latency_ms, rtt_ms, send_lag_ms, solve_ms;
  std::vector<double> p50_ms, p90_ms, p99_ms, wall_s;  ///< per valid phase
  int phases = 0;
  int invalid = 0;
  int unsupported = 0;  ///< valid phases too short for a p99

  void add(const PhaseResult& r) {
    ++phases;
    send_lag_ms.insert(send_lag_ms.end(), r.send_lag_ms.begin(),
                       r.send_lag_ms.end());
    if (!r.valid) {
      ++invalid;
      rejected.push_back(r);
      return;
    }
    take(r);
  }

  /// When every phase was generator-bound, reports over all of them.
  void fall_back() {
    if (!wall_s.empty() || rejected.empty()) return;
    for (const PhaseResult& r : rejected) take(r);
    used_invalid = true;
  }

  std::vector<PhaseResult> rejected;
  bool used_invalid = false;

 private:
  void take(const PhaseResult& r) {
    latency_ms.insert(latency_ms.end(), r.latency_ms.begin(),
                      r.latency_ms.end());
    rtt_ms.insert(rtt_ms.end(), r.rtt_ms.begin(), r.rtt_ms.end());
    solve_ms.insert(solve_ms.end(), r.solve_ms.begin(), r.solve_ms.end());
    wall_s.push_back(r.wall_s);
    if (r.latency_ms.empty()) return;
    p50_ms.push_back(nearest_rank(r.latency_ms, 0.5));
    p90_ms.push_back(nearest_rank(r.latency_ms, 0.9));
    if (percentile_supported(r.latency_ms.size(), 0.99)) {
      p99_ms.push_back(nearest_rank(r.latency_ms, 0.99));
    } else {
      ++unsupported;
    }
  }
};

std::string describe(const char* name, const std::vector<double>& v,
                     const char* unit) {
  char buf[200];
  const bool p99 = percentile_supported(v.size(), 0.99);
  std::snprintf(buf, sizeof(buf), "%s: n=%zu p50=%.4f %s p99=%s%.4f %s",
                name, v.size(), nearest_rank(v, 0.5), unit,
                p99 ? "" : "(unsupported) ", nearest_rank(v, 0.99), unit);
  return buf;
}

/// Runs the workload's measured phases until `seconds` have elapsed:
/// lcld_classify climbs the ladder in its first cycle and then repeats
/// the named rate, lcld_mixed repeats its solve phase. `fixed` collects the named-rate phases,
/// `walls` the phases that time the fixed work. In the traced run
/// (`probe_on` set) every other cycle runs with the probe thread on and
/// its timed work goes to `walls_probed`. `after_first_cycle` runs once,
/// when the first cycle (a fixed amount of work) is done. Returns the
/// ladder rungs.
std::vector<Rung> measure(const Options& opt, Generator& gen,
                          const std::vector<std::string>& solves,
                          Pool& fixed, Pool& walls,
                          std::atomic<bool>* probe_on, Pool* walls_probed,
                          const std::function<void()>& after_first_cycle) {
  const bool mixed = opt.workload == "lcld_mixed";
  std::vector<Rung> rungs;
  std::vector<int> growing_cycles, valid_cycles;
  for (const double rate : kLadder) {
    rungs.push_back({rate, {}, false, true});
    growing_cycles.push_back(0);
    valid_cycles.push_back(0);
  }
  const auto start = Clock::now();
  for (int cycle = 0;; ++cycle) {
    const bool probed = probe_on != nullptr && cycle % 2 == 1;
    if (probe_on != nullptr) probe_on->store(probed);
    Pool& wall_pool = probed ? *walls_probed : walls;
    if (mixed) {
      const PhaseResult r = gen.mixed(kMixedRate, solves, kSolvesPerClient);
      fixed.add(r);
      wall_pool.add(r);
    } else {
      // The ladder runs in the first cycle only; later cycles repeat the
      // named rate, so the reported figures are medians of many phases.
      for (std::size_t k = 0; k < rungs.size(); ++k) {
        Rung& rung = rungs[k];
        if (cycle > 0 && rung.rate != kClassifyRate) continue;
        const PhaseResult r = gen.open_loop(rung.rate, kPhaseSeconds);
        if (rung.rate == kClassifyRate) {
          fixed.add(r);
          wall_pool.add(r);
        }
        if (!r.valid) continue;
        ++valid_cycles[k];
        if (backlog_growing(r.backlog)) ++growing_cycles[k];
        rung.latency_ms.insert(rung.latency_ms.end(), r.latency_ms.begin(),
                               r.latency_ms.end());
      }
    }
    if (cycle == 0) after_first_cycle();
    const double elapsed = seconds_between(start, Clock::now());
    const bool enough = probe_on == nullptr
                            ? cycle >= 2
                            : !walls.wall_s.empty() &&
                                  !walls_probed->wall_s.empty();
    if (enough && elapsed >= opt.seconds) break;
  }
  if (probe_on != nullptr) probe_on->store(false);
  fixed.fall_back();
  walls.fall_back();
  if (walls_probed != nullptr) walls_probed->fall_back();
  // A rung is judged on its valid cycles: it grows when most of them
  // grew, and it is invalid when none was valid.
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    rungs[k].valid = valid_cycles[k] > 0;
    rungs[k].growing = 2 * growing_cycles[k] > valid_cycles[k];
  }
  return rungs;
}

/// Probe measurements of the traced run.
struct Probes {
  std::vector<double> parse_us, handle_us, submit_us, cold_us;
};

/// One asynchronous `submit` probe. The completion hook stamps `done_s`
/// on the worker thread.
struct SubmitProbe {
  int root = -1;
  std::int64_t trace = 0;
  int rank = 0;
  double start_s = 0.0;
  std::atomic<double> done_s{-1.0};
  std::future<std::string> reply;
};

/// The traced run's probe thread body. While `on`, one probe is due
/// every kProbeInterval: it times `parse_request` and `handle_line` for
/// a warm classify line, submits the same line asynchronously (open
/// loop, so a probe stuck behind a solve does not thin out the samples
/// taken meanwhile), and every eighth probe times a cold
/// `problems::classify_table`. Spans share the probe's trace id.
void probe_loop(service::Server& server, const Traffic& traffic,
                const std::vector<std::string>& expected, std::uint64_t seed,
                const std::atomic<bool>& on, const std::atomic<bool>& stop,
                Tracer& tracer, Probes& out, std::int64_t& failed) {
  constexpr auto kProbeInterval = std::chrono::milliseconds(5);
  std::deque<SubmitProbe> submits;  // stable addresses for the hooks
  std::uint64_t i = 0;
  while (!stop.load()) {
    if (!on.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    const auto tick = Clock::now();
    const int rank = traffic.rank(0x9f0000000ull + i);
    const std::string& line = traffic.lines()[static_cast<std::size_t>(rank)];
    const auto trace = static_cast<std::int64_t>(i);
    const int root = tracer.open(trace, -1, "bench.probe", tracer.now_s());
    double t0 = tracer.now_s();
    (void)service::parse_request(line);
    double t1 = tracer.now_s();
    tracer.record(trace, root, "service.parse", t0, t1);
    out.parse_us.push_back((t1 - t0) * 1e6);
    t0 = tracer.now_s();
    const std::string reply = server.handle_line(line);
    t1 = tracer.now_s();
    tracer.record(trace, root, "service.handle_line", t0, t1);
    out.handle_us.push_back((t1 - t0) * 1e6);
    if (reply != expected[static_cast<std::size_t>(rank)]) ++failed;
    if (i % 8 == 0) {
      const std::uint64_t cold =
          (mix_seed(seed ^ 0x5eedull, 0x10000 + i) >> 11) | 1;
      t0 = tracer.now_s();
      (void)problems::classify_table(problems::sample_table(cold));
      t1 = tracer.now_s();
      tracer.record(trace, root, "problems.classify_table", t0, t1);
      out.cold_us.push_back((t1 - t0) * 1e6);
    }
    SubmitProbe& p = submits.emplace_back();
    p.root = root;
    p.trace = trace;
    p.rank = rank;
    p.start_s = tracer.now_s();
    p.reply = server.submit(line, [&p, &tracer] {
      p.done_s.store(tracer.now_s());
    });
    ++i;
    std::this_thread::sleep_until(tick + kProbeInterval);
  }
  for (SubmitProbe& p : submits) {
    const std::string reply = p.reply.get();
    while (p.done_s.load() < 0) std::this_thread::yield();
    const double done = p.done_s.load();
    if (reply != expected[static_cast<std::size_t>(p.rank)]) ++failed;
    tracer.record(p.trace, p.root, "service.submit", p.start_s, done);
    tracer.close(p.root, done);
    out.submit_us.push_back((done - p.start_s) * 1e6);
  }
}

service::ServerOptions daemon_options() {
  service::ServerOptions o;  // lcld's defaults
  o.threads = kDaemonThreads;
  return o;
}

}  // namespace

int run_service(const Options& opt, Report& report) {
  const auto run_start = Clock::now();
  const bool mixed = opt.workload == "lcld_mixed";
  Traffic traffic(opt.seed);
  // The in-process reference replies (untimed).
  service::Server reference(daemon_options());
  std::vector<std::string> expected;
  for (const std::string& line : traffic.lines()) {
    expected.push_back(reference.handle_line(line));
  }
  const std::vector<std::string> solves =
      mixed ? solve_lines(opt.seed)
            : std::vector<std::string>{};
  const int solve_clients = mixed ? kSolveClients : 0;
  const auto reference_reply = [&](const std::string& line) {
    return reference.handle_line(line);
  };

  Pool fixed, walls, walls_probed;
  std::vector<Rung> rungs;
  std::map<std::string, double> layers;

  if (!opt.trace) {
    // Set-up: exec until the port is announced and the prewarm replies
    // are in; the last daemon serves the measured traffic.
    std::vector<double> setup_s;
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<Generator> gen;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      gen.reset();
      daemon.reset();
      const auto t0 = Clock::now();
      daemon = std::make_unique<Daemon>(opt.lcld);
      gen = std::make_unique<Generator>(traffic, expected, daemon->port(),
                                        solve_clients);
      gen->prewarm();
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    const auto measured_from = Clock::now();
    // The daemon's peak memory after the first cycle, a fixed amount of
    // work; later cycles add never-seen problems as time allows.
    double rss = 0.0;
    rungs = measure(opt, *gen, solves, fixed, walls, nullptr, nullptr,
                    [&] { rss = daemon->peak_rss_mb(); });
    const auto checked_from = Clock::now();
    gen->check_cold(reference_reply);
    char stages[160];
    std::snprintf(stages, sizeof(stages),
                  "stages: set-up %.2f s, measured %.2f s, cold checks "
                  "%.2f s",
                  seconds_between(run_start, measured_from),
                  seconds_between(measured_from, checked_from),
                  seconds_between(checked_from, Clock::now()));
    report.note(stages);
    report.attempted += gen->attempted();
    report.failed += gen->failed();
    for (const std::string& p : gen->issues()) report.note(p);
    gen.reset();
    daemon.reset();

    report.add("setup_s", median(setup_s), "s");
    report.add("wall_s", median(walls.wall_s), "s");
    report.add("peak_rss_mb", rss, "MiB");
  } else {
    service::Server server(daemon_options());
    service::TransportOptions topts;  // lcld's defaults
    topts.tcp_host = "127.0.0.1";
    topts.tcp_port = 0;
    service::Transport transport(server, topts);
    transport.listen_now();
    transport.start();
    Generator gen(traffic, expected, transport.port(), solve_clients);
    gen.prewarm();
    const service::CacheStats before = server.cache().stats();

    Tracer tracer;
    Probes probes;
    std::int64_t probe_failed = 0;
    std::atomic<bool> on{false};
    std::atomic<bool> stop{false};
    {
      std::thread prober([&] {
        probe_loop(server, traffic, expected, opt.seed, on, stop, tracer,
                   probes, probe_failed);
      });
      // Stops and joins the prober on every exit, exceptions included.
      struct Joiner {
        std::atomic<bool>& stop;
        std::thread& thread;
        ~Joiner() {
          stop.store(true);
          thread.join();
        }
      } joiner{stop, prober};
      rungs = measure(opt, gen, solves, fixed, walls, &on, &walls_probed,
                      [] {});
    }
    transport.stop();

    const service::CacheStats after = server.cache().stats();
    const service::TransportStats ts = transport.stats();
    const double lookups = static_cast<double>(
        (after.hits - before.hits) + (after.misses - before.misses));
    gen.check_cold(reference_reply);
    report.attempted += gen.attempted();
    report.failed += gen.failed() + probe_failed;
    for (const std::string& p : gen.issues()) report.note(p);

    const double handle_us = median(probes.handle_us);
    const double parse_us = median(probes.parse_us);
    const double submit_us = median(probes.submit_us);
    layers["service.parse_us"] = parse_us;
    layers["service.classify_exec_us"] = handle_us - parse_us;
    layers["service.cache_hit_ratio"] =
        lookups > 0
            ? static_cast<double>(after.hits - before.hits) / lookups
            : 0.0;
    layers["service.cache_evictions"] =
        static_cast<double>(after.evictions - before.evictions);
    layers["problems.classify_us"] = median(probes.cold_us);
    layers["service.queue_wait_ms.classify"] =
        (submit_us - handle_us) / 1e3;
    layers["service.rejected"] =
        static_cast<double>(server.stats().rejected);
    layers["transport.overhead_us"] = median(fixed.rtt_ms) * 1e3 - submit_us;
    layers["transport.read_pauses"] = static_cast<double>(ts.read_pauses);
    layers["transport.peak_backlog_bytes"] =
        static_cast<double>(ts.peak_backlog_bytes);
    if (mixed) {
      std::vector<double> exec_ms;
      for (const std::string& line : solves) {
        const auto t0 = Clock::now();
        (void)server.handle_line(line);
        exec_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      }
      layers["service.solve_exec_ms"] = median(exec_ms);
      std::vector<double> solve_rtt = walls.solve_ms;
      solve_rtt.insert(solve_rtt.end(), walls_probed.solve_ms.begin(),
                       walls_probed.solve_ms.end());
      layers["service.queue_wait_ms.solve"] =
          median(solve_rtt) - median(exec_ms);
    }
    layers["trace.overhead_s"] =
        median(walls_probed.wall_s) - median(walls.wall_s);
    layers["lcld.classify_p50_ms"] = median(fixed.p50_ms);
    layers["lcld.classify_p90_ms"] = median(fixed.p90_ms);
    const auto self = self_time_s(tracer.spans());
    char buf[160];
    for (const auto& [name, s] : self) {
      std::snprintf(buf, sizeof(buf), "self time %-26s %.3f ms",
                    name.c_str(), s * 1e3);
      report.note(buf);
    }
    write_trace(opt, tracer);
  }

  // Diagnostics shared by both runs, under the metric names of the
  // benchmark's documentation.
  layers["bench.send_lag_p99_ms"] = nearest_rank(fixed.send_lag_ms, 0.99);
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "classify_p50_ms %.4f, classify_p90_ms %.4f, "
                "classify_p99_ms %.4f (medians over %zu valid phases of "
                "%.0f req/s; %zu samples pooled)",
                median(fixed.p50_ms), median(fixed.p90_ms),
                median(fixed.p99_ms), fixed.p50_ms.size(),
                mixed ? kMixedRate : kClassifyRate, fixed.latency_ms.size());
  report.note(buf);
  report.note(describe("  pooled classify latency", fixed.latency_ms, "ms"));
  std::string phases = "  per-phase p50/p90 ms:";
  for (std::size_t i = 0; i < fixed.p90_ms.size(); ++i) {
    phases += " " + std::to_string(fixed.p50_ms[i]) + "/" +
              std::to_string(fixed.p90_ms[i]);
  }
  report.note(phases);
  std::snprintf(buf, sizeof(buf),
                "send_lag_ms p99 %.4f over %zu sends; %d of %d phases "
                "invalid (generator-bound), %d without a supported p99",
                nearest_rank(fixed.send_lag_ms, 0.99),
                fixed.send_lag_ms.size(), fixed.invalid, fixed.phases,
                fixed.unsupported);
  report.note(buf);
  if (fixed.used_invalid) {
    report.note("every phase was generator-bound (host contention); the "
                "figures cover all phases");
  }
  if (fixed.p90_ms.empty() || walls.wall_s.empty()) {
    report.note("no phase was measured");
    ++report.failed;
  }
  if (mixed) {
    report.note(describe("solve_p50_ms: solve round trip", walls.solve_ms,
                         "ms"));
    const double total = static_cast<double>(kSolveClients) *
                         static_cast<double>(kSolvesPerClient);
    std::snprintf(buf, sizeof(buf), "solves_per_s %.4f 1/s",
                  total / median(walls.wall_s));
    report.note(buf);
  } else {
    for (const Rung& r : rungs) {
      std::snprintf(buf, sizeof(buf),
                    "  ladder %6.0f req/s: n=%zu p99=%.4f ms growing=%d "
                    "valid=%d",
                    r.rate, r.latency_ms.size(),
                    nearest_rank(r.latency_ms, 0.99), r.growing ? 1 : 0,
                    r.valid ? 1 : 0);
      report.note(buf);
    }
    std::snprintf(buf, sizeof(buf),
                  "classify_max_rps %.0f req/s (p99 <= %.1f ms, no "
                  "growing backlog)",
                  max_rate_meeting(rungs, kP99LimitMs), kP99LimitMs);
    report.note(buf);
  }
  std::snprintf(buf, sizeof(buf), "failed_ratio %.6f (%lld of %lld)",
                report.attempted > 0
                    ? static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted)
                    : 0.0,
                static_cast<long long>(report.failed),
                static_cast<long long>(report.attempted));
  report.note(buf);
  if (opt.trace) emit_layers(layers, report);
  return 0;
}

}  // namespace perfbench
