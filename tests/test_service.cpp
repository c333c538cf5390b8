// Service-layer suite: the ProblemCache contract (sharded LRU,
// byte-budget eviction, counters), the protocol's typed error taxonomy,
// the admission queue's backpressure and timeout behavior, and the
// cache-hit determinism contract — identical requests produce
// byte-identical responses regardless of thread interleaving (the
// response carries no per-request state beyond the echoed id, and warm
// hits replay the cold response's stored bytes).
// The transport suite at the bottom drives the poll-based connection
// supervisor (service/transport.*) over real loopback TCP and Unix
// sockets: pipelined ordering, per-connection flow control (write-
// backlog stall/resume, in-flight window), the --max-conns rejection
// path, connection churn resource bounds, and the regression tests for
// the pre-supervisor I/O bugs (EINTR-as-fatal writes, SIGPIPE death on
// a vanished client, dropped final line without a trailing newline).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/json.hpp"
#include "problems/lclgen.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace lcl {
namespace {

using core::json::Value;
using problems::BwTable;
using service::CacheStats;
using service::ProblemCache;
using service::Server;
using service::ServerOptions;

Value parse(const std::string& response) {
  return core::json::parse(response);
}

std::string classify_line(std::uint64_t seed) {
  return "{\"type\":\"classify\",\"problem_seed\":" +
         std::to_string(seed) + "}";
}

// ---------------------------------------------------------------------------
// ProblemCache.
// ---------------------------------------------------------------------------

TEST(ProblemCache, CountsHitsAndMisses) {
  ProblemCache cache(1 << 20);
  const BwTable t = problems::sample_table(7);
  const auto cold = cache.get_or_compute(t);
  const auto warm = cache.get_or_compute(t);
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(cold.get(), warm.get());  // same resident entry
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(ProblemCache, PermutedAndPaddedTablesShareOneEntry) {
  ProblemCache cache(1 << 20);
  const BwTable t = problems::edge_coloring_table(3, 3);
  const auto base = cache.get_or_compute(t);
  const auto permuted =
      cache.get_or_compute(problems::permute_table(t, {2, 0, 1}));
  const auto padded = cache.get_or_compute(problems::pad_table(t, 1));
  EXPECT_EQ(base.get(), permuted.get());
  EXPECT_EQ(base.get(), padded.get());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);
}

TEST(ProblemCache, EvictsLeastRecentlyUsedPastByteBudget) {
  // A one-byte budget on a single shard: every insert displaces the
  // previous resident (an oversized singleton stays until displaced).
  ProblemCache cache(1, /*shards=*/1);
  const std::vector<BwTable> tables = problems::sample_problems(1, 6);
  ASSERT_GE(tables.size(), 3u);
  std::vector<std::string> keys;
  for (const BwTable& t : tables) {
    keys.push_back(cache.get_or_compute(t)->key);
  }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, tables.size() - 1);
  // Only the most recent key is resident.
  EXPECT_EQ(cache.lookup(keys.front()), nullptr);
  EXPECT_NE(cache.lookup(keys.back()), nullptr);
}

TEST(ProblemCache, EvictionOrderFollowsTouchRecencyNotInsertion) {
  // Synthetic entries with pinned byte costs make the order exact: a
  // budget of 100 holds two 40-byte entries; touching "a" makes "b"
  // the LRU victim when "c" arrives.
  const auto make = [](const std::string& key, std::size_t bytes) {
    auto e = std::make_shared<service::CacheEntry>();
    e->key = key;
    e->bytes = bytes;
    return e;
  };
  ProblemCache cache(100, /*shards=*/1);
  cache.insert(make("a", 40));
  cache.insert(make("b", 40));
  ASSERT_NE(cache.lookup("a"), nullptr);  // refresh: "b" is now LRU
  cache.insert(make("c", 40));
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_EQ(cache.lookup("b"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// ---------------------------------------------------------------------------
// Protocol errors.
// ---------------------------------------------------------------------------

TEST(ServiceProtocol, MalformedJsonIsBadJson) {
  Server server(ServerOptions{});
  const Value v = parse(server.handle_line("this is not json"));
  EXPECT_FALSE(v.get_bool("ok", true));
  EXPECT_EQ(v.get_string("error", ""), "bad_json");
}

TEST(ServiceProtocol, DeeplyNestedLineIsBadJson) {
  // One 200 KB line of nested '[' used to recurse the JSON parser off
  // the stack and take the daemon down with every client on it.
  Server server(ServerOptions{});
  const Value v = parse(server.handle_line(std::string(200 * 1024, '[')));
  EXPECT_FALSE(v.get_bool("ok", true));
  EXPECT_EQ(v.get_string("error", ""), "bad_json");
  // The server keeps answering afterwards.
  EXPECT_TRUE(parse(server.handle_line("{\"type\":\"info\"}"))
                  .get_bool("ok", false));
}

TEST(ServiceProtocol, UnknownTypeIsTyped) {
  Server server(ServerOptions{});
  const Value v =
      parse(server.handle_line("{\"type\":\"frobnicate\",\"id\":4}"));
  EXPECT_FALSE(v.get_bool("ok", true));
  EXPECT_EQ(v.get_string("error", ""), "unknown_type");
  EXPECT_EQ(v.get_number("id", -1), 4);  // id echoed on errors too
}

TEST(ServiceProtocol, ClassifyNeedsExactlyOneSelector) {
  Server server(ServerOptions{});
  EXPECT_EQ(parse(server.handle_line("{\"type\":\"classify\"}"))
                .get_string("error", ""),
            "bad_request");
  EXPECT_EQ(parse(server.handle_line(
                      "{\"type\":\"classify\",\"problem_seed\":1,"
                      "\"problem\":\"free\"}"))
                .get_string("error", ""),
            "bad_request");
}

TEST(ServiceProtocol, OversizedTableIsRejected) {
  Server server(ServerOptions{});
  const Value v = parse(server.handle_line(
      "{\"type\":\"classify\",\"table\":{\"alphabet\":9,"
      "\"max_degree\":3,\"allowed\":[1,1,1]}}"));
  EXPECT_EQ(v.get_string("error", ""), "oversized_table");
  const Value deep = parse(server.handle_line(
      "{\"type\":\"classify\",\"table\":{\"alphabet\":2,"
      "\"max_degree\":9,\"allowed\":[1,1,1,1,1,1,1,1,1]}}"));
  EXPECT_EQ(deep.get_string("error", ""), "oversized_table");
}

TEST(ServiceProtocol, StrayMaskBitsAreBadRequest) {
  Server server(ServerOptions{});
  // Degree-1 over alphabet 2 has exactly 2 multisets; bit 2 is invalid.
  const Value v = parse(server.handle_line(
      "{\"type\":\"classify\",\"table\":{\"alphabet\":2,"
      "\"max_degree\":1,\"allowed\":[4]}}"));
  EXPECT_EQ(v.get_string("error", ""), "bad_request");
}

TEST(ServiceProtocol, UnknownSolverAndFamilyAreTyped) {
  Server server(ServerOptions{});
  EXPECT_EQ(parse(server.handle_line(
                      "{\"type\":\"solve\",\"solver\":\"nope\"}"))
                .get_string("error", ""),
            "unknown_solver");
  EXPECT_EQ(parse(server.handle_line(
                      "{\"type\":\"solve\",\"family\":\"nope\"}"))
                .get_string("error", ""),
            "unknown_family");
}

TEST(ServiceProtocol, UndeclaredSolverOptionIsBadRequest) {
  Server server(ServerOptions{});
  const Value v = parse(server.handle_line(
      "{\"type\":\"solve\",\"problem_seed\":0,\"n\":64,"
      "\"options\":{\"frob\":3}}"));
  EXPECT_EQ(v.get_string("error", ""), "bad_request");
}

TEST(ServiceProtocol, MisconfiguredSolveIsBadRequest) {
  // Each passes the per-option range checks but cannot be built: |gammas|
  // != k-1, a gamma the solver refuses, a delta the family refuses. The
  // solve is rejected before any full-size instance is built.
  Server server(ServerOptions{});
  for (const char* line :
       {"{\"type\":\"solve\",\"solver\":\"apoly\","
        "\"options\":{\"k\":3,\"gammas\":[5]}}",
        "{\"type\":\"solve\",\"solver\":\"weight_aug\","
        "\"options\":{\"gamma\":1}}",
        "{\"type\":\"solve\",\"solver\":\"bw_generic\","
        "\"family\":\"random_attach\",\"delta\":1}"}) {
    const Value v = parse(server.handle_line(line));
    EXPECT_FALSE(v.get_bool("ok", true)) << line;
    EXPECT_EQ(v.get_string("error", ""), "bad_request") << line;
  }
}

TEST(ServiceProtocol, IdIsEchoedWhenPresentAndOmittedWhenNot) {
  Server server(ServerOptions{});
  const std::string with_id =
      server.handle_line("{\"type\":\"info\",\"id\":123}");
  EXPECT_EQ(with_id.rfind("{\"id\":123,", 0), 0u);
  const std::string without_id = server.handle_line("{\"type\":\"info\"}");
  EXPECT_EQ(without_id.rfind("{\"ok\":true", 0), 0u);
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

TEST(ServiceRoundTrip, RepeatedClassifyIsServedFromCacheByteIdentical) {
  Server server(ServerOptions{});
  const std::string line =
      "{\"type\":\"classify\",\"id\":1,\"problem_seed\":42}";
  const std::string cold = server.handle_line(line);
  const std::uint64_t hits_before = server.cache().stats().hits;
  const std::string warm = server.handle_line(line);
  EXPECT_EQ(cold, warm);  // byte-identical, id included
  EXPECT_EQ(server.cache().stats().hits, hits_before + 1);

  const Value v = parse(cold);
  EXPECT_TRUE(v.get_bool("ok", false));
  EXPECT_EQ(v.get_string("type", ""), "classify");
  EXPECT_FALSE(v.get_string("key", "").empty());
  const std::string predicted = v.get_string("predicted", "");
  EXPECT_TRUE(predicted == "O(1)" || predicted == "log*-range" ||
              predicted == "Theta(log n)" || predicted == "unsolvable")
      << predicted;
  ASSERT_NE(v.find("region"), nullptr);
  EXPECT_FALSE(v.find("region")->get_string("range", "").empty());
}

TEST(ServiceRoundTrip, NamedProblemClassifies) {
  Server server(ServerOptions{});
  const Value v = parse(server.handle_line(
      "{\"type\":\"classify\",\"problem\":\"edge_coloring\"}"));
  EXPECT_TRUE(v.get_bool("ok", false));
  EXPECT_EQ(parse(server.handle_line(
                      "{\"type\":\"classify\",\"problem\":\"nope\"}"))
                .get_string("error", ""),
            "bad_request");
}

TEST(ServiceRoundTrip, SolveRunsAndCertifies) {
  Server server(ServerOptions{});
  const Value v = parse(server.handle_line(
      "{\"type\":\"solve\",\"id\":9,\"problem_seed\":0,"
      "\"solver\":\"bw_generic\",\"family\":\"path\",\"n\":256,"
      "\"seed\":3}"));
  EXPECT_TRUE(v.get_bool("ok", false));
  EXPECT_EQ(v.get_string("type", ""), "solve");
  EXPECT_EQ(v.get_string("status", ""), "ok");
  EXPECT_TRUE(v.get_bool("certified", false));
  EXPECT_EQ(v.get_number("n", 0), 256);
  EXPECT_FALSE(v.get_string("key", "").empty());
  EXPECT_GE(v.get_number("term_p99", -1), 0);
  // The solve warmed the problem cache: the matching classify hits.
  const std::uint64_t hits_before = server.cache().stats().hits;
  (void)server.handle_line(classify_line(0));
  EXPECT_EQ(server.cache().stats().hits, hits_before + 1);
}

TEST(ServiceRoundTrip, InfoReportsCounters) {
  Server server(ServerOptions{});
  (void)server.handle_line(classify_line(42));
  (void)server.handle_line(classify_line(42));
  const Value v = parse(server.handle_line("{\"type\":\"info\"}"));
  EXPECT_TRUE(v.get_bool("ok", false));
  EXPECT_EQ(v.get_string("type", ""), "info");
  EXPECT_GE(v.get_number("uptime_ms", -1), 0.0);
  EXPECT_EQ(v.get_number("cache_hits", -1), 1);
  EXPECT_EQ(v.get_number("cache_misses", -1), 1);
  EXPECT_EQ(v.get_number("cache_entries", -1), 1);
  EXPECT_GE(v.get_number("threads", 0), 1);
}

// ---------------------------------------------------------------------------
// Admission queue: backpressure, timeout, drain.
// ---------------------------------------------------------------------------

TEST(ServiceQueue, RejectsBeyondMaxQueueWithOverloaded) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  ServerOptions opts;
  opts.threads = 1;
  opts.max_queue = 1;
  opts.before_execute = [&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  Server server(opts);

  // First request: dequeued by the only worker, parked in the hook.
  auto first = server.submit(classify_line(1));
  while (entered.load() == 0) std::this_thread::yield();
  // Second request: fills the queue (depth 1).
  auto second = server.submit(classify_line(2));
  // Third: over the depth — rejected immediately, without blocking.
  auto third = server.submit(classify_line(3));
  ASSERT_EQ(third.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const Value rejected = parse(third.get());
  EXPECT_FALSE(rejected.get_bool("ok", true));
  EXPECT_EQ(rejected.get_string("error", ""), "overloaded");

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(parse(first.get()).get_bool("ok", false));
  EXPECT_TRUE(parse(second.get()).get_bool("ok", false));
}

TEST(ServiceQueue, ZeroTimeoutExpiresEveryQueuedRequest) {
  ServerOptions opts;
  opts.threads = 1;
  opts.timeout_ms = 0.0;  // expired the moment a worker dequeues it
  Server server(opts);
  const Value v = parse(server.submit(classify_line(1)).get());
  EXPECT_FALSE(v.get_bool("ok", true));
  EXPECT_EQ(v.get_string("error", ""), "timeout");
}

TEST(ServiceQueue, DrainStopsAdmissionAndFinishesQueuedWork) {
  ServerOptions opts;
  opts.threads = 2;
  Server server(opts);
  auto pending = server.submit(classify_line(5));
  server.drain();
  EXPECT_TRUE(parse(pending.get()).get_bool("ok", false));
  const Value after = parse(server.submit(classify_line(6)).get());
  EXPECT_EQ(after.get_string("error", ""), "overloaded");
}

// ---------------------------------------------------------------------------
// Concurrency: cache-hit determinism under interleaving.
// ---------------------------------------------------------------------------

TEST(ServiceHammer, IdenticalRequestsGetByteIdenticalResponses) {
  ServerOptions opts;
  opts.threads = 4;
  opts.max_queue = 4096;
  Server server(opts);

  // Four distinct problems, hammered by eight clients through both
  // entry points. Identical request lines (no id) must produce
  // byte-identical responses no matter which thread computed the cold
  // entry or how lookups interleaved with evict-free inserts.
  const std::vector<std::uint64_t> seeds = {0, 42, 1234, 98765};
  constexpr int kClients = 8;
  constexpr int kPerClient = 32;

  std::vector<std::vector<std::string>> responses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::uint64_t seed =
            seeds[static_cast<std::size_t>((c + i) % 4)];
        const std::string line = classify_line(seed);
        std::string response = (c + i) % 2 == 0
                                   ? server.handle_line(line)
                                   : server.submit(line).get();
        responses[static_cast<std::size_t>(c)].push_back(
            std::move(response));
      }
    });
  }
  for (auto& t : clients) t.join();

  // Group by the request that produced each response (reconstructable
  // from the deterministic (c, i) schedule) and assert equality.
  std::map<std::uint64_t, std::string> canonical;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      const std::uint64_t seed =
          seeds[static_cast<std::size_t>((c + i) % 4)];
      const std::string& got =
          responses[static_cast<std::size_t>(c)][static_cast<std::size_t>(
              i)];
      auto [it, inserted] = canonical.emplace(seed, got);
      if (!inserted) {
        ASSERT_EQ(got, it->second) << "seed " << seed;
      }
    }
  }

  const CacheStats s = server.cache().stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(s.entries, seeds.size());
}

TEST(ServiceHammer, ConcurrentSolvesMatchSerialSolves) {
  // Solves from several clients share the server's pool: they queue in
  // it side by side, and one running alone gets the idle worker's help
  // with its large rounds (5,000-node walks are sharded). Every reply
  // must equal the one-worker server's reply to the same line.
  auto solve_line = [](int k) {
    const std::string family = k % 3 == 0 ? "path" : "random_attach";
    const int n = k % 2 == 0 ? 5000 : 700;
    return "{\"type\":\"solve\",\"problem_seed\":0,"
           "\"solver\":\"bw_generic\",\"family\":\"" +
           family + "\",\"n\":" + std::to_string(n) +
           ",\"seed\":" + std::to_string(k) + "}";
  };
  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  std::vector<std::string> expected;
  {
    ServerOptions opts;
    opts.threads = 1;
    Server serial(opts);
    for (int k = 0; k < kClients * kPerClient; ++k) {
      expected.push_back(serial.handle_line(solve_line(k)));
    }
  }

  ServerOptions opts;
  opts.threads = 2;
  opts.max_queue = 64;
  Server server(opts);
  std::vector<std::string> got(expected.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int k = c * kPerClient + i;
        const std::string line = solve_line(k);
        got[static_cast<std::size_t>(k)] =
            i % 2 == 0 ? server.handle_line(line) : server.submit(line).get();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_TRUE(parse(expected[k]).get_bool("certified", false)) << k;
    EXPECT_EQ(got[k], expected[k]) << "request " << k;
  }
}

// ---------------------------------------------------------------------------
// Transport supervisor: TCP/Unix sockets, pipelining, flow control.
// ---------------------------------------------------------------------------

using service::Transport;
using service::TransportOptions;
using service::TransportStats;

/// `rcvbuf_bytes > 0` shrinks the client's receive buffer before the
/// handshake, so the advertised window stays small.
int tcp_connect(int port, int rcvbuf_bytes = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
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
  // Tests must fail visibly, not hang: bounded reads.
  timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

int unix_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocking buffered line read; false on EOF/error/timeout.
bool read_line(int fd, std::string& buf, std::string& line) {
  for (;;) {
    const std::size_t newline = buf.find('\n');
    if (newline != std::string::npos) {
      line.assign(buf, 0, newline);
      buf.erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got > 0) {
      buf.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;
  }
}

bool send_all(int fd, const std::string& data) {
  return service::write_fully(fd, data);
}

std::size_t open_fd_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(ServiceTransport, ParseHostportAcceptsValidRejectsMalformed) {
  std::string host;
  int port = -1;
  EXPECT_TRUE(service::parse_hostport("127.0.0.1:8080", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  EXPECT_TRUE(service::parse_hostport("localhost:0", host, port));
  EXPECT_EQ(port, 0);
  EXPECT_FALSE(service::parse_hostport("no-port", host, port));
  EXPECT_FALSE(service::parse_hostport(":123", host, port));
  EXPECT_FALSE(service::parse_hostport("host:", host, port));
  EXPECT_FALSE(service::parse_hostport("host:abc", host, port));
  EXPECT_FALSE(service::parse_hostport("host:70000", host, port));
}

TEST(ServiceTransport, TcpConcurrentClientsGetByteIdenticalWarmReplies) {
  ServerOptions sopts;
  sopts.threads = 2;
  Server server(sopts);
  TransportOptions topts;
  topts.tcp_host = "127.0.0.1";
  Transport transport(server, topts);
  transport.listen_now();
  transport.start();

  const std::vector<std::uint64_t> seeds = {0, 42, 1234};
  std::map<std::uint64_t, std::string> expected;
  for (const std::uint64_t s : seeds) {
    expected[s] = server.handle_line(classify_line(s));  // prewarm
  }

  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = tcp_connect(transport.port());
      ASSERT_GE(fd, 0);
      std::string buf;
      std::string line;
      for (int i = 0; i < kPerClient; ++i) {
        const std::uint64_t seed =
            seeds[static_cast<std::size_t>((c + i) % seeds.size())];
        ASSERT_TRUE(send_all(fd, classify_line(seed) + "\n"));
        ASSERT_TRUE(read_line(fd, buf, line));
        if (line != expected[seed]) mismatches.fetch_add(1);
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  transport.stop();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(transport.stats().accepted, static_cast<std::uint64_t>(kClients));
}

TEST(ServiceTransport, PipelinedRequestsComeBackInRequestOrder) {
  ServerOptions sopts;
  sopts.threads = 4;  // responses complete out of order server-side
  Server server(sopts);
  TransportOptions topts;
  topts.tcp_host = "127.0.0.1";
  topts.pipeline_depth = 8;  // smaller than the burst: window recycles
  Transport transport(server, topts);
  transport.listen_now();
  transport.start();

  constexpr int kBurst = 32;
  const std::vector<std::uint64_t> seeds = {0, 42, 1234, 98765};
  std::string batch;
  std::vector<std::string> expected;
  for (int i = 1; i <= kBurst; ++i) {
    const std::string line =
        "{\"type\":\"classify\",\"id\":" + std::to_string(i) +
        ",\"problem_seed\":" +
        std::to_string(seeds[static_cast<std::size_t>(i) % seeds.size()]) +
        "}";
    expected.push_back(server.handle_line(line));
    batch += line;
    batch += '\n';
  }

  const int fd = tcp_connect(transport.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, batch));  // the whole burst in one write
  std::string buf;
  std::string line;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(read_line(fd, buf, line)) << "response " << i;
    EXPECT_EQ(line, expected[static_cast<std::size_t>(i)])
        << "response " << i << " out of order";
  }
  ::close(fd);
  transport.stop();
  EXPECT_EQ(transport.stats().lines_in, static_cast<std::uint64_t>(kBurst));
}

TEST(ServiceTransport, WriteBacklogStallsReadsAndResumes) {
  ServerOptions sopts;
  sopts.threads = 2;
  Server server(sopts);
  TransportOptions topts;
  topts.tcp_host = "127.0.0.1";
  topts.pipeline_depth = 64;
  topts.max_backlog_bytes = 256;  // tiny: one warm reply overflows it
  topts.sndbuf_bytes = 1;         // clamped to the kernel minimum
  topts.poll_ms = 20;
  Transport transport(server, topts);
  transport.listen_now();
  transport.start();

  const std::string request = classify_line(42);
  const std::string expected = server.handle_line(request);  // prewarm

  // Pipeline a burst whose responses exceed what the shrunken kernel
  // buffers can absorb, then refuse to read for a while: the supervisor
  // must park the connection (bounded backlog, reads paused) instead of
  // buffering every rendered response.
  constexpr int kBurst = 64;
  std::string batch;
  for (int i = 0; i < kBurst; ++i) batch += request + "\n";
  // The client's receive buffer is shrunk as well (clamped to the
  // kernel minimum): otherwise the kernel can absorb the whole burst of
  // responses, the backlog never builds and whether reads pause depends
  // on scheduling.
  const int fd = tcp_connect(transport.port(), 1);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, batch));
  // Wait for the supervisor to park the connection. Polling the stats
  // (instead of sleeping a fixed time) keeps the test stable on a
  // loaded machine; the deadline only bounds a genuine failure.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (transport.stats().read_pauses < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const TransportStats stalled = transport.stats();
  EXPECT_GE(stalled.read_pauses, 1u) << "reads never paused";
  EXPECT_LE(stalled.peak_backlog_bytes,
            topts.max_backlog_bytes + expected.size() + 1)
      << "backlog not bounded";

  // Drain: every response arrives, byte-identical, and the connection
  // resumes for a follow-up request.
  std::string buf;
  std::string line;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(read_line(fd, buf, line)) << "response " << i;
    EXPECT_EQ(line, expected);
  }
  ASSERT_TRUE(send_all(fd, request + "\n"));
  ASSERT_TRUE(read_line(fd, buf, line));
  EXPECT_EQ(line, expected);
  ::close(fd);
  transport.stop();
  EXPECT_EQ(transport.stats().responses_out,
            static_cast<std::uint64_t>(kBurst + 1));
}

TEST(ServiceTransport, MaxConnsRejectsExtraConnectionsWithTypedError) {
  ServerOptions sopts;
  sopts.threads = 1;
  Server server(sopts);
  TransportOptions topts;
  topts.tcp_host = "127.0.0.1";
  topts.max_conns = 2;
  topts.poll_ms = 20;
  Transport transport(server, topts);
  transport.listen_now();
  transport.start();

  const std::string request = classify_line(0);
  const std::string expected = server.handle_line(request);

  // Two resident connections, both verified live.
  int held[2];
  std::string bufs[2];
  std::string line;
  for (int i = 0; i < 2; ++i) {
    held[i] = tcp_connect(transport.port());
    ASSERT_GE(held[i], 0);
    ASSERT_TRUE(send_all(held[i], request + "\n"));
    ASSERT_TRUE(read_line(held[i], bufs[i], line));
    EXPECT_EQ(line, expected);
  }

  // The third is answered with one `overloaded` line and closed.
  const int extra = tcp_connect(transport.port());
  ASSERT_GE(extra, 0);
  std::string extra_buf;
  ASSERT_TRUE(read_line(extra, extra_buf, line));
  const Value rejected = parse(line);
  EXPECT_FALSE(rejected.get_bool("ok", true));
  EXPECT_EQ(rejected.get_string("error", ""), "overloaded");
  char byte;
  EXPECT_EQ(::recv(extra, &byte, 1, 0), 0) << "rejected conn not closed";
  ::close(extra);

  // Freeing a slot re-opens admission.
  ::close(held[0]);
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int fd = tcp_connect(transport.port());
    ASSERT_GE(fd, 0);
    std::string buf;
    ASSERT_TRUE(send_all(fd, request + "\n"));
    ASSERT_TRUE(read_line(fd, buf, line));
    if (parse(line).get_bool("ok", false)) {
      EXPECT_EQ(line, expected);
      admitted = true;
    }
    ::close(fd);
  }
  EXPECT_TRUE(admitted) << "slot never freed after close";
  ::close(held[1]);
  transport.stop();
  EXPECT_GE(transport.stats().rejected_at_capacity, 1u);
}

TEST(ServiceTransport, FinalLineWithoutTrailingNewlineIsServedAtEof) {
  // Regression: the pre-supervisor loop silently dropped a final
  // request that arrived without '\n' before EOF.
  ServerOptions sopts;
  sopts.threads = 1;
  Server server(sopts);
  TransportOptions topts;
  topts.tcp_host = "127.0.0.1";
  Transport transport(server, topts);
  transport.listen_now();
  transport.start();

  const std::string request = classify_line(42);
  const std::string expected = server.handle_line(request);

  const int fd = tcp_connect(transport.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, request));  // no trailing newline
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::string buf;
  std::string line;
  ASSERT_TRUE(read_line(fd, buf, line)) << "residual line dropped at EOF";
  EXPECT_EQ(line, expected);
  EXPECT_FALSE(read_line(fd, buf, line));  // then EOF
  ::close(fd);

  // Mixed form: complete lines plus an unterminated final one.
  const int fd2 = tcp_connect(transport.port());
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(send_all(fd2, request + "\n" + request));
  ASSERT_EQ(::shutdown(fd2, SHUT_WR), 0);
  std::string buf2;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(read_line(fd2, buf2, line)) << "response " << i;
    EXPECT_EQ(line, expected);
  }
  ::close(fd2);
  transport.stop();
}

TEST(ServiceTransport, ClientVanishingMidReplyDoesNotKillTheDaemon) {
  // Regression for the SIGPIPE hole: a client that disconnects before
  // its response is written must cost only its own connection. Without
  // MSG_NOSIGNAL the daemon thread would take SIGPIPE (default: process
  // death — this test dies with it).
  ServerOptions sopts;
  sopts.threads = 2;
  Server server(sopts);
  TransportOptions topts;
  topts.tcp_host = "127.0.0.1";
  topts.poll_ms = 20;
  Transport transport(server, topts);
  transport.listen_now();
  transport.start();

  const std::string request = classify_line(42);
  const std::string expected = server.handle_line(request);

  for (int i = 0; i < 16; ++i) {
    const int fd = tcp_connect(transport.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, request + "\n" + request + "\n"));
    ::close(fd);  // vanish before reading either response
  }

  // The daemon is still alive and serving.
  const int fd = tcp_connect(transport.port());
  ASSERT_GE(fd, 0);
  std::string buf;
  std::string line;
  ASSERT_TRUE(send_all(fd, request + "\n"));
  ASSERT_TRUE(read_line(fd, buf, line));
  EXPECT_EQ(line, expected);
  ::close(fd);
  transport.stop();
}

TEST(ServiceTransport, ConnectionChurnKeepsResourcesBounded) {
  // Regression for the unreaped thread-per-connection vector: a
  // long-lived daemon serving many short connections must not
  // accumulate per-connection resources. The supervisor owns no
  // threads, so the bound is file descriptors.
  ServerOptions sopts;
  sopts.threads = 1;
  Server server(sopts);
  TransportOptions topts;
  topts.tcp_host = "127.0.0.1";
  topts.poll_ms = 20;
  Transport transport(server, topts);
  transport.listen_now();
  transport.start();

  const std::string request = classify_line(0);
  const std::string expected = server.handle_line(request);

  constexpr int kChurn = 1500;
  const std::size_t fds_before = open_fd_count();
  std::string line;
  for (int i = 0; i < kChurn; ++i) {
    const int fd = tcp_connect(transport.port());
    ASSERT_GE(fd, 0) << "connect " << i;
    std::string buf;
    ASSERT_TRUE(send_all(fd, request + "\n"));
    ASSERT_TRUE(read_line(fd, buf, line)) << "connection " << i;
    ASSERT_EQ(line, expected);
    ::close(fd);
  }
  // Give the supervisor a tick to reap the last EOFs.
  for (int i = 0; i < 100 && transport.stats().open_conns > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const TransportStats ts = transport.stats();
  EXPECT_EQ(ts.accepted, static_cast<std::uint64_t>(kChurn));
  EXPECT_EQ(ts.open_conns, 0u);
  EXPECT_LE(ts.peak_conns, 4u);  // sequential clients never pile up
  const std::size_t fds_after = open_fd_count();
  EXPECT_LE(fds_after, fds_before + 4) << "fd leak across churn";
  transport.stop();
}

TEST(ServiceTransport, UnixSocketRepliesMatchTcpByteForByte) {
  // One server, both transports: the response bytes are a function of
  // the request alone, never of the transport that carried it.
  ServerOptions sopts;
  sopts.threads = 2;
  Server server(sopts);
  const std::string socket_path = "test_service_transport.sock";
  TransportOptions uopts;
  uopts.unix_path = socket_path;
  Transport unix_transport(server, uopts);
  unix_transport.listen_now();
  unix_transport.start();
  TransportOptions topts;
  topts.tcp_host = "127.0.0.1";
  Transport tcp_transport(server, topts);
  tcp_transport.listen_now();
  tcp_transport.start();

  const std::vector<std::uint64_t> seeds = {0, 42, 1234};
  for (const std::uint64_t seed : seeds) {
    const std::string request = classify_line(seed);
    const std::string inproc = server.handle_line(request);

    const int ufd = unix_connect(socket_path);
    ASSERT_GE(ufd, 0);
    std::string ubuf;
    std::string uline;
    ASSERT_TRUE(send_all(ufd, request + "\n"));
    ASSERT_TRUE(read_line(ufd, ubuf, uline));
    ::close(ufd);

    const int tfd = tcp_connect(tcp_transport.port());
    ASSERT_GE(tfd, 0);
    std::string tbuf;
    std::string tline;
    ASSERT_TRUE(send_all(tfd, request + "\n"));
    ASSERT_TRUE(read_line(tfd, tbuf, tline));
    ::close(tfd);

    EXPECT_EQ(uline, inproc) << "unix reply diverges, seed " << seed;
    EXPECT_EQ(tline, inproc) << "tcp reply diverges, seed " << seed;
  }
  unix_transport.stop();
  tcp_transport.stop();
  std::filesystem::remove(socket_path);
}

TEST(ServiceTransport, OversizedUnframedLineIsRejectedNotBuffered) {
  ServerOptions sopts;
  sopts.threads = 1;
  Server server(sopts);
  TransportOptions topts;
  topts.tcp_host = "127.0.0.1";
  topts.poll_ms = 20;
  Transport transport(server, topts);
  transport.listen_now();
  transport.start();

  const int fd = tcp_connect(transport.port());
  ASSERT_GE(fd, 0);
  // Stream > kMaxLineBytes with no newline: typed rejection, then EOF.
  const std::string blob(1 << 16, 'x');
  bool write_ok = true;
  for (std::size_t sent = 0; sent <= service::kMaxLineBytes && write_ok;
       sent += blob.size()) {
    write_ok = send_all(fd, blob);
  }
  std::string buf;
  std::string line;
  ASSERT_TRUE(read_line(fd, buf, line));
  const Value v = parse(line);
  EXPECT_FALSE(v.get_bool("ok", true));
  EXPECT_EQ(v.get_string("error", ""), "bad_request");
  ::close(fd);
  transport.stop();
}

// ---------------------------------------------------------------------------
// I/O helpers: the EINTR regression.
// ---------------------------------------------------------------------------

namespace eintr_test {
std::atomic<int> signals_taken{0};
void on_usr1(int) { signals_taken.fetch_add(1); }
}  // namespace eintr_test

TEST(ServiceIo, WriteFullyRetriesAcrossEintr) {
  // Regression: the pre-supervisor `write_all` treated any `got <= 0`
  // as fatal, so an EINTR — e.g. from the daemon's own SIGTERM-drain
  // signal — dropped the connection mid-response. `write_fully` must
  // ride out interrupts and deliver every byte.
  //
  // Install a no-SA_RESTART handler so blocked writes really do return
  // EINTR, then pepper a writer blocked on a full socket with signals
  // while the reader drains slowly.
  struct sigaction sa{};
  sa.sa_handler = eintr_test::on_usr1;
  sa.sa_flags = 0;  // no SA_RESTART: syscalls fail with EINTR
  sigemptyset(&sa.sa_mask);
  struct sigaction old{};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int min_buf = 1;  // clamped up to the kernel minimum
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &min_buf, sizeof(min_buf));

  std::string blob(1 << 20, '\0');
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<char>('a' + (i % 26));
  }

  std::atomic<bool> write_ok{false};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    write_ok.store(service::write_fully(fds[0], blob));
    writer_done.store(true);
  });
  const pthread_t writer_handle = writer.native_handle();

  std::string received;
  received.reserve(blob.size());
  char chunk[1024];  // small reads keep the writer blocked often
  eintr_test::signals_taken.store(0);
  while (received.size() < blob.size()) {
    if (!writer_done.load()) pthread_kill(writer_handle, SIGUSR1);
    const ssize_t got = ::recv(fds[1], chunk, sizeof(chunk), 0);
    ASSERT_GT(got, 0) << "writer hung up early";
    received.append(chunk, static_cast<std::size_t>(got));
  }
  writer.join();
  ::close(fds[0]);
  ::close(fds[1]);
  sigaction(SIGUSR1, &old, nullptr);

  EXPECT_TRUE(write_ok.load()) << "write_fully failed under EINTR";
  EXPECT_EQ(received, blob) << "bytes lost or reordered across EINTR";
  EXPECT_GT(eintr_test::signals_taken.load(), 0)
      << "test never actually interrupted the writer";
}

TEST(ServiceIo, WriteFullyReportsRealErrors) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  // Writing into a closed peer: EPIPE, no SIGPIPE, clean false.
  std::string data(1 << 16, 'x');
  bool ok = true;
  for (int i = 0; i < 8 && ok; ++i) ok = service::write_fully(fds[0], data);
  EXPECT_FALSE(ok);
  ::close(fds[0]);
}

}  // namespace
}  // namespace lcl
