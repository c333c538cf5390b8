// The lcld request server: admission, execution, memoization.
//
// One `Server` owns the `ProblemCache`, a `core::BatchRunner` pool for
// solve execution, and a bounded admission queue drained by worker
// threads. Two entry points:
//
//   * `handle_line` — synchronous: parse, execute, render. This is the
//     stdio pipe mode and the deterministic path the tests and the
//     service_sweep cache-hit phase use (single caller -> counters are
//     exact).
//   * `submit` — asynchronous with backpressure: the line is admitted
//     into a bounded FIFO (depth `max_queue`) or rejected immediately
//     with `overloaded`; workers drain the queue in order and fulfill
//     the returned future. A request older than `timeout_ms` by the
//     time a worker picks it up is answered `timeout` without
//     executing (the admission queue is where a saturated daemon ages
//     requests, so expiry is checked at dequeue). `timeout_ms < 0`
//     disables expiry; `timeout_ms == 0` expires everything — the
//     deterministic hook the timeout test uses.
//
// Execution: `classify` and `info` run inline on the calling/worker
// thread (a classify is one cache probe after warmup). `solve` builds
// a `core::BatchJob` — the same composition the bench scenarios use —
// and executes it through the shared `BatchRunner`, where concurrent
// solves queue in arrival order and idle pool workers help the large
// rounds of a running one; for table-driven
// solvers the job's program factory closes over the cache entry's
// canonical table, so a warm solve skips sampling, stripping, and
// canonicalization entirely.
//
// Shutdown is graceful-drain: `drain` stops admission (new submits get
// `overloaded`) and blocks until the queue is empty and no request is
// in flight; the destructor drains, then joins the workers.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"

namespace lcl::service {

struct ServerOptions {
  std::size_t cache_bytes = 64ull << 20;  ///< ProblemCache byte budget
  int cache_shards = 8;
  int threads = 1;      ///< admission workers == BatchRunner pool size
  int max_queue = 256;  ///< admission queue depth (backpressure beyond)
  double timeout_ms = -1.0;  ///< per-request age limit; < 0 = disabled
  /// Test seam: runs on the worker thread after dequeue + expiry check,
  /// before execution. The queue-full test parks the only worker here.
  std::function<void()> before_execute;
};

/// Snapshot served by the `info` request.
struct ServerStats {
  double uptime_ms = 0.0;
  CacheStats cache;
  std::uint64_t served = 0;     ///< responses produced (all paths)
  std::uint64_t rejected = 0;   ///< overloaded + timeout responses
  std::uint64_t in_flight = 0;  ///< currently executing (async path)
  std::uint64_t queue_depth = 0;
  int threads = 0;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Parse + execute + render, synchronously. Never throws: every
  /// failure renders as a typed error response.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Bounded-queue admission. The future always resolves to a response
  /// line (rejections resolve immediately).
  [[nodiscard]] std::future<std::string> submit(std::string line);

  /// Admission with a completion hook: `on_done` runs (on the worker
  /// thread, or inline for immediate rejections) after the returned
  /// future's value is set. This is the non-blocking contract the
  /// poll-based transport supervisor needs — it parks in poll() and the
  /// hook wakes it through a self-pipe, instead of a thread blocking in
  /// future::get per connection. The hook must be cheap and noexcept in
  /// spirit: it runs inside the serving path.
  [[nodiscard]] std::future<std::string> submit(
      std::string line, std::function<void()> on_done);

  /// Stop admitting, finish everything queued/in flight. Idempotent.
  void drain();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const ProblemCache& cache() const { return cache_; }

 private:
  struct Pending {
    std::string line;
    std::promise<std::string> done;
    std::function<void()> notify;  ///< runs after done.set_value
    std::chrono::steady_clock::time_point admitted;
  };

  void worker_loop();
  [[nodiscard]] std::string execute(const Request& req);
  [[nodiscard]] std::string run_classify(const Request& req);
  [[nodiscard]] std::string run_solve(const Request& req);
  [[nodiscard]] std::string run_info(const Request& req);

  ServerOptions opts_;
  ProblemCache cache_;
  core::BatchRunner pool_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;  ///< workers: work or stop
  std::condition_variable idle_cv_;   ///< drain: queue empty + idle
  std::deque<Pending> queue_;         // guarded by queue_mu_
  bool draining_ = false;             // guarded by queue_mu_
  bool stop_ = false;                 // guarded by queue_mu_
  std::uint64_t in_flight_ = 0;       // guarded by queue_mu_

  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::chrono::steady_clock::time_point start_;
  std::vector<std::thread> workers_;
};

}  // namespace lcl::service
