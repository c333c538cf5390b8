// Batched multi-threaded experiment execution.
//
// A landscape sweep is a set of independent runs: build an instance, run a
// `Program` on the `Engine`, verify the output with a checker, record a
// `MeasuredRun`. Runs share nothing (each job owns its tree and engine), so
// a sweep is embarrassingly parallel. `BatchRunner` executes a vector of
// jobs across a persistent `std::thread` pool and aggregates the samples in
// *job order*: `run_all(jobs)[i]` always corresponds to `jobs[i]`, and every
// job carries its own deterministic seed, so results are bit-identical for
// any thread count (including 1).
//
// Instance construction inside jobs goes through each worker thread's
// reusable `graph::TreeBuilder` arena (`graph::tls_build_arena()`): every
// `graph::make_*` builder and the family registry route through it, so a
// sweep of thousands of jobs reallocates no adjacency scaffolding after
// the first build on each worker — only the emitted Trees' exact-size CSR
// arrays are allocated per run, and the engine itself snapshots nothing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "graph/tree.hpp"
#include "local/engine.hpp"

namespace lcl::core {

/// One unit of work: a closure from a deterministic seed to a verified
/// measurement. Jobs must be self-contained (no shared mutable state); the
/// runner may execute them on any thread in any order.
struct BatchJob {
  std::string label;
  double scale = 0.0;  ///< the sweep variable, copied into the result
  std::uint64_t seed = 0;
  std::function<MeasuredRun(std::uint64_t seed)> run;
};

/// The registry-driven verified run: instance from the named *family*
/// registry entry (graph/families.hpp), algorithm from `spec`
/// (algo/registry.hpp; `algo::solver(name)` for a registered one, or an
/// ad-hoc spec, which must outlive the job). The job builds the family
/// instance at `n` with the job seed, applies the spec's declared input
/// needs (`algo::prepare_instance`), and hands the prepared instance to
/// `algo::run_registered` — the one place a solver is validated, built,
/// run and certified — before filling the `MeasuredRun` through
/// `core::measure_run`. An unknown family, an unsatisfiable `delta`
/// (0 = the family default) or a misconfigured solver throws here, at
/// sweep construction, not on a worker thread mid-batch. A build that
/// throws anyway yields `kBuildFailed`; a run that hits `max_rounds`
/// yields `kTruncated` with censored partial stats (never certified); a
/// rejected output yields `kCheckFailed`.
[[nodiscard]] BatchJob make_solver_job(
    std::string label, double scale, std::uint64_t seed,
    const algo::SolverSpec& spec, algo::SolverConfig config,
    std::string family, graph::NodeId n, int delta,
    std::int64_t max_rounds = std::numeric_limits<int>::max());

struct BatchOptions {
  /// Worker count; 0 means `std::thread::hardware_concurrency()`.
  int threads = 0;
};

/// A persistent thread pool executing batches of jobs. Construction spawns
/// the workers; they idle between batches and are joined on destruction.
///
/// Idle workers also help the engine runs of busy ones: each worker
/// lends the pool to its `local::tls_workspace()` as `RoundHelpers`, so
/// a job running a large program there gets its big walks cut into
/// chunks that idle workers claim too (local/engine.hpp, "Sharded
/// rounds"). A worker takes a queued job before it joins another walk,
/// so helping delays a queued job by at most one walk.
class BatchRunner final : private local::RoundHelpers {
 public:
  explicit BatchRunner(const BatchOptions& opts = {});
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Number of worker threads in the pool.
  [[nodiscard]] int threads() const { return threads_; }

  /// Executes all jobs and returns their measurements in job order. A job
  /// whose closure throws yields a `MeasuredRun` with
  /// `status == RunStatus::kException` and the exception message in
  /// `check_reason` (the batch still completes). Blocks until every job
  /// has finished. Batches submitted from several threads at once queue
  /// in submission order.
  std::vector<MeasuredRun> run_all(const std::vector<BatchJob>& jobs);

 private:
  /// One `run_all` call in flight; lives on its caller's stack.
  struct Batch {
    const std::vector<BatchJob>* jobs = nullptr;
    std::vector<MeasuredRun>* results = nullptr;
    std::size_t next = 0;     ///< first job not yet taken
    std::size_t pending = 0;  ///< jobs not yet finished
  };
  /// Where a worker posts the walks of its engine runs, one at a time.
  /// Helpers find it without the lock: `open` says whether the walk may
  /// still be joined, `joined` counts the helpers inside its `help()`.
  struct Slot {
    std::atomic<Task*> task{nullptr};
    std::atomic<bool> open{false};
    std::atomic<int> joined{0};
  };

  // local::RoundHelpers, for the runs on the workers' workspaces. Only a
  // worker posts, into its own slot.
  [[nodiscard]] int helpers() const override { return threads() - 1; }
  void post(Task& task) override;
  void retract(Task& task) override;

  void worker_loop(std::size_t index);
  /// Helps one open walk, if any; returns whether it did.
  bool help_open_walk();
  /// Returns, with `lock` held, after something may have arrived: while
  /// a job runs elsewhere it watches without the lock a little first,
  /// then it sleeps on `work_cv_`.
  void wait_for_work(std::unique_lock<std::mutex>& lock);
  [[nodiscard]] bool any_open_walk() const;
  /// Runs job `i` of `batch` with `lock` released.
  void run_job(Batch& batch, std::size_t i,
               std::unique_lock<std::mutex>& lock);
  /// Counts an arrival and wakes the sleeping workers.
  void announce();

  /// The slot of the worker on this thread, if it is one.
  static thread_local Slot* own_slot_;

  const int threads_;  ///< set before any worker starts
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< signals workers: job or walk
  std::condition_variable done_cv_;  ///< signals run_all: batch finished
  std::vector<Batch*> queue_;  ///< batches with jobs left, FIFO; mu_
  std::unique_ptr<Slot[]> slots_;  ///< one per worker
  /// Bumped whenever a job, a walk or the shutdown arrives: what
  /// spinning workers watch.
  std::atomic<std::uint64_t> arrivals_{0};
  std::atomic<int> sleeping_{0};  ///< workers blocked on work_cv_
  std::atomic<int> running_{0};   ///< workers inside a job
  bool shutdown_ = false;  ///< guarded by mu_
  std::vector<std::thread> workers_;
};

/// Convenience wrapper: run a full batch on a transient pool.
[[nodiscard]] std::vector<MeasuredRun> run_batch(
    const std::vector<BatchJob>& jobs, int threads = 0);

}  // namespace lcl::core
