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

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "graph/tree.hpp"

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
class BatchRunner {
 public:
  explicit BatchRunner(const BatchOptions& opts = {});
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Number of worker threads in the pool.
  [[nodiscard]] int threads() const {
    return static_cast<int>(workers_.size());
  }

  /// Executes all jobs and returns their measurements in job order. A job
  /// whose closure throws yields a `MeasuredRun` with
  /// `status == RunStatus::kException` and the exception message in
  /// `check_reason` (the batch still completes). Blocks until every job
  /// has finished.
  std::vector<MeasuredRun> run_all(const std::vector<BatchJob>& jobs);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< signals workers: batch available
  std::condition_variable done_cv_;  ///< signals run_all: batch finished
  const std::vector<BatchJob>* jobs_ = nullptr;  // guarded by mu_
  std::vector<MeasuredRun>* results_ = nullptr;  // guarded by mu_
  std::size_t next_job_ = 0;                     // guarded by mu_
  std::size_t pending_ = 0;                      // guarded by mu_
  bool shutdown_ = false;                        // guarded by mu_
  std::vector<std::thread> workers_;
};

/// Convenience wrapper: run a full batch on a transient pool.
[[nodiscard]] std::vector<MeasuredRun> run_batch(
    const std::vector<BatchJob>& jobs, int threads = 0);

}  // namespace lcl::core
