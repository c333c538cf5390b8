#include "core/batch.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "graph/families.hpp"

namespace lcl::core {

BatchJob make_solver_job(std::string label, double scale,
                         std::uint64_t seed, const algo::SolverSpec& spec,
                         algo::SolverConfig config, std::string family,
                         graph::NodeId n, int delta,
                         std::int64_t max_rounds) {
  // Validate both registry axes eagerly: an out-of-range option or an
  // unknown/unsatisfiable family throws here, at sweep construction, not
  // on a worker thread mid-batch.
  config.validate(spec);
  if (graph::find_family(family) == nullptr) {
    throw std::invalid_argument("make_solver_job: unknown family '" +
                                family + "'");
  }
  {
    // Dry-build the whole cell on a tiny instance: the family's own
    // parameter checks (unsatisfiable delta etc.) AND the solver
    // factory's relational option checks (|gammas| != k-1, gamma == 1,
    // ...) both fire here, at sweep construction — not as a
    // kException on every worker-thread run.
    graph::Tree probe =
        graph::make_family_instance(family, /*n=*/8, /*seed=*/0, delta);
    algo::prepare_instance(probe, spec.needs, /*seed=*/0);
    algo::SolverConfig probe_config = config;
    probe_config.seed = 0;
    (void)spec.factory(probe, probe_config);
  }

  BatchJob job;
  job.label = std::move(label);
  job.scale = scale;
  job.seed = seed;
  job.run = [scale, &spec, config = std::move(config),
             family = std::move(family), n, delta,
             max_rounds](std::uint64_t s) {
    // Instance construction gets its own failure class: a bad generator
    // parameterization is a different bug than a solver crash, and the
    // structured status keeps them apart in every snapshot.
    const auto build_start = std::chrono::steady_clock::now();
    graph::Tree tree;
    try {
      tree = graph::make_family_instance(family, n, s, delta);
      algo::prepare_instance(tree, spec.needs, s);
    } catch (const std::exception& e) {
      MeasuredRun r;
      r.scale = scale;
      r.status = RunStatus::kBuildFailed;
      r.check_reason = std::string("instance build threw: ") + e.what();
      return r;
    }
    const double build_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - build_start)
            .count();
    algo::SolverConfig run_config = config;
    run_config.seed = s;
    const algo::SolverRun run =
        algo::run_registered(spec, tree, std::move(run_config), max_rounds);
    MeasuredRun r = measure_run(scale, run.stats, run.verdict);
    r.build_ms = build_ms;
    return r;
  };
  return job;
}

BatchRunner::BatchRunner(const BatchOptions& opts) {
  int threads = opts.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(threads, 1);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

BatchRunner::~BatchRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::vector<MeasuredRun> BatchRunner::run_all(
    const std::vector<BatchJob>& jobs) {
  std::vector<MeasuredRun> results(jobs.size());
  if (jobs.empty()) return results;
  std::unique_lock<std::mutex> lock(mu_);
  jobs_ = &jobs;
  results_ = &results;
  next_job_ = 0;
  pending_ = jobs.size();
  work_cv_.notify_all();
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  jobs_ = nullptr;
  results_ = nullptr;
  return results;
}

void BatchRunner::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return shutdown_ || (jobs_ != nullptr && next_job_ < jobs_->size());
    });
    if (shutdown_) return;
    while (jobs_ != nullptr && next_job_ < jobs_->size()) {
      const std::size_t i = next_job_++;
      const BatchJob& job = (*jobs_)[i];
      std::vector<MeasuredRun>* results = results_;
      lock.unlock();
      MeasuredRun r;
      try {
        r = job.run(job.seed);
      } catch (const std::exception& e) {
        r.scale = job.scale;
        r.status = RunStatus::kException;
        r.check_reason = std::string("job threw: ") + e.what();
      } catch (...) {
        r.scale = job.scale;
        r.status = RunStatus::kException;
        r.check_reason = "job threw a non-std exception";
      }
      lock.lock();
      (*results)[i] = std::move(r);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

std::vector<MeasuredRun> run_batch(const std::vector<BatchJob>& jobs,
                                   int threads) {
  BatchOptions opts;
  opts.threads = threads;
  BatchRunner runner(opts);
  return runner.run_all(jobs);
}

}  // namespace lcl::core
