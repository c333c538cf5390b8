#include "core/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
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

namespace {

/// How long an idle worker watches for the next job or walk before it
/// blocks, while some other worker runs a job (only a running job posts
/// walks; with none running it blocks at once). Waking a blocked thread
/// costs a system call on the poster's side and a scheduler wake-up on
/// the sleeper's, together about as long as a 1,000-node walk; between
/// the large walks of one run the gap is usually shorter than this, so
/// helpers that watch join at once. The watch yields the processor on
/// every check: on a machine with no core to spare, a watcher that kept
/// it would delay the walk's owner, whose serial end of round every
/// helper waits for.
constexpr auto kIdleSpin = std::chrono::microseconds(1000);

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// The worker count of `BatchOptions::threads`.
int resolve_threads(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::max(threads, 1);
}

}  // namespace

BatchRunner::BatchRunner(const BatchOptions& opts)
    : threads_(resolve_threads(opts.threads)),
      slots_(std::make_unique<Slot[]>(static_cast<std::size_t>(threads_))) {
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int i = 0; i < threads_; ++i) {
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

BatchRunner::~BatchRunner() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  announce();
  for (std::thread& w : workers_) w.join();
}

thread_local BatchRunner::Slot* BatchRunner::own_slot_ = nullptr;

void BatchRunner::announce() {
  arrivals_.fetch_add(1);
  // A worker counts itself in `sleeping_` before it checks for work
  // under the lock, and whoever made the work checked `sleeping_` after
  // making it (both sequentially consistent), so either the sleeper sees
  // the work or this sees the sleeper. Taking the lock orders the notify
  // after the sleeper's check.
  if (sleeping_.load() > 0) {
    { const std::lock_guard<std::mutex> lock(mu_); }
    work_cv_.notify_all();
  }
}

std::vector<MeasuredRun> BatchRunner::run_all(
    const std::vector<BatchJob>& jobs) {
  std::vector<MeasuredRun> results(jobs.size());
  if (jobs.empty()) return results;
  Batch batch;
  batch.jobs = &jobs;
  batch.results = &results;
  batch.pending = jobs.size();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(&batch);
  }
  announce();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&batch] { return batch.pending == 0; });
  return results;
}

void BatchRunner::post(Task& task) {
  // Only this runner's workers lend it to their workspaces.
  Slot* const own = own_slot_;
  const std::less<const Slot*> before;
  if (before(own, slots_.get()) || !before(own, slots_.get() + threads_)) {
    throw std::logic_error("BatchRunner: walk posted from another thread");
  }
  Slot& slot = *own;
  slot.task.store(&task, std::memory_order_relaxed);
  slot.open.store(true);
  announce();
}

void BatchRunner::retract(Task&) {
  Slot& slot = *own_slot_;
  slot.open.store(false);
  // No helper joins any more; the ones inside finish at most one chunk
  // each, so wait for them without blocking.
  for (int spins = 0; slot.joined.load() > 0; ++spins) {
    if (spins < 4096) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  slot.task.store(nullptr, std::memory_order_relaxed);
}

bool BatchRunner::any_open_walk() const {
  for (int i = 0; i < threads(); ++i) {
    if (slots_[static_cast<std::size_t>(i)].open.load()) {
      return true;
    }
  }
  return false;
}

bool BatchRunner::help_open_walk() {
  for (int i = 0; i < threads(); ++i) {
    Slot& slot = slots_[static_cast<std::size_t>(i)];
    if (!slot.open.load(std::memory_order_relaxed)) continue;
    // Count in first, then re-check: the owner closes the walk first and
    // then waits for `joined` to drain (both sequentially consistent), so
    // either it waits for this helper or this helper sees it closed.
    slot.joined.fetch_add(1);
    if (slot.open.load()) {
      slot.task.load(std::memory_order_relaxed)->help();
      // help() returns once every chunk is claimed, so a later helper
      // would find nothing to do: close the walk before counting out.
      slot.open.store(false, std::memory_order_relaxed);
      slot.joined.fetch_sub(1, std::memory_order_release);
      return true;
    }
    slot.joined.fetch_sub(1, std::memory_order_release);
  }
  return false;
}

void BatchRunner::wait_for_work(std::unique_lock<std::mutex>& lock) {
  const std::uint64_t seen = arrivals_.load();
  lock.unlock();
  const auto until = std::chrono::steady_clock::now() + kIdleSpin;
  while (arrivals_.load(std::memory_order_relaxed) == seen &&
         !any_open_walk()) {
    if (running_.load(std::memory_order_relaxed) == 0 ||
        std::chrono::steady_clock::now() >= until) {
      lock.lock();
      sleeping_.fetch_add(1);
      work_cv_.wait(lock, [&] {
        return shutdown_ || !queue_.empty() || any_open_walk();
      });
      sleeping_.fetch_sub(1);
      return;
    }
    std::this_thread::yield();
  }
  lock.lock();
}

void BatchRunner::worker_loop(std::size_t index) {
  // The pool's idle workers join the large walks of the runs that go
  // through this worker's workspace.
  local::tls_workspace().set_helpers(this);
  own_slot_ = &slots_[index];
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (shutdown_) return;
    // A queued job comes first; a walk is joined only when none waits.
    if (!queue_.empty()) {
      Batch& batch = *queue_.front();
      const std::size_t i = batch.next++;
      if (batch.next == batch.jobs->size()) queue_.erase(queue_.begin());
      run_job(batch, i, lock);
      continue;
    }
    lock.unlock();
    const bool helped = help_open_walk();
    lock.lock();
    if (!helped) wait_for_work(lock);
  }
}

void BatchRunner::run_job(Batch& batch, std::size_t i,
                          std::unique_lock<std::mutex>& lock) {
  const BatchJob& job = (*batch.jobs)[i];
  running_.fetch_add(1, std::memory_order_relaxed);
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
  running_.fetch_sub(1, std::memory_order_relaxed);
  lock.lock();
  (*batch.results)[i] = std::move(r);
  if (--batch.pending == 0) done_cv_.notify_all();
}

std::vector<MeasuredRun> run_batch(const std::vector<BatchJob>& jobs,
                                   int threads) {
  BatchOptions opts;
  opts.threads = threads;
  BatchRunner runner(opts);
  return runner.run_all(jobs);
}

}  // namespace lcl::core
