// BatchRunner: deterministic, thread-count-invariant sweep execution.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "algo/registry.hpp"
#include "core/batch.hpp"
#include "graph/builders.hpp"
#include "local/engine.hpp"
#include "problems/checkers.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using core::BatchJob;
using core::BatchOptions;
using core::BatchRunner;
using core::MeasuredRun;

/// Deterministic seed-sensitive workload: node v terminates at round
/// 1 + ((v * seed) % 7), so node_averaged depends on both the instance
/// size and the seed.
class SeededStagger final : public local::Program {
 public:
  explicit SeededStagger(std::uint64_t seed) : seed_(seed) {}
  void on_init(local::NodeCtx&) override {}
  void on_round(local::NodeCtx& ctx) override {
    const std::int64_t target =
        1 + static_cast<std::int64_t>(
                (static_cast<std::uint64_t>(ctx.node()) * seed_) % 7);
    if (ctx.round() >= target) ctx.terminate(0);
  }

 private:
  std::uint64_t seed_;
};

std::vector<BatchJob> make_stagger_jobs(int count) {
  std::vector<BatchJob> jobs;
  for (int i = 0; i < count; ++i) {
    BatchJob job;
    job.label = "stagger-" + std::to_string(i);
    job.scale = 100.0 + i;
    job.seed = static_cast<std::uint64_t>(2 * i + 3);
    job.run = [i](std::uint64_t seed) {
      graph::Tree t = graph::make_path(100 + i);
      SeededStagger p(seed);
      local::Engine engine(t);
      const local::RunStats stats = engine.run(p);
      MeasuredRun r;
      r.scale = 100.0 + i;
      r.node_averaged = stats.node_averaged;
      r.worst_case = stats.worst_case;
      r.n = stats.n;
      r.status = core::RunStatus::kOk;
      return r;
    };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(BatchRunner, ResultsAreInJobOrder) {
  const auto jobs = make_stagger_jobs(12);
  BatchOptions opts;
  opts.threads = 4;
  BatchRunner runner(opts);
  const auto results = runner.run_all(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].scale, jobs[i].scale);
    EXPECT_EQ(results[i].n, 100 + static_cast<std::int64_t>(i));
  }
}

TEST(BatchRunner, SingleVsMultiThreadIdentical) {
  auto jobs = make_stagger_jobs(16);
  // One registry job large enough that its walks shard across the idle
  // workers of a multi-worker runner (it runs in the worker's
  // tls_workspace(), through algo::run_registered).
  jobs.push_back(core::make_solver_job("large", 20000.0, 9,
                                       algo::solver("generic_hier_35"), {},
                                       "random_attach", 20000, /*delta=*/0));
  const std::size_t large = jobs.size() - 1;
  const auto serial = core::run_batch(jobs, 1);
  EXPECT_TRUE(serial[large].ok()) << serial[large].check_reason;
  for (const MeasuredRun& r : serial) EXPECT_EQ(r.sharded_rounds, 0);
  for (const int threads : {2, 4, 8}) {
    const auto parallel = core::run_batch(jobs, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_DOUBLE_EQ(parallel[i].node_averaged, serial[i].node_averaged)
          << "job " << i << " with " << threads << " threads";
      EXPECT_EQ(parallel[i].worst_case, serial[i].worst_case);
      EXPECT_EQ(parallel[i].n, serial[i].n);
      EXPECT_EQ(parallel[i].status, serial[i].status);
      EXPECT_EQ(parallel[i].term.hist, serial[i].term.hist);
    }
    EXPECT_GT(parallel[large].sharded_rounds, 0) << threads << " threads";
  }
}

TEST(BatchRunner, RepeatedRunsAreDeterministic) {
  const auto jobs = make_stagger_jobs(8);
  BatchOptions opts;
  opts.threads = 3;
  BatchRunner runner(opts);
  const auto first = runner.run_all(jobs);
  const auto second = runner.run_all(jobs);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i].node_averaged, second[i].node_averaged);
    EXPECT_EQ(first[i].worst_case, second[i].worst_case);
  }
}

TEST(BatchRunner, ThrowingJobYieldsInvalidRunAndBatchCompletes) {
  auto jobs = make_stagger_jobs(4);
  BatchJob bad;
  bad.label = "bad";
  bad.scale = -1.0;
  bad.run = [](std::uint64_t) -> MeasuredRun {
    throw std::runtime_error("boom");
  };
  jobs.insert(jobs.begin() + 2, std::move(bad));
  const auto results = core::run_batch(jobs, 2);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status, core::RunStatus::kException);
  EXPECT_NE(results[2].check_reason.find("boom"), std::string::npos);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[4].ok());
}

/// An ad-hoc solver spec around a test program: no options, no input
/// needs, graded by `certify`. Jobs keep a reference, so the spec must
/// outlive them.
template <typename P>
algo::SolverSpec program_spec(
    std::function<problems::CheckResult(const graph::Tree&,
                                        const local::RunStats&)>
        certify) {
  algo::SolverSpec spec;
  spec.name = "test_program";
  spec.factory = [](const graph::Tree&, const algo::SolverConfig&) {
    return std::make_unique<P>();
  };
  spec.certify = [certify = std::move(certify)](
                     const graph::Tree& t, const local::Program&,
                     const local::RunStats& stats,
                     const algo::SolverConfig&) { return certify(t, stats); };
  return spec;
}

/// A run that hits max_rounds round-trips through the batch as a typed
/// kTruncated record with censored partial stats — the job is a
/// measurement, not an exception.
TEST(BatchRunner, TruncatedRunRoundTripsWithStatus) {
  class AllButOneStall final : public local::Program {
   public:
    void on_init(local::NodeCtx&) override {}
    void on_round(local::NodeCtx& ctx) override {
      if (ctx.node() == 0 && ctx.round() == 1) ctx.terminate(3);
    }
  };
  bool checker_ran = false;
  const algo::SolverSpec spec = program_spec<AllButOneStall>(
      [&checker_ran](const graph::Tree&, const local::RunStats&) {
        checker_ran = true;
        return problems::CheckResult::pass();
      });
  const BatchJob job =
      core::make_solver_job("stall", 8.0, 1, spec, {}, "path", 8,
                            /*delta=*/0, /*max_rounds=*/5);
  const auto results = core::run_batch({job}, 1);
  ASSERT_EQ(results.size(), 1u);
  const MeasuredRun& r = results[0];
  EXPECT_EQ(r.status, core::RunStatus::kTruncated);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(checker_ran) << "partial outputs must not be checked";
  EXPECT_NE(r.check_reason.find("round limit"), std::string::npos);
  EXPECT_EQ(r.n, 8);
  EXPECT_EQ(r.worst_case, 5);  // censored at the bound
  EXPECT_DOUBLE_EQ(r.node_averaged, (1 + 7 * 5) / 8.0);
  EXPECT_EQ(r.term.total(), 8);  // censored survivors included
  EXPECT_GE(r.build_ms, 0.0);
  EXPECT_EQ(r.reps_ok, 0);
}

TEST(BatchRunner, SolverJobCertifiesThroughTheSpec) {
  // 2-color a path via a trivial parity-of-index program: the spec's
  // certify decides ok vs kCheckFailed.
  class Parity final : public local::Program {
   public:
    void on_init(local::NodeCtx& ctx) override {
      ctx.terminate(static_cast<int>(ctx.node() % 2));
    }
    void on_round(local::NodeCtx&) override {}
  };
  const algo::SolverSpec coloring = program_spec<Parity>(
      [](const graph::Tree& t, const local::RunStats& stats) {
        return problems::check_two_coloring(t, stats.primaries());
      });
  const algo::SolverSpec rejecting = program_spec<Parity>(
      [](const graph::Tree&, const local::RunStats&) {
        return problems::CheckResult::fail("rejected by the spec");
      });
  const auto results = core::run_batch(
      {core::make_solver_job("parity", 64.0, 7, coloring, {}, "path", 64, 0),
       core::make_solver_job("reject", 64.0, 7, rejecting, {}, "path", 64,
                             0)},
      2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok()) << results[0].check_reason;
  EXPECT_EQ(results[0].n, 64);
  EXPECT_DOUBLE_EQ(results[0].scale, 64.0);
  // Every node terminates at init: the distribution is a point mass.
  EXPECT_EQ(results[0].term.total(), 64);
  EXPECT_EQ(results[0].term.p99, 0);
  EXPECT_EQ(results[1].status, core::RunStatus::kCheckFailed);
  EXPECT_NE(results[1].check_reason.find("rejected by the spec"),
            std::string::npos);
}

TEST(BatchRunner, SolverJobBuildsFamiliesByName) {
  // A do-nothing program (terminate at init) over registry families:
  // exercises family-by-name instance construction on worker threads,
  // including the per-thread arena, and the build-time recording.
  class Immediate final : public local::Program {
   public:
    void on_init(local::NodeCtx& ctx) override { ctx.terminate(0); }
    void on_round(local::NodeCtx&) override {}
  };
  const algo::SolverSpec spec = program_spec<Immediate>(
      [](const graph::Tree& t, const local::RunStats&) {
        return t.is_tree() ? problems::CheckResult::pass()
                           : problems::CheckResult::fail("not a tree");
      });
  std::vector<BatchJob> jobs;
  for (const char* family : {"spider", "broom", "prufer", "galton_watson"}) {
    jobs.push_back(core::make_solver_job(family, 200.0, 5, spec, {}, family,
                                         200, /*delta=*/0));
  }
  const auto results = core::run_batch(jobs, 2);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok()) << r.check_reason;
    EXPECT_GE(r.n, 100);
    EXPECT_GE(r.build_ms, 0.0);
  }
  // Misconfiguration fails at construction, not on a worker: unknown
  // name, and a degree bound the family cannot honor.
  EXPECT_THROW(
      (void)core::make_solver_job("nope", 1.0, 0, spec, {}, "nope", 10, 0),
      std::invalid_argument);
  EXPECT_THROW((void)core::make_solver_job("path", 1.0, 0, spec, {}, "path",
                                           10, /*delta=*/4),
               std::invalid_argument);
}

/// Every node stays awake until `stop` is set or round kLastRound, and
/// each visit does a little work, so a round of this program on a large
/// path takes milliseconds. Node 0 publishes the round number; every
/// visit made on another thread than the job's records that a helper
/// joined. (The shared atomics break the per-node state contract on
/// purpose: this is a scheduling probe, not a measured program.)
class Crawl final : public local::Program {
 public:
  static constexpr std::int64_t kLastRound = 2000;

  Crawl(std::atomic<std::int64_t>& round, std::atomic<bool>& helper_seen,
        const std::atomic<bool>& stop)
      : owner_(std::this_thread::get_id()),
        round_(round),
        helper_seen_(helper_seen),
        stop_(stop) {}

  void on_init(local::NodeCtx&) override {}
  void on_round(local::NodeCtx& ctx) override {
    if (ctx.node() == 0) round_.store(ctx.round());
    if (std::this_thread::get_id() != owner_) helper_seen_.store(true);
    std::uint64_t x = static_cast<std::uint64_t>(ctx.node());
    for (int i = 0; i < 200; ++i) x = x * 6364136223846793005ULL + 1;
    if (ctx.round() >= kLastRound || stop_.load()) {
      ctx.terminate(static_cast<int>(x & 1));
    }
  }

 private:
  std::thread::id owner_;
  std::atomic<std::int64_t>& round_;
  std::atomic<bool>& helper_seen_;
  const std::atomic<bool>& stop_;
};

TEST(BatchRunner, QueuedJobStartsWithinOneRoundOfASharingRun) {
  // Two workers: one runs a long program whose rounds the other helps
  // with. A batch submitted meanwhile from another thread must start on
  // the helper after the round it is helping with, not after the run.
  BatchRunner runner(BatchOptions{2});
  const graph::Tree path = graph::make_path(30000);
  std::atomic<std::int64_t> round{0};
  std::atomic<bool> helper_seen{false};
  std::atomic<bool> stop{false};
  BatchJob crawl;
  crawl.run = [&](std::uint64_t) {
    Crawl p(round, helper_seen, stop);
    local::Engine engine(path);
    (void)engine.run(p, local::tls_workspace());
    MeasuredRun r;
    r.status = core::RunStatus::kOk;
    return r;
  };
  std::thread owner([&] { (void)runner.run_all({crawl}); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!helper_seen.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(helper_seen.load()) << "no helper joined the run's rounds";

  std::int64_t started_in = -1;
  BatchJob queued;
  queued.run = [&](std::uint64_t) {
    started_in = round.load();
    MeasuredRun r;
    r.status = core::RunStatus::kOk;
    return r;
  };
  const std::int64_t submitted_in = round.load();
  (void)runner.run_all({queued});
  stop.store(true);
  owner.join();
  // The helper finishes the round it is in and then takes the job; one
  // more round of slack covers the gap between reading the round and
  // queueing the batch.
  EXPECT_LE(started_in, submitted_in + 2);
  EXPECT_LT(started_in, Crawl::kLastRound);
}

TEST(BatchRunner, EmptyBatchAndThreadCount) {
  BatchOptions opts;
  opts.threads = 5;
  BatchRunner runner(opts);
  EXPECT_EQ(runner.threads(), 5);
  EXPECT_TRUE(runner.run_all({}).empty());
}

}  // namespace
}  // namespace lcl
