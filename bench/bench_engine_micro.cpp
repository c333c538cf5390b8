// Substrate micro-benchmarks: engine round throughput on four synthetic
// workloads, the warm-workspace (allocation-free) steady state, plus the
// batched multi-thread sweep speedup. These guard the "simulation cost =
// O(sum of termination rounds)" property the experiment scenarios rely
// on, and keep the engine's perf trajectory visible in BENCH_*.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "core/batch.hpp"
#include "graph/builders.hpp"
#include "local/engine.hpp"
#include "scenario.hpp"

namespace {

using namespace lcl;

// The micro workload: a token wave down a path. Node 0 emits at round 1
// and terminates; node i forwards one hop per round and terminates when
// the token arrives, so sum_v T_v = Theta(n^2) engine-visible
// node-rounds with tiny registers — the engine's bookkeeping dominates,
// which is exactly what we measure.

class ArenaWave final : public local::Program {
 public:
  void on_init(local::NodeCtx&) override {}
  void on_round(local::NodeCtx& ctx) override {
    if (ctx.node() == 0) {
      ctx.publish({1});
      ctx.terminate(0);
      return;
    }
    const local::RegView left = ctx.peek(0);
    if (!left.empty() && left[0] == 1) {
      ctx.publish({1});
      ctx.terminate(0);
    }
  }
};

// A staggered-termination workload: node v terminates at round
// (v mod 64) + 1, so the alive set shrinks by n/64 nodes per round —
// stresses alive-list compaction rather than register traffic.

class ArenaStagger final : public local::Program {
 public:
  void on_init(local::NodeCtx&) override {}
  void on_round(local::NodeCtx& ctx) override {
    if (ctx.round() == (ctx.node() % 64) + 1) ctx.terminate(0);
  }
};

// A setup-dominated workload: every node terminates in round 1, so
// sum_v T_v = n and one "run" is almost entirely per-run engine setup.
// The engine borrows the Tree's native CSR, so there is zero adjacency
// work per run.

class ArenaFlash final : public local::Program {
 public:
  void on_init(local::NodeCtx&) override {}
  void on_round(local::NodeCtx& ctx) override { ctx.terminate(0); }
};

// A chatty workload mirroring the real wave programs (generic_hier's
// 4-word wave registers, decomp_program's per-round republish): every
// alive node republishes a 4-word register every round and terminates
// after 64 rounds. Register traffic dominates: one 4-word write plus a
// parity toggle per node-round.

class ArenaChatter final : public local::Program {
 public:
  void on_init(local::NodeCtx& ctx) override { ctx.publish({0, 0, 0, 0}); }
  void on_round(local::NodeCtx& ctx) override {
    const local::RegView mine = ctx.own();
    ctx.publish({mine[0] + 1, mine[1], mine[2], mine[3]});
    if (ctx.round() == 64) ctx.terminate(0);
  }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Node-rounds per second of `run_once` (which returns sum_v T_v per
/// call), timed over enough iterations to dominate clock noise.
template <typename F>
double throughput(F run_once) {
  // Warm-up also primes allocator caches.
  std::int64_t node_rounds = run_once();
  const auto start = std::chrono::steady_clock::now();
  std::int64_t total = 0;
  int iters = 0;
  do {
    total += run_once();
    ++iters;
  } while (seconds_since(start) < 0.5 && iters < 50);
  (void)node_rounds;
  return static_cast<double>(total) / seconds_since(start);
}

}  // namespace

namespace lcl::bench {

void run_engine_micro(ScenarioContext& ctx) {
  std::printf("== substrate micro-benchmarks: engine throughput ==\n\n");

  const auto wave_n = static_cast<graph::NodeId>(ctx.scaled(4096));
  const auto stagger_n = static_cast<graph::NodeId>(ctx.scaled(1 << 16));
  const graph::Tree wave_tree = graph::make_path(wave_n);
  const graph::Tree stagger_tree = graph::make_path(stagger_n);

  const double arena_wave = throughput([&] {
    ArenaWave p;
    local::Engine e(wave_tree);
    return e.run(p).total_rounds;
  });
  const double arena_stagger = throughput([&] {
    ArenaStagger p;
    local::Engine e(stagger_tree);
    return e.run(p).total_rounds;
  });
  const auto chatter_n = static_cast<graph::NodeId>(ctx.scaled(1 << 14));
  const graph::Tree chatter_tree = graph::make_path(chatter_n);
  const double arena_chatter = throughput([&] {
    ArenaChatter p;
    local::Engine e(chatter_tree);
    return e.run(p).total_rounds;
  });

  const auto flash_n = static_cast<graph::NodeId>(ctx.scaled(1 << 15));
  const graph::Tree flash_tree = graph::make_path(flash_n);
  const double arena_flash = throughput([&] {
    ArenaFlash p;
    local::Engine e(flash_tree);
    return e.run(p).total_rounds;
  });

  std::printf("  %-28s %14s\n", "workload", "Mnr/s");
  const auto arena_row = [&](const char* key, const std::string& label,
                             double rate) {
    std::printf("  %-28s %14.2f\n", label.c_str(), rate / 1e6);
    ctx.metric(std::string("arena_") + key + "_node_rounds_per_s", rate);
  };
  arena_row("wave", "wave path n=" + std::to_string(wave_n), arena_wave);
  arena_row("stagger", "stagger n=" + std::to_string(stagger_n),
            arena_stagger);
  arena_row("chatter", "chatter n=" + std::to_string(chatter_n),
            arena_chatter);
  arena_row("flash", "flash (setup) n=" + std::to_string(flash_n),
            arena_flash);

  // Warm-workspace flash: same engine + one reusable workspace +
  // recycled stats across reps (the BatchRunner steady state) vs the
  // cold per-run workspace the arena_flash metric above pays. The
  // allocs/run counter is the satellite's proof that reps after the
  // first perform zero plane allocations.
  local::Engine warm_engine(flash_tree);
  local::Engine::Workspace warm_ws;
  local::RunStats warm_stats;
  const double warm_flash = throughput([&] {
    ArenaFlash p;
    warm_engine.run_into(p, warm_ws, warm_stats);
    return warm_stats.total_rounds;
  });
  const std::int64_t allocs_before = warm_ws.alloc_events();
  for (int i = 0; i < 10; ++i) {
    ArenaFlash p;
    warm_engine.run_into(p, warm_ws, warm_stats);
  }
  const double warm_allocs_per_run =
      static_cast<double>(warm_ws.alloc_events() - allocs_before) / 10.0;
  std::printf("  %-28s %14.2f  %.2fx cold, %.1f allocs/run\n",
              "flash, warm workspace", warm_flash / 1e6,
              warm_flash / arena_flash, warm_allocs_per_run);
  ctx.metric("warm_flash_node_rounds_per_s", warm_flash);
  ctx.metric("warm_over_cold_flash", warm_flash / arena_flash);
  ctx.metric("warm_allocs_per_run", warm_allocs_per_run);

  // Instance-construction throughput through the per-thread TreeBuilder
  // arena (CSR emission + validation; no vector-of-vectors adjacency).
  // Absolute numbers tracked across PRs for the allocation trajectory.
  const auto build_n = static_cast<graph::NodeId>(ctx.scaled(1 << 14));
  const double build_path = throughput([&] {
    const graph::Tree t = graph::make_path(build_n);
    return static_cast<std::int64_t>(t.size());
  });
  const double build_random = throughput([&] {
    const graph::Tree t = graph::make_random_tree(build_n, 4, 42);
    return static_cast<std::int64_t>(t.size());
  });
  std::printf("\n  instance builds (arena), n=%d: path %.2f Mnodes/s, "
              "random %.2f Mnodes/s\n",
              build_n, build_path / 1e6, build_random / 1e6);
  ctx.metric("build_path_nodes_per_s", build_path);
  ctx.metric("build_random_nodes_per_s", build_random);

  // Batched sweep scaling: independent wave instances through the pool,
  // 1 thread vs the configured worker count.
  const int workers = ctx.opts().threads;
  const int job_count = std::max(8, 2 * workers);
  std::vector<core::BatchJob> jobs;
  const auto batch_n = static_cast<graph::NodeId>(ctx.scaled(2048));
  for (int i = 0; i < job_count; ++i) {
    core::BatchJob job;
    job.label = "wave-" + std::to_string(i);
    job.scale = static_cast<double>(batch_n);
    job.seed = static_cast<std::uint64_t>(i);
    job.run = [batch_n](std::uint64_t) {
      const graph::Tree t = graph::make_path(batch_n);
      ArenaWave p;
      local::Engine e(t);
      const auto stats = e.run(p);
      return core::measure_run(static_cast<double>(batch_n), stats,
                               problems::CheckResult::pass());
    };
    jobs.push_back(std::move(job));
  }
  const auto serial_start = std::chrono::steady_clock::now();
  (void)core::run_batch(jobs, 1);
  const double serial_s = seconds_since(serial_start);
  const auto parallel_start = std::chrono::steady_clock::now();
  (void)core::run_batch(jobs, workers);
  const double parallel_s = seconds_since(parallel_start);
  std::printf("\n  batch of %d wave jobs: 1 thread %.3f s, %d threads "
              "%.3f s (%.2fx)\n",
              job_count, serial_s, workers, parallel_s,
              serial_s / parallel_s);
  ctx.metric("batch_jobs", static_cast<double>(job_count));
  ctx.metric("batch_serial_s", serial_s);
  ctx.metric("batch_parallel_s", parallel_s);
  ctx.metric("batch_parallel_speedup", serial_s / parallel_s);
}

}  // namespace lcl::bench
