// E4 — Theorems 4 and 5: Pi^{3.5}_{Delta,d,k} has node-averaged
// complexity between Omega((log* n)^{alpha1(x)}) and
// O((log* n)^{alpha1(x')}) — the fitted exponent of node-average vs the
// virtual log* (Lambda) must land in (or near) that band.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "core/exponents.hpp"
#include "graph/builders.hpp"
#include "scenario.hpp"

namespace {

using namespace lcl;

core::MeasuredRun run_one(int delta, int d, int k, std::int64_t lambda,
                          std::int64_t target_n, std::uint64_t seed) {
  const double xp = core::efficiency_x_prime(delta, d);
  const auto alphas = core::alpha_profile_logstar(xp, k);
  const auto ell = core::lower_bound_lengths(
      alphas, static_cast<double>(lambda), target_n);
  auto inst = graph::make_weighted_construction(ell, delta);
  graph::assign_ids(inst.tree, graph::IdScheme::kShuffled, seed);

  algo::SolverConfig cfg;
  cfg.set("k", k);
  cfg.set("d", d);
  cfg.set("gammas", core::decline_gammas(inst.skeleton_lengths, k));
  cfg.set("symmetry_pad", lambda);
  const auto run =
      algo::run_registered(algo::solver("pi35"), inst.tree, cfg);
  return core::measure_run_weight_adjusted(static_cast<double>(lambda),
                                           inst.tree, run.stats,
                                           run.verdict);
}

}  // namespace

namespace lcl::bench {

void run_thm4_pi35(ScenarioContext& ctx) {
  std::printf("== E4: Theorems 4/5 — Pi^{3.5}_{Delta,d,k} between "
              "(log* n)^{alpha1(x)} and (log* n)^{alpha1(x')} ==\n\n");
  struct Config {
    int delta, d, k;
  };
  const std::int64_t target_n = ctx.scaled(30000);
  // The k=2 constructions stay near target_n at every Lambda, but the
  // k=3 one outgrows it from Lambda = 576 on (its first two path lengths
  // alone multiply past target_n): 159k, 955k and 5.8M nodes at any
  // --n. So for k >= 3 the ladder is a function of --n: five rungs from
  // Lambda = 64, evenly spaced in log Lambda, up to 5184 n^2 clamped to
  // [192, 5184]. --n 1 keeps the full-scale ladder 64, 192, ..., 5184
  // with its 5.8M-node point; at --n 0.1 and below the top rung is 192
  // (26,522 nodes, under 10 target_n at --n 0.1).
  const double scale = ctx.opts().n_scale;
  auto ladder = [scale](int k) {
    constexpr double kBottom = 64.0;
    constexpr double kTop = 5184.0;
    const double top =
        k >= 3 ? std::clamp(kTop * scale * scale, 192.0, kTop) : kTop;
    const double ratio = std::pow(top / kBottom, 0.25);
    std::vector<std::int64_t> lambdas;
    for (int i = 0; i < 5; ++i) {
      lambdas.push_back(std::llround(kBottom * std::pow(ratio, i)));
    }
    return lambdas;
  };
  for (const Config c :
       {Config{6, 3, 2}, Config{7, 4, 2}, Config{9, 5, 2},
        Config{6, 3, 3}}) {
    const double lo =
        core::alpha1_logstar(core::efficiency_x(c.delta, c.d), c.k);
    const double hi =
        core::alpha1_logstar(core::efficiency_x_prime(c.delta, c.d), c.k);
    std::vector<core::BatchJob> jobs;
    for (const std::int64_t lambda : ladder(c.k)) {
      core::BatchJob job;
      job.label = "pi35-L" + std::to_string(lambda);
      job.scale = static_cast<double>(lambda);
      job.seed = static_cast<std::uint64_t>(lambda + c.d);
      job.run = [c, lambda, target_n](std::uint64_t seed) {
        return run_one(c.delta, c.d, c.k, lambda, target_n, seed);
      };
      jobs.push_back(std::move(job));
    }
    auto runs = ctx.run_sweep(std::move(jobs));
    char title[160];
    std::snprintf(title, sizeof(title),
                  "Pi3.5 Delta=%d d=%d k=%d: node-avg ~ Lambda^c",
                  c.delta, c.d, c.k);
    ctx.report(title, "Lambda", lo, hi, std::move(runs));
  }
}

}  // namespace lcl::bench
