// E4 — Theorems 4 and 5: Pi^{3.5}_{Delta,d,k} has node-averaged
// complexity between Omega((log* n)^{alpha1(x)}) and
// O((log* n)^{alpha1(x')}) — the fitted exponent of node-average vs the
// virtual log* (Lambda) must land in (or near) that band.
#include <cstdio>

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
  for (const Config c :
       {Config{6, 3, 2}, Config{7, 4, 2}, Config{9, 5, 2},
        Config{6, 3, 3}}) {
    const double lo =
        core::alpha1_logstar(core::efficiency_x(c.delta, c.d), c.k);
    const double hi =
        core::alpha1_logstar(core::efficiency_x_prime(c.delta, c.d), c.k);
    std::vector<core::BatchJob> jobs;
    for (const std::int64_t lambda : {64, 192, 576, 1728, 5184}) {
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
