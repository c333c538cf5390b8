// E3 — Theorems 2 and 3: the weighted problem Pi^{2.5}_{Delta,d,k} has
// node-averaged complexity Theta(n^{alpha1}) with
// alpha1 = 1/sum_{j<k}(2-x)^j, x = log(Delta-d-1)/log(Delta-1).
//
// Instances are the Definition-25 weighted construction (Figure 4);
// the solver is A_poly (Section 7.1); validity is certified by the
// Definition-22 checker; the measured node-average is fitted against n.
#include <cstdio>

#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "core/exponents.hpp"
#include "graph/builders.hpp"
#include "scenario.hpp"

namespace {

using namespace lcl;

core::MeasuredRun run_one(int delta, int d, int k, std::int64_t target_n,
                          std::uint64_t seed) {
  const double x = core::efficiency_x(delta, d);
  const auto alphas = core::alpha_profile_poly(x, k);
  const auto ell = core::lower_bound_lengths(
      alphas, static_cast<double>(target_n), target_n);
  auto inst = graph::make_weighted_construction(ell, delta);
  graph::assign_ids(inst.tree, graph::IdScheme::kShuffled, seed);

  algo::SolverConfig cfg;
  cfg.set("k", k);
  cfg.set("d", d);
  cfg.set("gammas", core::decline_gammas(inst.skeleton_lengths, k));
  const auto run =
      algo::run_registered(algo::solver("apoly"), inst.tree, cfg);
  return core::measure_run_weight_adjusted(
      static_cast<double>(inst.tree.size()), inst.tree, run.stats,
      run.verdict);
}

}  // namespace

namespace lcl::bench {

void run_thm2_pi25(ScenarioContext& ctx) {
  std::printf("== E3: Theorems 2/3 — Pi^{2.5}_{Delta,d,k} is "
              "Theta(n^{alpha1}) ==\n\n");
  struct Config {
    int delta, d, k;
  };
  for (const Config c : {Config{5, 2, 2}, Config{9, 4, 2}, Config{9, 6, 2},
                         Config{5, 2, 3}}) {
    const double x = core::efficiency_x(c.delta, c.d);
    const double a1 = core::alpha1_poly(x, c.k);
    // k = 3 exponents are small (alpha1 ~ 0.21), so the sweep must reach
    // further before the power law clears the additive wave constants.
    const std::vector<std::int64_t> sizes =
        c.k >= 3
            ? std::vector<std::int64_t>{96000, 288000, 864000, 2592000}
            : std::vector<std::int64_t>{24000, 72000, 216000, 648000};
    std::vector<core::BatchJob> jobs;
    for (const std::int64_t base : sizes) {
      const std::int64_t n = ctx.scaled(base);
      core::BatchJob job;
      job.label = "pi25-n" + std::to_string(n);
      job.scale = static_cast<double>(n);
      job.seed = static_cast<std::uint64_t>(n + c.delta);
      job.run = [c, n](std::uint64_t seed) {
        return run_one(c.delta, c.d, c.k, n, seed);
      };
      jobs.push_back(std::move(job));
    }
    auto runs = ctx.run_sweep(std::move(jobs));
    char title[160];
    std::snprintf(title, sizeof(title),
                  "Pi2.5 Delta=%d d=%d k=%d (x=%.3f): node-avg ~ "
                  "n^{alpha1}",
                  c.delta, c.d, c.k, x);
    ctx.report(title, "n", a1, a1, std::move(runs));
  }
}

}  // namespace lcl::bench
