// E5 — Theorem 1 (with Lemma 58): for every 0 < r1 < r2 <= 1/2 there are
// parameters (Delta, d, k) with alpha1 in [r1, r2] — the polynomial
// regime is dense. This scenario runs the constructive search over a grid
// of target intervals, prints the realized parameters, and spot-checks
// two of them empirically with A_poly.
#include <cstdio>

#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "core/exponents.hpp"
#include "graph/builders.hpp"
#include "scenario.hpp"

namespace {

using namespace lcl;

core::MeasuredRun spot_run(const core::DensityChoice& choice,
                           std::int64_t n, std::uint64_t seed) {
  const double x = choice.params.x;
  const auto alphas = core::alpha_profile_poly(x, choice.k);
  const auto ell =
      core::lower_bound_lengths(alphas, static_cast<double>(n), n);
  auto inst = graph::make_weighted_construction(ell, choice.params.delta);
  graph::assign_ids(inst.tree, graph::IdScheme::kShuffled, seed);
  algo::SolverConfig cfg;
  cfg.set("k", choice.k);
  cfg.set("d", choice.params.d);
  cfg.set("gammas", core::decline_gammas(inst.skeleton_lengths, choice.k));
  const auto run =
      algo::run_registered(algo::solver("apoly"), inst.tree, cfg);
  return core::measure_run_weight_adjusted(
      static_cast<double>(inst.tree.size()), inst.tree, run.stats,
      run.verdict);
}

void spot_check(lcl::bench::ScenarioContext& ctx,
                const core::DensityChoice& choice) {
  std::vector<core::BatchJob> jobs;
  for (const std::int64_t base : {20000, 80000, 320000}) {
    const std::int64_t n = ctx.scaled(base);
    core::BatchJob job;
    job.label = "density-n" + std::to_string(n);
    job.scale = static_cast<double>(n);
    job.seed = static_cast<std::uint64_t>(n);
    job.run = [choice, n](std::uint64_t seed) {
      return spot_run(choice, n, seed);
    };
    jobs.push_back(std::move(job));
  }
  auto runs = ctx.run_sweep(std::move(jobs));
  char title[160];
  std::snprintf(title, sizeof(title),
                "spot check Delta=%d d=%d k=%d: target exponent %.4f",
                choice.params.delta, choice.params.d, choice.k,
                choice.exponent);
  ctx.report(title, "n", choice.exponent, choice.exponent,
             std::move(runs));
}

}  // namespace

namespace lcl::bench {

void run_thm1_density(ScenarioContext& ctx) {
  std::printf("== E5: Theorem 1 — density of the polynomial regime ==\n\n");
  std::printf("  %-16s %8s %6s %4s %10s %10s\n", "target [r1,r2]", "Delta",
              "d", "k", "x=p/q", "alpha1");
  struct Interval {
    double r1, r2;
  };
  std::vector<core::DensityChoice> chosen;
  for (const Interval iv :
       {Interval{0.10, 0.12}, Interval{0.15, 0.18}, Interval{0.20, 0.22},
        Interval{0.25, 0.28}, Interval{0.30, 0.33}, Interval{0.35, 0.38},
        Interval{0.40, 0.43}, Interval{0.45, 0.48},
        Interval{0.48, 0.50}}) {
    const auto c = core::choose_poly_exponent(iv.r1, iv.r2);
    std::printf("  [%.3f, %.3f]   %8d %6d %4d %10.4f %10.4f\n", iv.r1,
                iv.r2, c.params.delta, c.params.d, c.k, c.params.x,
                c.exponent);
    chosen.push_back(c);
  }
  ctx.metric("intervals_realized", static_cast<double>(chosen.size()));
  std::printf("\nEvery target interval admitted Lemma-58 parameters "
              "(Delta = 2^q + 1, d = 2^q - 2^p).\n\n");

  // Spot-check two rows with laptop-scale Delta (the huge-Delta rows
  // are analytically exact but their weight trees have depth ~2 at any
  // feasible n, so scaling measurements are meaningless there).
  spot_check(ctx, chosen.front());
  spot_check(ctx, chosen[5]);
}

}  // namespace lcl::bench
