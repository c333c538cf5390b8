// Example: dial in a target node-averaged complexity exponent.
//
// The paper's headline construction (Theorem 1): given a target interval
// (r1, r2) for the exponent c of Theta(n^c), Lemma 58 produces concrete
// gadget parameters (Delta, d, k) whose weighted problem
// Pi^{2.5}_{Delta,d,k} realizes an exponent inside the interval. This
// example runs the whole pipeline: parameter search, instance
// construction (Definition 25 / Figure 4), the A_poly solver, validity
// checking, and a two-point empirical scaling probe.
//
//   $ ./examples/weighted_landscape 0.35 0.40
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "algo/registry.hpp"
#include "core/exponents.hpp"
#include "core/experiment.hpp"
#include "graph/builders.hpp"

int main(int argc, char** argv) {
  using namespace lcl;

  double r1 = 0.35, r2 = 0.40;
  if (argc == 3) {
    r1 = std::atof(argv[1]);
    r2 = std::atof(argv[2]);
  }
  std::printf("target exponent interval: [%.3f, %.3f]\n", r1, r2);

  // Lemma 58 / Theorem 1: find (Delta, d, k) realizing an exponent
  // inside the interval.
  const core::DensityChoice choice = core::choose_poly_exponent(r1, r2);
  std::printf("chosen: Delta=%d d=%d k=%d -> x=%.4f, alpha1=%.4f\n",
              choice.params.delta, choice.params.d, choice.k,
              choice.params.x, choice.exponent);

  // Build two weighted-construction instances and measure the scaling.
  const auto alphas = core::alpha_profile_poly(choice.params.x, choice.k);
  double avg[2] = {0, 0};
  std::int64_t sizes[2] = {0, 0};
  const std::int64_t targets[2] = {30000, 120000};
  for (int i = 0; i < 2; ++i) {
    const auto ell = core::lower_bound_lengths(
        alphas, static_cast<double>(targets[i]), targets[i]);
    auto inst = graph::make_weighted_construction(ell, choice.params.delta);
    graph::assign_ids(inst.tree, graph::IdScheme::kShuffled, 7);

    algo::SolverConfig cfg;
    cfg.set("k", choice.k);
    cfg.set("d", choice.params.d);
    cfg.set("gammas",
            core::decline_gammas(inst.skeleton_lengths, choice.k));
    const auto run =
        algo::run_registered(algo::solver("apoly"), inst.tree, cfg);
    std::printf("n=%7d: node-avg %8.2f  worst %6lld  valid=%s\n",
                inst.tree.size(), run.stats.node_averaged,
                static_cast<long long>(run.stats.worst_case),
                run.verdict.ok ? "yes" : run.verdict.reason.c_str());
    avg[i] = run.stats.node_averaged;
    sizes[i] = inst.tree.size();
  }

  const double measured =
      std::log(avg[1] / avg[0]) /
      std::log(static_cast<double>(sizes[1]) / sizes[0]);
  std::printf("two-point scaling exponent: %.3f (target %.3f; additive "
              "O(log n) terms bias small n downward)\n",
              measured, choice.exponent);
  return 0;
}
