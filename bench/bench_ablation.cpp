// E14 — Ablations of the design choices DESIGN.md calls out:
//
//  (a) weight handling: Algorithm A's d-free solution (efficiency
//      x = log(D-d-1)/log(D-1)) vs the naive "every weight node copies"
//      strawman (x = 1). The naive variant is still a valid Pi^{2.5}
//      output but its node-average degrades — exactly the gap between
//      Theorem 2's exponent alpha1(x) and the worst-case 1/k.
//
//  (b) gamma profile: the Lemma-14/33 geometric profile
//      gamma_i = t^{2^{i-1}} vs a uniform profile on the unweighted
//      k-hierarchical 2.5-coloring instance — the optimization is what
//      buys n^{1/(2k-1)} instead of n^{1/k}.
//
//  (c) fast-decomposition early resolution: with the eager A-free
//      Decline rule (Corollary-47 decay) vs without — the backlog of
//      unfinished nodes, i.e. the Decline mass's total waiting time.
#include <cmath>
#include <cstdio>

#include "algo/fast_decomp.hpp"
#include "algo/generic_hier.hpp"
#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "core/exponents.hpp"
#include "graph/builders.hpp"
#include "problems/labels.hpp"
#include "scenario.hpp"

namespace {

using namespace lcl;

void ablation_weight_handling(bench::ScenarioContext& ctx) {
  std::printf("(a) weight handling: Algorithm A vs naive all-copy\n");
  std::printf("  %10s %16s %16s\n", "n", "AlgoA node-avg",
              "naive node-avg");
  const double x = core::efficiency_x(5, 2);
  const auto alphas = core::alpha_profile_poly(x, 2);
  double smart_last = 0.0, naive_last = 0.0;
  for (const std::int64_t base : {20000, 60000, 180000}) {
    const std::int64_t n = ctx.scaled(base);
    const auto ell = core::lower_bound_lengths(
        alphas, static_cast<double>(n), n);
    auto inst = graph::make_weighted_construction(ell, 5);
    graph::assign_ids(inst.tree, graph::IdScheme::kShuffled, 3);
    const algo::SolverSpec& spec = algo::solver("apoly");
    algo::SolverConfig cfg;
    cfg.set("k", 2);
    cfg.set("d", 2);
    cfg.set("gammas", core::decline_gammas(inst.skeleton_lengths, 2));
    const auto smart = algo::run_registered(spec, inst.tree, cfg);
    cfg.set("naive_all_copy", 1);
    const auto naive = algo::run_registered(spec, inst.tree, cfg);
    std::printf("  %10d %16.2f %16.2f %s%s\n", inst.tree.size(),
                smart.stats.node_averaged, naive.stats.node_averaged,
                smart.verdict.ok ? "" : "SMART-INVALID ",
                naive.verdict.ok ? "" : "NAIVE-INVALID");
    smart_last = smart.stats.node_averaged;
    naive_last = naive.stats.node_averaged;
  }
  ctx.metric("weight_naive_over_smart", naive_last / smart_last);
  std::printf("  -> the d-free machinery keeps most weight from waiting; "
              "naive copies pay the full level-k latency.\n\n");
}

void ablation_gamma_profile(bench::ScenarioContext& ctx) {
  // Each profile faces its own adversarial instance: the adversary sets
  // the level-1 path length to exactly gamma_1, the Decline threshold
  // (Lemma 20's dichotomy), so the algorithm pays its full budget.
  std::printf("(b) gamma profile on unweighted 2.5-coloring (k = 2), "
              "adversarial instances\n");
  std::printf("  %10s %22s %22s\n", "n", "geometric (vs n^{1/3})",
              "uniform n^{1/2}");
  double geo_last = 0.0, uni_last = 0.0;
  for (const std::int64_t base : {30000, 120000, 480000}) {
    const std::int64_t n = ctx.scaled(base);
    auto run_with_gamma = [&](std::int64_t gamma1) {
      std::vector<std::int64_t> ell = {gamma1,
                                       std::max<std::int64_t>(2, n / gamma1)};
      auto inst = graph::make_hierarchical_lower_bound(ell);
      graph::assign_ids(inst.tree, graph::IdScheme::kShuffled, 5);
      algo::SolverConfig cfg;
      cfg.set("k", 2);
      cfg.set("gammas", std::vector<std::int64_t>{gamma1});
      return algo::run_registered(algo::solver("generic_hier_25"),
                                  inst.tree, cfg)
          .stats.node_averaged;
    };
    const std::int64_t g_geo = algo::gammas_for_25(n, 2)[0];
    const std::int64_t g_uni = std::max<std::int64_t>(
        2, static_cast<std::int64_t>(
               std::llround(std::sqrt(static_cast<double>(n)))));
    geo_last = run_with_gamma(g_geo);
    uni_last = run_with_gamma(g_uni);
    std::printf("  %10lld %22.2f %22.2f\n", static_cast<long long>(n),
                geo_last, uni_last);
  }
  ctx.metric("gamma_uniform_over_geometric", uni_last / geo_last);
  std::printf("  -> tuned to t = n^{1/3} the worst instance costs "
              "~n^{1/3}; a uniform n^{1/2} threshold hands the adversary "
              "a ~n^{1/2} bill (Lemma 14 vs the naive profile).\n\n");
}

void ablation_early_resolution(bench::ScenarioContext& ctx) {
  std::printf("(c) fast-decomposition early resolution (Corollary 47)\n");
  std::printf("  %10s %20s %20s\n", "w", "backlog/w with",
              "backlog/w without");
  double with_last = 0.0, without_last = 0.0;
  for (const std::int64_t base : {4000, 16000, 64000, 256000}) {
    const auto w = static_cast<graph::NodeId>(ctx.scaled(base));
    graph::Tree t = graph::make_balanced_weight_tree(w, 7);
    std::vector<char> part(static_cast<std::size_t>(w), 1);
    std::vector<char> is_a(static_cast<std::size_t>(w), 0);
    is_a[0] = 1;
    t.set_input(0, static_cast<int>(problems::DFreeInput::kA));
    for (graph::NodeId v = 1; v < w; ++v) {
      t.set_input(v, static_cast<int>(problems::DFreeInput::kW));
    }
    auto backlog = [](const algo::FastDecompPlan& plan) {
      std::int64_t total = 0;
      for (std::int64_t c : plan.unfinished_after_iteration) total += c;
      return total;
    };
    const auto with_rule =
        algo::run_fast_decomposition(t, part, is_a, 3, true);
    const auto without_rule =
        algo::run_fast_decomposition(t, part, is_a, 3, false);
    with_last = static_cast<double>(backlog(with_rule)) / w;
    without_last = static_cast<double>(backlog(without_rule)) / w;
    std::printf("  %10d %20.2f %20.2f\n", w, with_last, without_last);
  }
  ctx.metric("backlog_with_rule", with_last);
  ctx.metric("backlog_without_rule", without_last);
  std::printf("  -> per-node backlog (= average waiting of the Decline "
              "mass) stays O(1) with the rule and grows like the tree "
              "depth (log w) without it.\n");
}

}  // namespace

namespace lcl::bench {

void run_ablation(ScenarioContext& ctx) {
  std::printf("== E14: ablations ==\n\n");
  ablation_weight_handling(ctx);
  ablation_gamma_profile(ctx);
  ablation_early_resolution(ctx);
}

}  // namespace lcl::bench
