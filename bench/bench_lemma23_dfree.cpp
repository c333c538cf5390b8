// E11 — Lemmas 23, 40 and 52: the weight-gadget efficiency factors.
// On a balanced Delta-regular weight tree with w nodes,
//  * at least w^x nodes must Copy (Lemma 23, x = log(D-d-1)/log(D-1));
//  * Algorithm A produces at most 6 w^x copies (Lemma 40);
//  * the fast-decomposition pruning keeps at most 2 w^{x'} copies
//    (Lemma 52, x' = log(D-d+1)/log(D-1)).
// The fitted exponents of measured copy counts vs w are compared to x
// and x'.
#include <cmath>
#include <cstdio>

#include "algo/dfree_logn.hpp"
#include "algo/fast_decomp.hpp"
#include "core/exponents.hpp"
#include "core/fitting.hpp"
#include "graph/builders.hpp"
#include "problems/labels.hpp"
#include "scenario.hpp"

namespace {

using namespace lcl;
using graph::NodeId;

struct Inst {
  graph::Tree tree;
  std::vector<char> part, is_a;
};

Inst make(NodeId w, int delta) {
  Inst i;
  i.tree = graph::make_balanced_weight_tree(w, delta);
  i.part.assign(static_cast<std::size_t>(w), 1);
  i.is_a.assign(static_cast<std::size_t>(w), 0);
  i.is_a[0] = 1;
  i.tree.set_input(0, static_cast<int>(problems::DFreeInput::kA));
  for (NodeId v = 1; v < w; ++v) {
    i.tree.set_input(v, static_cast<int>(problems::DFreeInput::kW));
  }
  return i;
}

std::int64_t algo_a_copies(const Inst& i, int d) {
  const auto res = algo::run_dfree_algorithm_a(i.tree, i.part, i.is_a, d,
                                               i.tree.size());
  std::int64_t c = 0;
  for (int o : res.output) {
    c += (o == static_cast<int>(problems::WeightOut::kCopy));
  }
  return c;
}

std::int64_t fda_kept_copies(const Inst& i, int d) {
  const auto plan =
      algo::run_fast_decomposition(i.tree, i.part, i.is_a, d);
  std::vector<char> declined(static_cast<std::size_t>(i.tree.size()), 0);
  for (NodeId v = 0; v < i.tree.size(); ++v) {
    if (plan.role[static_cast<std::size_t>(v)] ==
        algo::FdaRole::kDecline) {
      declined[static_cast<std::size_t>(v)] = 1;
    }
  }
  std::int64_t kept = 0;
  for (std::size_t c = 0; c < plan.components.size(); ++c) {
    const auto keep = algo::prune_component(
        i.tree, plan, static_cast<int>(c), d, [&](NodeId u) {
          return declined[static_cast<std::size_t>(u)] != 0;
        });
    for (char k : keep) kept += (k != 0);
  }
  return kept;
}

}  // namespace

namespace lcl::bench {

void run_lemma23_dfree(ScenarioContext& ctx) {
  std::printf("== E11: Lemmas 23/40/52 — weight-gadget efficiency ==\n\n");
  struct Config {
    int delta, d;
  };
  for (const Config c : {Config{5, 2}, Config{7, 3}, Config{9, 4},
                         Config{9, 6}}) {
    const double x = core::efficiency_x(c.delta, c.d);
    const double xp = core::efficiency_x_prime(c.delta, c.d);
    std::printf("Delta=%d d=%d: x=%.3f x'=%.3f\n", c.delta, c.d, x, xp);
    std::printf("  %10s %14s %14s %14s\n", "w", "AlgoA copies",
                "6*w^x bound", "FDA kept");
    std::vector<core::Sample> sa, sf;
    for (const std::int64_t base : {1000, 4000, 16000, 64000}) {
      const auto w = static_cast<NodeId>(ctx.scaled(base));
      const Inst inst = make(w, c.delta);
      const std::int64_t ca = algo_a_copies(inst, c.d);
      const bool fda_ok = c.d >= 3;
      const std::int64_t cf = fda_ok ? fda_kept_copies(inst, c.d) : -1;
      std::printf("  %10d %14lld %14.0f %14lld\n", w,
                  static_cast<long long>(ca),
                  6.0 * std::pow(static_cast<double>(w), x),
                  static_cast<long long>(cf));
      sa.push_back({static_cast<double>(w), static_cast<double>(ca)});
      if (fda_ok) {
        sf.push_back({static_cast<double>(w), static_cast<double>(cf)});
      }
    }
    const std::string cfg = "D" + std::to_string(c.delta) + "_d" +
                            std::to_string(c.d);
    const auto fa = core::fit_power_law(sa);
    if (fa.ok) {
      std::printf("  Algorithm A copy exponent: %.3f (paper: x = %.3f)\n",
                  fa.exponent, x);
      ctx.metric("algo_a_exponent_" + cfg, fa.exponent);
    } else {
      std::printf("  Algorithm A copy exponent: (degenerate sweep, no "
                  "fit)\n");
    }
    const auto ff = core::fit_power_law(sf);
    if (ff.ok) {
      std::printf("  FDA kept-copy exponent:    %.3f (paper: <= x' = "
                  "%.3f)\n",
                  ff.exponent, xp);
      ctx.metric("fda_exponent_" + cfg, ff.exponent);
    } else {
      std::printf("  FDA kept-copy exponent:    (skipped, needs d >= 3 "
                  "and a non-degenerate sweep)\n");
    }
    std::printf("\n");
  }
}

}  // namespace lcl::bench
