// The Pi^{3.5} solver (Section 8.2 / Theorem 5): composite validity on
// the weighted construction, kept-copy accounting, and the virtual-log*
// scaling of the node-average.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/pi35.hpp"
#include "core/exponents.hpp"
#include "core/experiment.hpp"
#include "graph/builders.hpp"
#include "problems/checkers.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using graph::Tree;
using problems::Variant;

struct Pi35Setup {
  Tree tree;
  algo::Pi35Options options;
};

Pi35Setup make_setup(int delta, int d, int k, std::int64_t lambda,
                     std::int64_t target_n, std::uint64_t seed) {
  const double xp = core::efficiency_x_prime(delta, d);
  const auto alphas = core::alpha_profile_logstar(xp, k);
  const auto ell = core::lower_bound_lengths(
      alphas, static_cast<double>(lambda), target_n);
  auto inst = graph::make_weighted_construction(ell, delta);
  graph::assign_ids(inst.tree, graph::IdScheme::kShuffled, seed);

  Pi35Setup s{std::move(inst.tree), {}};
  s.options.k = k;
  s.options.d = d;
  for (int i = 0; i + 1 < k; ++i) {
    s.options.gammas.push_back(std::max<std::int64_t>(
        2, inst.skeleton_lengths[static_cast<std::size_t>(i)]));
  }
  s.options.symmetry_pad = lambda;
  return s;
}

/// Runs the registered `pi35` solver with the setup's options (certified).
local::RunStats run(const Pi35Setup& s) {
  algo::SolverConfig cfg;
  cfg.set("k", s.options.k);
  cfg.set("d", s.options.d);
  cfg.set("gammas", s.options.gammas);
  cfg.set("symmetry_pad", s.options.symmetry_pad);
  return test::run_solver("pi35", s.tree, cfg).stats;
}

class Pi35Sweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Pi35Sweep, ValidOnWeightedConstruction) {
  const auto [delta, d, k] = GetParam();
  auto s = make_setup(delta, d, k, 16, 3000, 3 * delta + d);
  const auto stats = run(s);
  test::assert_valid(problems::check_weighted(
      s.tree, k, d, Variant::kThreeHalf, stats.output));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Pi35Sweep,
                         ::testing::Values(std::make_tuple(6, 3, 2),
                                           std::make_tuple(7, 3, 2),
                                           std::make_tuple(7, 4, 2),
                                           std::make_tuple(6, 3, 3),
                                           std::make_tuple(9, 5, 2)));

TEST(Pi35, NodeAverageGrowsWithLambda) {
  // Sweep the virtual log*: node-average should grow like
  // Lambda^{alpha1} (between alpha1(x) and alpha1(x')).
  const int delta = 6, d = 3, k = 2;
  double prev = 0;
  std::vector<core::Sample> samples;
  for (std::int64_t lambda : {64, 128, 256, 512}) {
    auto s = make_setup(delta, d, k, lambda, 4000, 11);
    const auto stats = run(s);
    test::assert_valid(problems::check_weighted(
        s.tree, k, d, Variant::kThreeHalf, stats.output));
    EXPECT_GE(stats.node_averaged, prev * 0.9);
    prev = stats.node_averaged;
    samples.push_back({static_cast<double>(lambda), stats.node_averaged});
  }
  const auto fit = core::fit_power_law(samples);
  // Generous band around [alpha1(x), alpha1(x')] — constants and additive
  // terms pollute small Lambdas.
  const double lo = core::alpha1_logstar(core::efficiency_x(delta, d), k);
  const double hi =
      core::alpha1_logstar(core::efficiency_x_prime(delta, d), k);
  EXPECT_GT(fit.exponent, lo - 0.45);
  EXPECT_LT(fit.exponent, hi + 0.45);
}

TEST(Pi35, KeptCopiesBounded) {
  const int delta = 7, d = 3, k = 2;
  auto s = make_setup(delta, d, k, 32, 6000, 23);
  const auto stats = run(s);
  test::assert_valid(problems::check_weighted(
      s.tree, k, d, Variant::kThreeHalf, stats.output));
  // Kept copies (weight nodes whose final primary output is Copy, the
  // quantity Lemma 52 bounds by |C'(v)| <= 2 |C(v)|^{x'}) are far fewer
  // than the weight volume: sum over components of 2|C|^{x'} plus
  // Case-1 components.
  std::int64_t weight_nodes = 0;
  std::int64_t copies_kept = 0;
  for (graph::NodeId v = 0; v < s.tree.size(); ++v) {
    if (s.tree.input(v) ==
        static_cast<int>(graph::WeightInput::kWeight)) {
      ++weight_nodes;
      if (stats.output[static_cast<std::size_t>(v)].primary ==
          static_cast<int>(problems::WeightOut::kCopy)) {
        ++copies_kept;
      }
    }
  }
  EXPECT_GT(copies_kept, 0);
  EXPECT_LT(copies_kept, weight_nodes);
}

TEST(Pi35, ProgramStateUnderFiftyBytesPerNode) {
  // The program's per-node and per-component state on a k=3 weighted
  // construction, where two thirds of the nodes are weight nodes: wave
  // state belongs to the active wave nodes only, and neither the plan
  // nor the pruning keeps a node-indexed map for the few component
  // roots. A 32-byte wave entry, a CV color and such maps for every
  // node would put it above 70 bytes per node.
  auto s = make_setup(6, 3, 3, 64, 6000, 17);
  const algo::Pi35Program program(s.tree, s.options);
  const double per_node = static_cast<double>(program.state_bytes()) /
                          static_cast<double>(s.tree.size());
  EXPECT_LE(per_node, 50.0);
  EXPECT_GT(per_node, 15.0);  // the plan's own per-node fields
}

TEST(Pi35, PinnedRunTotals) {
  // Sum of T_v, rounds and worst case on two small Definition-25
  // constructions, recorded from the implementation that predates the
  // shared heavy-child-decline helper. Pruning a different number or
  // depth of members moves them; a swap between two symmetric subtrees
  // does not, which the differential test in test_fastdecomp covers.
  struct Pin {
    int delta, d, k;
    std::int64_t lambda, target;
    std::uint64_t seed;
    std::int64_t sum_t, rounds, worst;
  };
  for (const Pin& p : {Pin{7, 3, 2, 32, 6000, 37, 123496, 61, 61},
                       Pin{6, 3, 3, 16, 6000, 41, 136121, 63, 63}}) {
    auto s = make_setup(p.delta, p.d, p.k, p.lambda, p.target, p.seed);
    const auto stats = run(s);
    EXPECT_EQ(stats.total_rounds, p.sum_t) << "k=" << p.k;
    EXPECT_EQ(stats.rounds, p.rounds) << "k=" << p.k;
    EXPECT_EQ(stats.worst_case, p.worst) << "k=" << p.k;
  }
}

}  // namespace
}  // namespace lcl
