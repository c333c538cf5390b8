// A_poly on the weighted construction (Theorems 2/3): the composite
// solution is valid for Pi^{2.5}_{Delta,d,k}, and the measured
// node-average tracks n^{alpha_1}.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/apoly.hpp"
#include "core/exponents.hpp"
#include "core/experiment.hpp"
#include "graph/builders.hpp"
#include "problems/checkers.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using graph::Tree;
using problems::Variant;

/// The `apoly` solver's config with the Theorem-2 gammas for `t`.
algo::SolverConfig make_config(const Tree& t, int delta, int d, int k) {
  const double x = core::efficiency_x(delta, d);
  const auto alphas = core::alpha_profile_poly(x, k);
  algo::SolverConfig cfg;
  cfg.set("k", k);
  cfg.set("d", d);
  cfg.set("gammas", core::gammas_from_profile(
                        alphas, static_cast<double>(t.size())));
  return cfg;
}

class ApolySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ApolySweep, ValidOnWeightedConstruction) {
  const auto [delta, d, k] = GetParam();
  const double x = core::efficiency_x(delta, d);
  const auto alphas = core::alpha_profile_poly(x, k);
  const auto ell = core::lower_bound_lengths(alphas, 4000.0, 4000);
  auto inst = graph::make_weighted_construction(ell, delta);
  Tree& t = inst.tree;
  graph::assign_ids(t, graph::IdScheme::kShuffled, 7 * delta + d);

  const auto stats =
      test::run_solver("apoly", t, make_config(t, delta, d, k)).stats;
  test::assert_valid(
      problems::check_weighted(t, k, d, Variant::kTwoHalf, stats.output));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ApolySweep,
                         ::testing::Values(std::make_tuple(5, 2, 2),
                                           std::make_tuple(6, 3, 2),
                                           std::make_tuple(5, 2, 3),
                                           std::make_tuple(9, 4, 2),
                                           std::make_tuple(9, 6, 2)));

TEST(Apoly, NodeAverageScalesLikeAlpha1) {
  // Two sizes; the ratio of node-averages should track (n2/n1)^{alpha1}
  // within a generous factor.
  const int delta = 5, d = 2, k = 2;
  const double x = core::efficiency_x(delta, d);
  const double a1 = core::alpha1_poly(x, k);
  const auto alphas = core::alpha_profile_poly(x, k);

  double avg_small = 0, avg_large = 0;
  const std::int64_t n_small = 3000, n_large = 48000;
  for (std::int64_t target : {n_small, n_large}) {
    const auto ell = core::lower_bound_lengths(
        alphas, static_cast<double>(target), target);
    auto inst = graph::make_weighted_construction(ell, delta);
    Tree& t = inst.tree;
    graph::assign_ids(t, graph::IdScheme::kShuffled, 13);
    const auto stats =
        test::run_solver("apoly", t, make_config(t, delta, d, k)).stats;
    test::assert_valid(problems::check_weighted(t, k, d,
                                                Variant::kTwoHalf,
                                                stats.output));
    (target == n_small ? avg_small : avg_large) = stats.node_averaged;
  }
  const double measured_ratio = avg_large / avg_small;
  const double predicted_ratio = std::pow(
      static_cast<double>(n_large) / n_small, a1);
  EXPECT_LT(measured_ratio, predicted_ratio * 3.5);
  EXPECT_GT(measured_ratio, predicted_ratio / 3.5);
}

TEST(Apoly, CopyNodesWaitForActives) {
  // Every Copy weight node must terminate no earlier than the active
  // node whose label it copies (the whole point of the weight gadget).
  const int delta = 5, d = 2, k = 2;
  const double x = core::efficiency_x(delta, d);
  const auto alphas = core::alpha_profile_poly(x, k);
  const auto ell = core::lower_bound_lengths(alphas, 6000.0, 6000);
  auto inst = graph::make_weighted_construction(ell, delta);
  Tree& t = inst.tree;
  graph::assign_ids(t, graph::IdScheme::kShuffled, 17);
  algo::ApolyOptions o;
  o.k = k;
  o.d = d;
  o.gammas = core::gammas_from_profile(alphas,
                                       static_cast<double>(t.size()));
  algo::ApolyProgram program(t, o);
  local::Engine engine(t);
  const auto stats = engine.run(program);
  test::assert_valid(
      problems::check_weighted(t, k, d, Variant::kTwoHalf, stats.output));

  using problems::WeightOut;
  std::int64_t copy_count = 0;
  for (graph::NodeId v = 0; v < t.size(); ++v) {
    if (t.input(v) != static_cast<int>(graph::WeightInput::kWeight)) {
      continue;
    }
    if (stats.output[static_cast<std::size_t>(v)].primary !=
        static_cast<int>(WeightOut::kCopy)) {
      continue;
    }
    ++copy_count;
    const graph::NodeId root =
        program.dfree().copy_root[static_cast<std::size_t>(v)];
    // The root's active neighbor(s): v terminates after at least one.
    bool after_some_active = false;
    for (graph::NodeId u : t.neighbors(root)) {
      if (t.input(u) == static_cast<int>(graph::WeightInput::kActive) &&
          stats.termination_round[static_cast<std::size_t>(v)] >
              stats.termination_round[static_cast<std::size_t>(u)]) {
        after_some_active = true;
      }
    }
    EXPECT_TRUE(after_some_active) << "node " << v;
  }
  EXPECT_GT(copy_count, 0);
}

TEST(Apoly, PinnedRunTotals) {
  // Sum of T_v, rounds and worst case on two small Definition-25
  // constructions, recorded from the implementation that predates the
  // shared heavy-child-decline helper. Copying a different number or
  // depth of weight nodes moves them; a swap between two symmetric
  // subtrees does not, which the differential test in test_dfree covers.
  struct Pin {
    int delta, d, k;
    std::int64_t target;
    std::uint64_t id_seed;
    std::int64_t sum_t, rounds, worst;
  };
  for (const Pin& p : {Pin{5, 2, 2, 3000, 29, 67654, 29, 29},
                       Pin{5, 2, 3, 8000, 31, 242966, 33, 33}}) {
    const double x = core::efficiency_x(p.delta, p.d);
    const auto alphas = core::alpha_profile_poly(x, p.k);
    const auto ell = core::lower_bound_lengths(
        alphas, static_cast<double>(p.target), p.target);
    auto inst = graph::make_weighted_construction(ell, p.delta);
    Tree& t = inst.tree;
    graph::assign_ids(t, graph::IdScheme::kShuffled, p.id_seed);
    const auto stats =
        test::run_solver("apoly", t, make_config(t, p.delta, p.d, p.k))
            .stats;
    EXPECT_EQ(stats.total_rounds, p.sum_t) << "k=" << p.k;
    EXPECT_EQ(stats.rounds, p.rounds) << "k=" << p.k;
    EXPECT_EQ(stats.worst_case, p.worst) << "k=" << p.k;
  }
}

}  // namespace
}  // namespace lcl
