// The generic algorithm (Section 4.1): validity on every instance family,
// round-bound sanity, and the k = 1 degenerations (pure 2-coloring with
// Theta(n) node-average, pure 3-coloring with Theta(log*) rounds).
#include <gtest/gtest.h>

#include <cmath>

#include "algo/generic_hier.hpp"
#include "graph/builders.hpp"
#include "problems/checkers.hpp"
#include "problems/labels.hpp"
#include "problems/levels.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using algo::GenericOptions;
using graph::NodeId;
using graph::Tree;
using problems::Color;
using problems::Variant;

/// Runs the registered generic solver of `variant` (certified).
local::RunStats run(const Tree& t, Variant variant, int k,
                    std::vector<std::int64_t> gammas,
                    std::int64_t pad = 0) {
  algo::SolverConfig cfg;
  cfg.set("k", k);
  cfg.set("gammas", std::move(gammas));
  if (pad != 0) cfg.set("symmetry_pad", pad);
  return test::run_solver(variant == Variant::kTwoHalf ? "generic_hier_25"
                                                       : "generic_hier_35",
                          t, cfg)
      .stats;
}

// --- k = 1 degenerations ---------------------------------------------

TEST(Generic, TwoColoringOnPathIsProper) {
  Tree t = graph::make_path(101);
  graph::assign_ids(t, graph::IdScheme::kShuffled, 3);
  const auto stats = run(t, Variant::kTwoHalf, 1, {});
  test::assert_valid(problems::check_hierarchical_coloring(
      t, 1, Variant::kTwoHalf, stats.primaries()));
  // All W/B, alternating.
  test::expect_valid(problems::check_two_coloring(t, stats.primaries()));
}

TEST(Generic, TwoColoringNodeAverageIsLinear) {
  // Corollary 60 flavor: 2-coloring needs Theta(n) on average.
  double prev_avg = 0;
  for (NodeId n : {200, 400, 800}) {
    Tree t = graph::make_path(n);
    graph::assign_ids(t, graph::IdScheme::kShuffled, 5);
    const auto stats = run(t, Variant::kTwoHalf, 1, {});
    EXPECT_GT(stats.node_averaged, static_cast<double>(n) / 8.0);
    EXPECT_GT(stats.node_averaged, prev_avg);
    prev_avg = stats.node_averaged;
  }
}

TEST(Generic, ThreeColoringOnPathIsProperAndFast) {
  Tree t = graph::make_path(5000);
  graph::assign_ids(t, graph::IdScheme::kShuffled, 11);
  const auto stats = run(t, Variant::kThreeHalf, 1, {});
  test::assert_valid(problems::check_hierarchical_coloring(
      t, 1, Variant::kThreeHalf, stats.primaries()));
  test::expect_valid(problems::check_three_coloring(t, stats.primaries()));
  // Theta(log* n) + constants: for n = 5000 far below any linear bound.
  EXPECT_LE(stats.worst_case, 60);
}

TEST(Generic, ThreeColoringVirtualLogStarTarget) {
  Tree t = graph::make_path(500);
  const auto base = run(t, Variant::kThreeHalf, 1, {});
  // A target below the natural CV cost changes nothing.
  const auto low = run(t, Variant::kThreeHalf, 1, {}, 10);
  EXPECT_EQ(low.worst_case, base.worst_case);
  // A target above it pads the phase to Lambda total rounds (+3 fixed
  // offset: phase start plus the final map-and-terminate rounds).
  const auto high = run(t, Variant::kThreeHalf, 1, {}, 200);
  EXPECT_EQ(high.worst_case, 203);
  test::expect_valid(problems::check_three_coloring(t, high.primaries()));
}

// --- hierarchical instances (Figure 3) --------------------------------

class GenericHier : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GenericHier, ValidOnLowerBoundGraph) {
  const auto [k, variant_idx] = GetParam();
  const Variant variant =
      variant_idx == 0 ? Variant::kTwoHalf : Variant::kThreeHalf;
  std::vector<std::int64_t> ell;
  for (int i = 1; i < k; ++i) ell.push_back(4 + i);
  ell.push_back(12);
  const auto inst = graph::make_hierarchical_lower_bound(ell);
  Tree t = inst.tree;
  graph::assign_ids(t, graph::IdScheme::kShuffled, 17 * k + variant_idx);

  std::vector<std::int64_t> gammas(static_cast<std::size_t>(k - 1), 4);
  const auto stats = run(t, variant, k, gammas);
  test::assert_valid(problems::check_hierarchical_coloring(
      t, k, variant, stats.primaries()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GenericHier,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1)));

TEST(Generic, DeclinesLongPathsColorsShortOnes) {
  // Level-1 paths of length 9 with gamma_1 = 5: every level-1 path is
  // long, so all decline, and the level-2 path must 2-color.
  const auto inst = graph::make_hierarchical_lower_bound({9, 10});
  Tree t = inst.tree;
  graph::assign_ids(t, graph::IdScheme::kShuffled, 23);
  const auto stats = run(t, Variant::kTwoHalf, 2, {5});
  test::assert_valid(problems::check_hierarchical_coloring(
      t, 2, Variant::kTwoHalf, stats.primaries()));
  const auto out = stats.primaries();
  const auto levels = problems::compute_levels(t, 2);
  for (NodeId v = 0; v < t.size(); ++v) {
    if (levels[static_cast<std::size_t>(v)] == 1) {
      EXPECT_EQ(out[static_cast<std::size_t>(v)],
                static_cast<int>(Color::kD));
    } else {
      EXPECT_TRUE(out[static_cast<std::size_t>(v)] ==
                      static_cast<int>(Color::kW) ||
                  out[static_cast<std::size_t>(v)] ==
                      static_cast<int>(Color::kB));
    }
  }
}

TEST(Generic, ShortLowLevelPathsExemptHigherLevels) {
  // Level-1 paths of length 3 with gamma_1 = 10: they 2-color, so every
  // level-2 node becomes Exempt.
  const auto inst = graph::make_hierarchical_lower_bound({3, 10});
  Tree t = inst.tree;
  graph::assign_ids(t, graph::IdScheme::kShuffled, 29);
  const auto stats = run(t, Variant::kTwoHalf, 2, {10});
  test::assert_valid(problems::check_hierarchical_coloring(
      t, 2, Variant::kTwoHalf, stats.primaries()));
  const auto out = stats.primaries();
  const auto levels = problems::compute_levels(t, 2);
  for (NodeId v = 0; v < t.size(); ++v) {
    if (levels[static_cast<std::size_t>(v)] == 2) {
      EXPECT_EQ(out[static_cast<std::size_t>(v)],
                static_cast<int>(Color::kE));
    }
  }
}

TEST(Generic, RandomTreesAllVariants) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Tree t = graph::make_random_tree(600, 4, seed);
    graph::assign_ids(t, graph::IdScheme::kShuffled, seed);
    for (int k : {1, 2, 3}) {
      std::vector<std::int64_t> gammas(static_cast<std::size_t>(k - 1), 4);
      for (Variant variant : {Variant::kTwoHalf, Variant::kThreeHalf}) {
        const auto stats = run(t, variant, k, gammas);
        test::assert_valid(problems::check_hierarchical_coloring(
            t, k, variant, stats.primaries()));
      }
    }
  }
}

TEST(Generic, NodeAveragedMatchesTheoryTwoHalf) {
  // BBK+23b: k-hier 2.5-coloring with optimal gammas is
  // Theta(n^{1/(2k-1)}); for k=2, exponent 1/3. We check the measured
  // averages grow sublinearly and in the right ballpark.
  const std::int64_t n_target = 30000;
  const double t13 = std::pow(static_cast<double>(n_target), 1.0 / 3.0);
  const std::int64_t ell1 = static_cast<std::int64_t>(t13);
  const auto inst = graph::make_hierarchical_lower_bound(
      {ell1, n_target / ell1});
  Tree t = inst.tree;
  graph::assign_ids(t, graph::IdScheme::kShuffled, 31);
  const auto stats =
      run(t, Variant::kTwoHalf, 2, algo::gammas_for_25(t.size(), 2));
  test::assert_valid(problems::check_hierarchical_coloring(
      t, 2, Variant::kTwoHalf, stats.primaries()));
  // Node average should be Theta(n^{1/3}): within a generous band.
  EXPECT_LT(stats.node_averaged, 12.0 * t13);
  EXPECT_GT(stats.node_averaged, t13 / 12.0);
}

TEST(Generic, StateGrowsWithActiveNodesNotWithN) {
  // A path whose first tenth is active and the rest weight nodes, as in
  // the weighted constructions: the wave state is only for the active
  // part, so the program's state is a few bytes per node plus the wave
  // nodes' entries, not a wave entry for every node.
  const NodeId n = 20000;
  const NodeId active = n / 10;
  Tree t = graph::make_path(n);
  for (NodeId v = active; v < n; ++v) {
    t.set_input(v, static_cast<int>(graph::WeightInput::kWeight));
  }
  GenericOptions options;
  options.variant = Variant::kThreeHalf;
  const algo::GenericHierProgram few(t, options,
                                     problems::active_levels(t, 1));
  const Tree all_active = graph::make_path(n);
  const algo::GenericHierProgram all(all_active, options,
                                     problems::compute_levels(all_active, 1));
  const auto per_node = [&](const algo::GenericHierProgram& p) {
    return static_cast<double>(p.state_bytes()) / static_cast<double>(n);
  };
  // With every node a wave node the entries dominate; with a tenth of
  // them, the state shrinks in proportion, down to the per-node maps.
  EXPECT_GT(per_node(all), 32.0);
  EXPECT_LT(per_node(few), 10.0);
  EXPECT_LT(per_node(few), per_node(all) / 3.0);
}

}  // namespace
}  // namespace lcl
