// Cross-module integration and property tests: the composite solvers on
// *random* mixed Active/Weight instances (not just the paper's clean
// constructions), determinism, checker failure injection on composite
// outputs, and conservation properties of the engine accounting.
#include <gtest/gtest.h>

#include <random>

#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "core/exponents.hpp"
#include "graph/builders.hpp"
#include "problems/checkers.hpp"
#include "problems/labels.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using graph::NodeId;
using graph::Tree;
using problems::Variant;
using problems::WeightOut;

/// A random tree with a random subset of nodes marked Active such that
/// the active subgraph is nonempty; everything else is Weight.
Tree random_marked_tree(NodeId n, int delta, double active_fraction,
                        std::uint64_t seed) {
  Tree t = graph::make_random_tree(n, delta, seed);
  std::mt19937_64 rng(seed * 7919 + 13);
  std::bernoulli_distribution coin(active_fraction);
  bool any_active = false;
  for (NodeId v = 0; v < n; ++v) {
    const bool active = coin(rng);
    t.set_input(v, static_cast<int>(active ? graph::WeightInput::kActive
                                           : graph::WeightInput::kWeight));
    any_active = any_active || active;
  }
  if (!any_active) t.set_input(0, static_cast<int>(graph::WeightInput::kActive));
  graph::assign_ids(t, graph::IdScheme::kShuffled, seed + 1);
  return t;
}

/// Config for the registered weighted solvers ("apoly", "pi35").
algo::SolverConfig weighted_config(int k, int d,
                                   std::vector<std::int64_t> gammas) {
  algo::SolverConfig cfg;
  cfg.set("k", k);
  cfg.set("d", d);
  cfg.set("gammas", std::move(gammas));
  return cfg;
}

class ApolyRandomSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ApolyRandomSweep, ValidOnRandomMixedInstances) {
  const auto [seed, fraction] = GetParam();
  Tree t = random_marked_tree(1200, 5, fraction, seed);
  const auto run = algo::run_registered(algo::solver("apoly"), t,
                                        weighted_config(2, 2, {8}));
  ASSERT_TRUE(run.verdict.ok) << run.verdict.reason << " (seed " << seed
                              << ", fraction " << fraction << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApolyRandomSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(0.1, 0.3, 0.7)));

class Pi35RandomSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(Pi35RandomSweep, ValidOnRandomMixedInstances) {
  const auto [seed, fraction] = GetParam();
  Tree t = random_marked_tree(1200, 6, fraction, seed + 100);
  const auto run = algo::run_registered(algo::solver("pi35"), t,
                                        weighted_config(2, 3, {8}));
  ASSERT_TRUE(run.verdict.ok) << run.verdict.reason << " (seed " << seed
                              << ", fraction " << fraction << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Pi35RandomSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(0.1, 0.3, 0.7)));

TEST(Integration, ApolyIsDeterministic) {
  Tree t = random_marked_tree(800, 5, 0.2, 42);
  const auto cfg = weighted_config(2, 2, {6});
  const auto a = test::run_solver("apoly", t, cfg).stats;
  const auto b = test::run_solver("apoly", t, cfg).stats;
  ASSERT_EQ(a.output.size(), b.output.size());
  for (std::size_t i = 0; i < a.output.size(); ++i) {
    EXPECT_EQ(a.output[i].primary, b.output[i].primary);
    EXPECT_EQ(a.output[i].secondary, b.output[i].secondary);
    EXPECT_EQ(a.termination_round[i], b.termination_round[i]);
  }
}

TEST(Integration, EngineAccountingConsistent) {
  Tree t = random_marked_tree(1000, 5, 0.25, 7);
  const auto stats =
      test::run_solver("apoly", t, weighted_config(2, 2, {8})).stats;
  std::int64_t total = 0;
  std::int64_t worst = 0;
  for (std::int64_t r : stats.termination_round) {
    total += r;
    worst = std::max(worst, r);
  }
  EXPECT_EQ(total, stats.total_rounds);
  EXPECT_EQ(worst, stats.worst_case);
  EXPECT_DOUBLE_EQ(stats.node_averaged,
                   static_cast<double>(total) / stats.n);
  // Every round up to the last one had at least one live node.
  EXPECT_LE(stats.rounds, stats.worst_case + 1);
}

TEST(Integration, WeightedCheckerFailureInjection) {
  const double x = core::efficiency_x(5, 2);
  const auto alphas = core::alpha_profile_poly(x, 2);
  const auto ell = core::lower_bound_lengths(alphas, 4000.0, 4000);
  auto inst = graph::make_weighted_construction(ell, 5);
  Tree& t = inst.tree;
  graph::assign_ids(t, graph::IdScheme::kShuffled, 3);
  const std::int64_t gamma =
      std::max<std::int64_t>(2, inst.skeleton_lengths[0]);
  const auto stats =
      test::run_solver("apoly", t, weighted_config(2, 2, {gamma})).stats;
  test::assert_valid(
      problems::check_weighted(t, 2, 2, Variant::kTwoHalf, stats.output));

  // (a) Corrupt a Copy node's secondary output.
  {
    auto bad = stats.output;
    for (NodeId v = 0; v < t.size(); ++v) {
      if (t.input(v) == static_cast<int>(graph::WeightInput::kWeight) &&
          bad[static_cast<std::size_t>(v)].primary ==
              static_cast<int>(WeightOut::kCopy)) {
        bad[static_cast<std::size_t>(v)].secondary =
            (bad[static_cast<std::size_t>(v)].secondary + 1) % 4;
        break;
      }
    }
    EXPECT_FALSE(
        problems::check_weighted(t, 2, 2, Variant::kTwoHalf, bad).ok);
  }
  // (b) Make an active-adjacent weight node Decline.
  {
    auto bad = stats.output;
    for (NodeId v = 0; v < t.size(); ++v) {
      if (t.input(v) != static_cast<int>(graph::WeightInput::kWeight)) {
        continue;
      }
      bool touches_active = false;
      for (NodeId u : t.neighbors(v)) {
        touches_active =
            touches_active ||
            t.input(u) == static_cast<int>(graph::WeightInput::kActive);
      }
      if (touches_active) {
        bad[static_cast<std::size_t>(v)] = {
            static_cast<int>(WeightOut::kDecline), -1};
        break;
      }
    }
    EXPECT_FALSE(
        problems::check_weighted(t, 2, 2, Variant::kTwoHalf, bad).ok);
  }
  // (c) Corrupt an active node's coloring.
  {
    auto bad = stats.output;
    for (NodeId v = 0; v < t.size(); ++v) {
      if (t.input(v) == static_cast<int>(graph::WeightInput::kActive)) {
        bad[static_cast<std::size_t>(v)].primary =
            static_cast<int>(problems::Color::kE);
        break;
      }
    }
    EXPECT_FALSE(
        problems::check_weighted(t, 2, 2, Variant::kTwoHalf, bad).ok);
  }
}

TEST(Integration, CopyCountsShrinkWithLargerD) {
  // More Decline budget => fewer forced copies (monotone efficiency).
  std::int64_t copies[2] = {0, 0};
  int idx = 0;
  for (int d : {2, 6}) {
    const std::vector<double> profile = {0.45};
    const auto ell = core::lower_bound_lengths(profile, 20000.0, 20000);
    auto inst = graph::make_weighted_construction(ell, 9);
    graph::assign_ids(inst.tree, graph::IdScheme::kShuffled, 5);
    const std::int64_t gamma =
        std::max<std::int64_t>(2, inst.skeleton_lengths[0]);
    const auto stats =
        test::run_solver("apoly", inst.tree, weighted_config(2, d, {gamma}))
            .stats;
    test::assert_valid(problems::check_weighted(
        inst.tree, 2, d, Variant::kTwoHalf, stats.output));
    for (const auto& out : stats.output) {
      copies[idx] += (out.primary == static_cast<int>(WeightOut::kCopy));
    }
    ++idx;
  }
  EXPECT_GT(copies[0], copies[1]);
}

}  // namespace
}  // namespace lcl
