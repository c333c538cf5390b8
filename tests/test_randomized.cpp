// Randomized coloring (the Figure-1/2 randomized dichotomy witness):
// validity across seeds, O(1) node-average independent of n, and
// reproducibility.
#include <gtest/gtest.h>

#include "algo/registry.hpp"
#include "graph/builders.hpp"
#include "problems/checkers.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using graph::NodeId;
using graph::Tree;

/// Proper coloring check over arbitrary alphabets.
bool proper(const Tree& t, const std::vector<int>& colors) {
  for (NodeId v = 0; v < t.size(); ++v) {
    for (NodeId u : t.neighbors(v)) {
      if (colors[static_cast<std::size_t>(u)] ==
          colors[static_cast<std::size_t>(v)]) {
        return false;
      }
    }
  }
  return true;
}

/// The `random_coloring` solver's config: a palette and a run seed.
algo::SolverConfig config(int colors, std::uint64_t seed) {
  algo::SolverConfig cfg;
  cfg.seed = seed;
  cfg.set("colors", colors);
  return cfg;
}

/// Runs the registered `random_coloring` solver (certified).
local::RunStats run(const Tree& t, int colors, std::uint64_t seed) {
  return test::run_solver("random_coloring", t, config(colors, seed)).stats;
}

class RandomColoring : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomColoring, ValidOnPathsAndTrees) {
  const std::uint64_t seed = GetParam();
  {
    Tree t = graph::make_path(3000);
    graph::assign_ids(t, graph::IdScheme::kShuffled, seed);
    const auto stats = run(t, 3, seed);
    EXPECT_TRUE(proper(t, stats.primaries()));
  }
  {
    Tree t = graph::make_random_tree(2000, 4, seed);
    graph::assign_ids(t, graph::IdScheme::kShuffled, seed + 7);
    const auto stats = run(t, 5, seed);
    EXPECT_TRUE(proper(t, stats.primaries()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomColoring,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(RandomColoring, NodeAverageIsConstantInN) {
  // The randomized dichotomy's O(1) side: node-average stays flat while
  // n grows 64x (deterministic 3-coloring pays Theta(log*) ~ 28 here).
  double first = 0;
  for (NodeId n : {4000, 32000, 256000}) {
    Tree t = graph::make_path(n);
    graph::assign_ids(t, graph::IdScheme::kShuffled, 13);
    const auto stats = run(t, 3, 99);
    EXPECT_TRUE(proper(t, stats.primaries()));
    EXPECT_LT(stats.node_averaged, 12.0) << n;
    if (first == 0) first = stats.node_averaged;
    EXPECT_LT(stats.node_averaged, first * 2.0 + 2.0);
  }
}

TEST(RandomColoring, WorstCaseLogarithmic) {
  Tree t = graph::make_path(100000);
  graph::assign_ids(t, graph::IdScheme::kShuffled, 17);
  const auto stats = run(t, 3, 5);
  EXPECT_TRUE(proper(t, stats.primaries()));
  EXPECT_LE(stats.worst_case, 80);  // O(log n) w.h.p.
}

TEST(RandomColoring, Reproducible) {
  Tree t = graph::make_random_tree(1000, 4, 3);
  const auto a = run(t, 5, 42);
  const auto b = run(t, 5, 42);
  EXPECT_EQ(a.primaries(), b.primaries());
  EXPECT_EQ(a.termination_round, b.termination_round);
  const auto c = run(t, 5, 43);
  EXPECT_NE(a.primaries(), c.primaries());
}

TEST(RandomColoring, RejectsTooFewColors) {
  Tree t = graph::make_star(5);
  const algo::SolverSpec& spec = algo::solver("random_coloring");
  // In range for `colors` but below max degree + 1: the program refuses.
  EXPECT_THROW((void)algo::run_registered(spec, t, config(3, 1)),
               std::invalid_argument);
  // Out of the option's range: SolverConfig::validate refuses first.
  EXPECT_THROW((void)algo::run_registered(spec, t, config(-1, 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace lcl
