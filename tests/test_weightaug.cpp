// Weight-augmented 2.5-coloring (Section 10 / Lemma 69): composite
// validity (Definition 67 checker) and the Theta(n^{1/k}) node-average.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/registry.hpp"
#include "core/fitting.hpp"
#include "graph/builders.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using graph::Tree;

graph::WeightedInstance make_instance(int k, std::int64_t target_n,
                                      std::uint64_t seed) {
  // Classical worst-case shape: all levels have length ~ n^{1/k}.
  const double l = std::pow(static_cast<double>(target_n),
                            1.0 / static_cast<double>(k));
  std::vector<std::int64_t> ell(
      static_cast<std::size_t>(k),
      std::max<std::int64_t>(2, static_cast<std::int64_t>(std::llround(l))));
  auto inst = graph::make_weighted_construction(ell, 5);
  graph::assign_ids(inst.tree, graph::IdScheme::kShuffled, seed);
  return inst;
}

/// Runs the registered `weight_aug` solver; its verdict is the
/// Definition-67 check against the orientation the program commits to.
algo::SolverRun run(const Tree& t, int k) {
  algo::SolverConfig cfg;
  cfg.set("k", k);
  return algo::run_registered(algo::solver("weight_aug"), t, cfg);
}

class WeightAugSweep : public ::testing::TestWithParam<int> {};

TEST_P(WeightAugSweep, ValidOnWeightedConstruction) {
  const int k = GetParam();
  auto inst = make_instance(k, 4000, 31 + static_cast<std::uint64_t>(k));
  test::assert_valid(run(inst.tree, k).verdict);
}

INSTANTIATE_TEST_SUITE_P(Ks, WeightAugSweep, ::testing::Values(2, 3));

TEST(WeightAug, NodeAverageScalesLikeRootK) {
  const int k = 2;
  std::vector<core::Sample> samples;
  for (std::int64_t n : {2000, 8000, 32000}) {
    auto inst = make_instance(k, n, 7);
    const algo::SolverRun r = run(inst.tree, k);
    test::assert_valid(r.verdict);
    samples.push_back({static_cast<double>(inst.tree.size()),
                       r.stats.node_averaged});
  }
  const auto fit = core::fit_power_law(samples);
  // Lemma 69: Theta(n^{1/2}) for k = 2.
  EXPECT_GT(fit.exponent, 0.5 - 0.2);
  EXPECT_LT(fit.exponent, 0.5 + 0.2);
}

TEST(WeightAug, MostWeightCopiesTheHost) {
  // Lemma 68: Omega(w) of each balanced weight tree copies the host's
  // output (efficiency factor x = 1).
  auto inst = make_instance(2, 6000, 11);
  const algo::SolverRun r = run(inst.tree, 2);
  test::assert_valid(r.verdict);
  const auto& stats = r.stats;
  std::int64_t weight = 0, copying = 0;
  for (graph::NodeId v = 0; v < inst.tree.size(); ++v) {
    if (inst.tree.input(v) !=
        static_cast<int>(graph::WeightInput::kWeight)) {
      continue;
    }
    ++weight;
    if (stats.output[static_cast<std::size_t>(v)].secondary >= 0) {
      ++copying;
    }
  }
  ASSERT_GT(weight, 0);
  EXPECT_GT(static_cast<double>(copying),
            0.9 * static_cast<double>(weight));
}

}  // namespace
}  // namespace lcl
