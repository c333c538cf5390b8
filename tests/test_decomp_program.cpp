// The distributed decomposition program: agreement with the
// Definition-43 properties, and — the point of running it in-model —
// Lemma 72's ROUND bounds: O(L * (gamma + ell)) rounds overall, i.e.
// O(k n^{1/k}) for gamma ~ n^{1/k} and O(log n * gamma) for gamma = 1.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/decomp_program.hpp"
#include "algo/registry.hpp"
#include "decomp/rake_compress.hpp"
#include "graph/builders.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using graph::NodeId;
using graph::Tree;

TEST(DecompProgram, EncodeDecodeRoundTrips) {
  for (int layer : {1, 5, 200}) {
    for (int sub : {0, 1, 77}) {
      for (auto kind :
           {decomp::LayerKind::kRake, decomp::LayerKind::kCompress}) {
        const decomp::LayerAssignment a{kind, layer, sub};
        const auto b = algo::decode_layer(algo::encode_layer(a));
        EXPECT_EQ(b.kind, a.kind);
        EXPECT_EQ(b.layer, a.layer);
        EXPECT_EQ(b.sublayer, a.sublayer);
      }
    }
  }
}

/// Runs the registered `rake_compress` solver; its verdict validates the
/// decoded decomposition against Definition 43.
algo::SolverRun run(const Tree& t, int gamma, int ell) {
  algo::SolverConfig cfg;
  cfg.set("gamma", gamma);
  cfg.set("ell", ell);
  return algo::run_registered(algo::solver("rake_compress"), t, cfg);
}

class DecompProgramSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecompProgramSweep, ValidRelaxedDecomposition) {
  const std::uint64_t seed = GetParam();
  Tree t = graph::make_random_tree(800, 4, seed);
  graph::assign_ids(t, graph::IdScheme::kShuffled, seed);
  const auto out = run(t, 2, 3);
  EXPECT_TRUE(out.verdict.ok) << "seed " << seed << ": "
                              << out.verdict.reason;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompProgramSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(DecompProgram, PathsAndCaterpillars) {
  for (Tree t : {graph::make_path(300), graph::make_caterpillar(120, 2)}) {
    graph::assign_ids(t, graph::IdScheme::kShuffled, 9);
    test::expect_valid(run(t, 1, 3).verdict);
  }
}

TEST(DecompProgram, Lemma72RoundBoundGammaRootK) {
  // gamma ~ n^{1/2}: at most ~2 iterations, so O(n^{1/2}) rounds.
  Tree t = graph::make_random_tree(10000, 4, 3);
  graph::assign_ids(t, graph::IdScheme::kShuffled, 3);
  const int gamma = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(t.size())) * 1.5));
  const auto out = run(t, gamma, 3);
  test::expect_valid(out.verdict);
  EXPECT_LE(algo::decode_decomposition(t, out.stats, gamma, 3).num_layers,
            2);
  // Rounds <= #layers * window = O(n^{1/2}).
  EXPECT_LE(out.stats.worst_case,
            static_cast<std::int64_t>(2) * (2 * gamma + 3 + 3));
}

TEST(DecompProgram, Lemma72RoundBoundGammaOne) {
  // gamma = 1: O(log n) iterations of O(1) rounds each.
  for (NodeId n : {1000, 8000, 64000}) {
    Tree t = graph::make_random_tree(n, 4, 7);
    graph::assign_ids(t, graph::IdScheme::kShuffled, 7);
    const auto out = run(t, 1, 3);
    test::expect_valid(out.verdict);
    const double logn = std::log2(static_cast<double>(n));
    EXPECT_LE(out.stats.worst_case,
              static_cast<std::int64_t>(8.0 * 4.0 * logn))
        << "n " << n;
  }
}

TEST(DecompProgram, AgreesWithCentralizedOnLayerCounts) {
  // The distributed and centralized relaxed decompositions need not be
  // identical (timing of deferred rakes differs slightly), but their
  // layer counts must be of the same order.
  Tree t = graph::make_random_tree(5000, 4, 11);
  graph::assign_ids(t, graph::IdScheme::kShuffled, 11);
  const auto run_out = run(t, 2, 3);
  test::expect_valid(run_out.verdict);
  const auto dist = algo::decode_decomposition(t, run_out.stats, 2, 3);
  const auto central = decomp::rake_compress(t, 2, 3, /*split=*/false);
  EXPECT_LE(dist.num_layers, 2 * central.num_layers + 2);
  EXPECT_LE(central.num_layers, 2 * dist.num_layers + 2);
}

}  // namespace
}  // namespace lcl
