// The black-white tree solver (Definition 70, Sections 11.3-11.5):
// label-set sweeps over a rake-and-compress decomposition solve edge
// LCLs on trees; the independent checker certifies every solution, and
// unsolvable problems are detected via empty classes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "algo/bw_generic.hpp"
#include "bw/tree_problem.hpp"
#include "graph/builders.hpp"
#include "graph/families.hpp"
#include "problems/lclgen.hpp"

namespace lcl {
namespace {

using graph::NodeId;
using graph::Tree;

void solve_and_check(const Tree& t, const problems::BwTable& p,
                     bool expect_solved = true) {
  const auto res = bw::solve_tree_bw(t, p);
  if (!expect_solved) {
    EXPECT_FALSE(res.solved) << p.name;
    return;
  }
  ASSERT_TRUE(res.solved) << p.name << ": " << res.failure;
  const std::string err = bw::check_tree_bw(t, p, res.edge_label);
  EXPECT_EQ(err, "") << p.name;
  // The exact global DP solves whatever the flexible solver solves.
  const auto exact = bw::solve_tree_bw_global(t, p);
  ASSERT_TRUE(exact.solved) << p.name << ": " << exact.failure;
  EXPECT_EQ(bw::check_tree_bw(t, p, exact.edge_label), "") << p.name;
}

TEST(TreeBw, FreeProblemOnEverything) {
  solve_and_check(graph::make_path(50), problems::free_table(2, 2));
  solve_and_check(graph::make_star(4), problems::free_table(3, 4));
  solve_and_check(graph::make_random_tree(500, 4, 1),
                  problems::free_table(2, 4));
}

TEST(TreeBw, EdgeColoringMirrorsTheRigidityClassification) {
  // Edge-2-coloring of a path is a Theta(n)-rigid problem (its node
  // analog classifies kLinear): the generic label-set machinery MUST
  // fail on it — compress chains force parity-coupled classes whose
  // independent restrictions cannot be combined globally. This is the
  // same refusal the testing procedure reports for 2-coloring.
  solve_and_check(graph::make_path(200), problems::edge_coloring_table(2, 2),
                  /*expect_solved=*/false);
  // Three colors make the problem flexible (Theta(log* n) analog): the
  // generic solver succeeds.
  solve_and_check(graph::make_path(201), problems::edge_coloring_table(3, 2));
  // A star with 4 leaves needs 4 colors; 3 must fail.
  solve_and_check(graph::make_star(4), problems::edge_coloring_table(4, 4));
  solve_and_check(graph::make_star(4), problems::edge_coloring_table(3, 4),
                  /*expect_solved=*/false);
}

class TreeBwRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeBwRandom, EdgeColoringOnRandomTrees) {
  const std::uint64_t seed = GetParam();
  const Tree t = graph::make_random_tree(400, 4, seed);
  solve_and_check(t, problems::edge_coloring_table(4, 4));
}

// Runs the covering table, the colour-symmetric cousin of sinkless
// orientation: every node of degree >= 2 needs an incident 1.
TEST_P(TreeBwRandom, SinklessOrientationOnRandomTrees) {
  const std::uint64_t seed = GetParam();
  const Tree t = graph::make_random_tree(400, 4, seed + 50);
  solve_and_check(t, problems::covering_table(4));
}

TEST_P(TreeBwRandom, WeakMatchingOnRandomTrees) {
  const std::uint64_t seed = GetParam();
  const Tree t = graph::make_random_tree(400, 4, seed + 99);
  solve_and_check(t, problems::weak_matching_table(4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeBwRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(TreeBw, CaterpillarMixesChainsAndRakes) {
  const Tree t = graph::make_caterpillar(120, 1);
  solve_and_check(t, problems::edge_coloring_table(4, 4));
  solve_and_check(t, problems::covering_table(4));
  solve_and_check(t, problems::weak_matching_table(4));
}

TEST(TreeBw, CheckerRejectsCorruption) {
  const Tree t = graph::make_path(30);
  const auto p = problems::edge_coloring_table(3, 2);
  auto res = bw::solve_tree_bw(t, p);
  ASSERT_TRUE(res.solved);
  res.edge_label[5] = res.edge_label[4];  // adjacent edges same color
  EXPECT_NE(bw::check_tree_bw(t, p, res.edge_label), "");
}

TEST(TreeBw, HierarchicalInstances) {
  // The Figure-3 lower-bound tree as a black-white substrate.
  const auto inst = graph::make_hierarchical_lower_bound({5, 8});
  solve_and_check(inst.tree, problems::edge_coloring_table(4, 4));
  solve_and_check(inst.tree, problems::covering_table(4));
}

// ROADMAP item 3's smallest repro: the classifier predicts O(1) for
// this table (canonical key a2d3:1:3:9), yet the flexible solver
// rejects this 30-node tree and only the exact global DP solves it.
// The classifier's prediction is not asserted here; fixing item 3 adds
// that.
TEST(TreeBw, ClassifierDisagreementReproOnThirtyNodes) {
  const problems::BwTable table = problems::sample_table(2074683864505426ULL);
  ASSERT_EQ(problems::canonical_key(table), "a2d3:1:3:9");
  const Tree t = graph::make_family_instance("prufer", 30, 14, 3);
  const bw::TreeBwResult flexible = bw::solve_tree_bw(t, table);
  EXPECT_FALSE(flexible.solved);
  EXPECT_EQ(flexible.failure, "infeasible root node 10");
  const bw::TreeBwResult exact = bw::solve_tree_bw_global(t, table);
  ASSERT_TRUE(exact.solved) << exact.failure;
  EXPECT_EQ(bw::check_tree_bw(t, table, exact.edge_label), "");
  EXPECT_EQ(algo::BwGenericProgram(t, table).mode(), algo::BwMode::kGlobal);
}

/// FNV-1a over little-endian 64-bit words and string bytes.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(w >> (8 * i)));
  }
  void str(const std::string& s) {
    word(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  template <typename T>
  void seq(const std::vector<T>& xs) {
    word(xs.size());
    for (const T x : xs) word(static_cast<std::uint64_t>(x));
  }
};

void hash_result(Fnv& h, const bw::TreeBwResult& r) {
  h.word(r.solved ? 1 : 0);
  h.str(r.failure);
  h.seq(r.edge_label);
  h.word(r.chains.size());
  for (const bw::ChainRecord& c : r.chains) {
    h.seq(c.nodes);
    h.word(c.left);
    h.word(c.right);
  }
}

// Pins both solvers bit for bit on sampled tables: labels, failure
// strings, chain records and the peel steps the engine wrapper charges.
// Any change to a label, a tie-break, a failure message or a peel step
// moves the hashes.
TEST(TreeBw, SolversArePinnedOnSampledTables) {
  struct Family {
    const char* name;
    int delta;
    std::uint64_t pinned;
  };
  const Family families[] = {
      {"prufer", 3, 5977905102640292979ULL},
      {"galton_watson", 3, 4532293355673696523ULL},
      {"path", 0, 17144442911895913011ULL}};
  const auto tables = problems::sample_problems(1, 24);
  ASSERT_EQ(tables.size(), 24u);
  for (const Family& f : families) {
    SCOPED_TRACE(f.name);
    Fnv h;
    int unsolved = 0;
    for (const NodeId n : {300, 3000}) {
      const Tree t = graph::make_family_instance(f.name, n, 11, f.delta);
      for (const problems::BwTable& table : tables) {
        const bw::TreeBwResult res = bw::solve_tree_bw(t, table);
        hash_result(h, res);
        h.seq(res.assign_step);
        if (!res.solved) {
          ++unsolved;
          hash_result(h, bw::solve_tree_bw_global(t, table));
        }
      }
    }
    EXPECT_GT(unsolved, 0);
    EXPECT_EQ(h.h, f.pinned);
  }
}

}  // namespace
}  // namespace lcl
