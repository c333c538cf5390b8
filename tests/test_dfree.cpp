// Algorithm A for the d-free weight problem (Section 7): validity on the
// paper's weight-tree instances, the Lemma-40 Copy bound, and Connect
// behavior between close input-A nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <random>
#include <string>

#include "algo/connect_paths.hpp"
#include "algo/dfree_logn.hpp"
#include "core/exponents.hpp"
#include "graph/builders.hpp"
#include "graph/families.hpp"
#include "problems/checkers.hpp"
#include "problems/labels.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using graph::NodeId;
using graph::Tree;
using problems::WeightOut;

/// d-free instance: a balanced weight tree whose root is the input-A node.
struct WeightTreeInstance {
  Tree tree;
  std::vector<char> participates;
  std::vector<char> is_a;
};

WeightTreeInstance weight_tree_instance(NodeId w, int delta) {
  WeightTreeInstance inst;
  inst.tree = graph::make_balanced_weight_tree(w, delta);
  inst.participates.assign(static_cast<std::size_t>(w), 1);
  inst.is_a.assign(static_cast<std::size_t>(w), 0);
  inst.is_a[0] = 1;
  inst.tree.set_input(0, static_cast<int>(problems::DFreeInput::kA));
  for (NodeId v = 1; v < w; ++v) {
    inst.tree.set_input(v, static_cast<int>(problems::DFreeInput::kW));
  }
  return inst;
}

class DFreeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DFreeSweep, ValidAndCopyBounded) {
  const auto [w, delta, d] = GetParam();
  ASSERT_GE(delta, d + 3);
  auto inst = weight_tree_instance(w, delta);
  const auto res = algo::run_dfree_algorithm_a(
      inst.tree, inst.participates, inst.is_a, d, inst.tree.size());
  test::assert_valid(
      problems::check_dfree_weight(inst.tree, d, res.output));
  // Root must Copy (it is input-A with no close A peer).
  EXPECT_EQ(res.output[0], static_cast<int>(WeightOut::kCopy));

  // Lemma 40: |Copy| <= 6 * |ball|^x with x = log(D-1-d)/log(D-1); the
  // ball is at most the whole tree.
  std::int64_t copies = 0;
  for (int o : res.output) {
    if (o == static_cast<int>(WeightOut::kCopy)) ++copies;
  }
  const double x = core::efficiency_x(delta, d);
  EXPECT_LE(static_cast<double>(copies),
            6.0 * std::pow(static_cast<double>(w), x) + 1.0)
      << "w=" << w << " delta=" << delta << " d=" << d;
  // And at least w^x nodes copy (Lemma 23's lower bound, up to the
  // truncation of the last level).
  EXPECT_GE(static_cast<double>(copies),
            0.2 * std::pow(static_cast<double>(w), x) - 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DFreeSweep,
    ::testing::Values(std::make_tuple(200, 5, 2),
                      std::make_tuple(1000, 5, 2),
                      std::make_tuple(1000, 6, 3),
                      std::make_tuple(3000, 7, 3),
                      std::make_tuple(3000, 9, 4),
                      std::make_tuple(5000, 9, 6)));

TEST(DFree, ConnectBetweenCloseANodes) {
  // A path of 7 weight nodes whose two ends are input-A: within the
  // Connect bound, the whole path connects.
  const NodeId n = 7;
  Tree t = graph::make_path(n);
  std::vector<char> part(static_cast<std::size_t>(n), 1);
  std::vector<char> is_a(static_cast<std::size_t>(n), 0);
  is_a[0] = is_a[static_cast<std::size_t>(n - 1)] = 1;
  t.set_input(0, static_cast<int>(problems::DFreeInput::kA));
  t.set_input(n - 1, static_cast<int>(problems::DFreeInput::kA));
  const auto res = algo::run_dfree_algorithm_a(t, part, is_a, 2, n);
  test::assert_valid(problems::check_dfree_weight(t, 2, res.output));
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(res.output[static_cast<std::size_t>(v)],
              static_cast<int>(WeightOut::kConnect))
        << "node " << v;
  }
}

TEST(DFree, FarANodesDoNotConnect) {
  // Far-apart A-nodes on a long path: no Connect; each A copies.
  const NodeId n = 4000;
  Tree t = graph::make_path(n);
  std::vector<char> part(static_cast<std::size_t>(n), 1);
  std::vector<char> is_a(static_cast<std::size_t>(n), 0);
  is_a[0] = is_a[static_cast<std::size_t>(n - 1)] = 1;
  for (NodeId v = 0; v < n; ++v) {
    t.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                        ? problems::DFreeInput::kA
                                        : problems::DFreeInput::kW));
  }
  const auto res = algo::run_dfree_algorithm_a(t, part, is_a, 2, n);
  test::assert_valid(problems::check_dfree_weight(t, 2, res.output));
  EXPECT_EQ(res.output[0], static_cast<int>(WeightOut::kCopy));
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_NE(res.output[static_cast<std::size_t>(v)],
              static_cast<int>(WeightOut::kConnect));
  }
}

TEST(DFree, CopyComponentContainsExactlyOneANode) {
  // Observation 39 on a random weight forest with several A nodes.
  Tree t = graph::make_random_tree(3000, 5, 99);
  const NodeId n = t.size();
  std::vector<char> part(static_cast<std::size_t>(n), 1);
  std::vector<char> is_a(static_cast<std::size_t>(n), 0);
  // A nodes far apart: indices 0, n/2 (random attachment keeps them
  // reasonably distant with this seed; Connect handles them otherwise).
  is_a[0] = 1;
  is_a[static_cast<std::size_t>(n / 2)] = 1;
  for (NodeId v = 0; v < n; ++v) {
    t.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                        ? problems::DFreeInput::kA
                                        : problems::DFreeInput::kW));
  }
  const auto res = algo::run_dfree_algorithm_a(t, part, is_a, 2, n);
  test::assert_valid(problems::check_dfree_weight(t, 2, res.output));
  // Each Copy node belongs to the component of exactly one root.
  for (NodeId v = 0; v < n; ++v) {
    if (res.output[static_cast<std::size_t>(v)] ==
        static_cast<int>(WeightOut::kCopy)) {
      EXPECT_NE(res.copy_root[static_cast<std::size_t>(v)],
                graph::kInvalidNode);
    }
  }
}

TEST(DFree, ViewRadiusIsLogarithmic) {
  auto inst = weight_tree_instance(10000, 5);
  const auto res = algo::run_dfree_algorithm_a(
      inst.tree, inst.participates, inst.is_a, 2, inst.tree.size());
  // 3*ceil(log_3(10000)) + 3 = 3*9 + 3 = 30.
  EXPECT_EQ(res.view_radius, 30);
}

// ---------------------------------------------------------------------------
// Differential: Algorithm A on the shared heavy-child-decline helper
// against the frozen per-A-node implementation with an n-sized map.
// ---------------------------------------------------------------------------

std::int64_t reference_ceil_log_base(std::int64_t n, std::int64_t base) {
  std::int64_t r = 0;
  std::int64_t v = 1;
  while (v < n) {
    v *= base;
    ++r;
  }
  return r;
}

/// Algorithm A before the shared helper, kept verbatim as the oracle.
algo::DFreeResult reference_algorithm_a(const Tree& tree,
                                        const std::vector<char>& participates,
                                        const std::vector<char>& is_a, int d,
                                        std::int64_t n_for_radius) {
  const NodeId n = tree.size();
  algo::DFreeResult res;
  res.output.assign(static_cast<std::size_t>(n), -1);
  res.copy_root.assign(static_cast<std::size_t>(n), graph::kInvalidNode);
  res.copy_depth.assign(static_cast<std::size_t>(n), -1);

  const std::int64_t logd = reference_ceil_log_base(n_for_radius, d + 1);
  const std::int64_t ball_radius = logd + 1;
  const std::int64_t connect_bound = 2 * logd + 2;
  res.view_radius = 3 * logd + 3;

  auto in = [&](NodeId v) {
    return participates[static_cast<std::size_t>(v)] != 0;
  };
  for (NodeId v = 0; v < n; ++v) {
    if (in(v)) {
      res.output[static_cast<std::size_t>(v)] =
          static_cast<int>(WeightOut::kDecline);
    }
  }
  algo::mark_connect_paths(tree, participates, is_a, connect_bound,
                           [&](NodeId v) {
                             res.output[static_cast<std::size_t>(v)] =
                                 static_cast<int>(WeightOut::kConnect);
                           });

  for (NodeId v = 0; v < n; ++v) {
    if (!in(v) || !is_a[static_cast<std::size_t>(v)]) continue;
    if (res.output[static_cast<std::size_t>(v)] ==
        static_cast<int>(WeightOut::kConnect)) {
      continue;
    }
    std::vector<NodeId> order;
    std::vector<NodeId> parent_of;
    std::vector<int> depth_of;
    std::vector<std::int64_t> ball_idx(static_cast<std::size_t>(n), -1);
    ball_idx[static_cast<std::size_t>(v)] = 0;
    order.push_back(v);
    parent_of.push_back(graph::kInvalidNode);
    depth_of.push_back(0);
    std::size_t head = 0;
    while (head < order.size()) {
      const NodeId u = order[head];
      const int du = depth_of[head];
      ++head;
      if (du == ball_radius) continue;
      for (NodeId w : tree.neighbors(u)) {
        if (!in(w) || ball_idx[static_cast<std::size_t>(w)] >= 0) continue;
        ball_idx[static_cast<std::size_t>(w)] =
            static_cast<std::int64_t>(order.size());
        order.push_back(w);
        parent_of.push_back(u);
        depth_of.push_back(du + 1);
      }
    }
    std::vector<std::int64_t> subtree(order.size(), 1);
    for (std::size_t i = order.size(); i-- > 1;) {
      const std::int64_t pi =
          ball_idx[static_cast<std::size_t>(parent_of[i])];
      subtree[static_cast<std::size_t>(pi)] += subtree[i];
    }
    std::vector<std::vector<std::size_t>> children(order.size());
    for (std::size_t i = 1; i < order.size(); ++i) {
      children[static_cast<std::size_t>(
                   ball_idx[static_cast<std::size_t>(parent_of[i])])]
          .push_back(i);
    }
    std::deque<std::size_t> q{0};
    res.output[static_cast<std::size_t>(v)] =
        static_cast<int>(WeightOut::kCopy);
    res.copy_root[static_cast<std::size_t>(v)] = v;
    res.copy_depth[static_cast<std::size_t>(v)] = 0;
    while (!q.empty()) {
      const std::size_t i = q.front();
      q.pop_front();
      auto kids = children[i];
      std::sort(kids.begin(), kids.end(),
                [&](std::size_t a, std::size_t b) {
                  return subtree[a] > subtree[b];
                });
      const std::size_t to_decline =
          std::min<std::size_t>(static_cast<std::size_t>(d), kids.size());
      for (std::size_t c = to_decline; c < kids.size(); ++c) {
        const std::size_t child = kids[c];
        const NodeId w = order[child];
        res.output[static_cast<std::size_t>(w)] =
            static_cast<int>(WeightOut::kCopy);
        res.copy_root[static_cast<std::size_t>(w)] = v;
        res.copy_depth[static_cast<std::size_t>(w)] = depth_of[child];
        q.push_back(child);
      }
    }
  }
  return res;
}

TEST(DFree, MatchesFrozenReferenceOnTieHeavyFamilies) {
  // Stars, spiders and d-ary trees are full of equal-size sibling
  // subtrees, so any drift in the heaviest-child tie-break shows up.
  std::int64_t copies = 0;
  for (const char* family : {"star", "spider", "dary", "galton_watson"}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::string(family) + " seed=" + std::to_string(seed));
      const Tree t = graph::make_family_instance(family, 1500, seed);
      const NodeId n = t.size();
      std::mt19937_64 rng(seed);
      for (const int d : {1, 2, 3}) {
        SCOPED_TRACE("d=" + std::to_string(d));
        const auto a_per_mille = 10 + rng() % 40;
        std::vector<char> part(static_cast<std::size_t>(n), 0);
        std::vector<char> is_a(static_cast<std::size_t>(n), 0);
        for (std::size_t v = 0; v < part.size(); ++v) {
          part[v] = seed % 2 == 0 || rng() % 100 >= 15;
          is_a[v] = part[v] && rng() % 1000 < a_per_mille;
        }
        const auto ref = reference_algorithm_a(t, part, is_a, d, n);
        const auto got = algo::run_dfree_algorithm_a(t, part, is_a, d, n);
        ASSERT_EQ(got.output, ref.output);
        ASSERT_EQ(got.copy_root, ref.copy_root);
        ASSERT_EQ(got.copy_depth, ref.copy_depth);
        ASSERT_EQ(got.view_radius, ref.view_radius);
        copies += std::count(got.output.begin(), got.output.end(),
                             static_cast<int>(WeightOut::kCopy));
      }
    }
  }
  EXPECT_GT(copies, 0);
}

}  // namespace
}  // namespace lcl
