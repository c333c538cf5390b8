// The adapted fast decomposition (Section 8.1): d-free validity of the
// planned outputs, the Corollary-47 geometric decay, and the Lemma-52
// pruning bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <random>
#include <string>

#include "algo/fast_decomp.hpp"
#include "core/exponents.hpp"
#include "graph/builders.hpp"
#include "graph/families.hpp"
#include "problems/checkers.hpp"
#include "problems/labels.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using algo::FastDecompPlan;
using algo::FdaRole;
using graph::NodeId;
using graph::Tree;
using problems::WeightOut;

/// Projects a plan (with every component fully kept) to d-free outputs.
std::vector<int> plan_outputs(const FastDecompPlan& plan, NodeId n) {
  std::vector<int> out(static_cast<std::size_t>(n), -1);
  for (NodeId v = 0; v < n; ++v) {
    switch (plan.role[static_cast<std::size_t>(v)]) {
      case FdaRole::kInactive:
        break;
      case FdaRole::kConnect:
        out[static_cast<std::size_t>(v)] =
            static_cast<int>(WeightOut::kConnect);
        break;
      case FdaRole::kDecline:
        out[static_cast<std::size_t>(v)] =
            static_cast<int>(WeightOut::kDecline);
        break;
      case FdaRole::kCopyRoot:
      case FdaRole::kCopyMember:
        out[static_cast<std::size_t>(v)] =
            static_cast<int>(WeightOut::kCopy);
        break;
    }
  }
  return out;
}

struct Instance {
  Tree tree;
  std::vector<char> part;
  std::vector<char> is_a;
};

Instance balanced_instance(NodeId w, int delta) {
  Instance inst;
  inst.tree = graph::make_balanced_weight_tree(w, delta);
  inst.part.assign(static_cast<std::size_t>(w), 1);
  inst.is_a.assign(static_cast<std::size_t>(w), 0);
  inst.is_a[0] = 1;
  inst.tree.set_input(0, static_cast<int>(problems::DFreeInput::kA));
  for (NodeId v = 1; v < w; ++v) {
    inst.tree.set_input(v, static_cast<int>(problems::DFreeInput::kW));
  }
  return inst;
}

TEST(FastDecomp, ValidOnBalancedWeightTree) {
  for (int d : {3, 4}) {
    auto inst = balanced_instance(2000, d + 4);
    const auto plan = algo::run_fast_decomposition(inst.tree, inst.part,
                                                   inst.is_a, d);
    const auto out = plan_outputs(plan, inst.tree.size());
    test::assert_valid(problems::check_dfree_weight(inst.tree, d, out));
    // Exactly one Copy component rooted at the A node.
    EXPECT_EQ(plan.components.size(), 1u);
    EXPECT_EQ(plan.role[0], FdaRole::kCopyRoot);
  }
}

TEST(FastDecomp, ValidOnPathsAndCaterpillars) {
  // Long paths exercise the compress machinery.
  for (NodeId n : {50, 500}) {
    Tree t = graph::make_path(n);
    std::vector<char> part(static_cast<std::size_t>(n), 1);
    std::vector<char> is_a(static_cast<std::size_t>(n), 0);
    is_a[0] = 1;
    for (NodeId v = 0; v < n; ++v) {
      t.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                          ? problems::DFreeInput::kA
                                          : problems::DFreeInput::kW));
    }
    const auto plan = algo::run_fast_decomposition(t, part, is_a, 3);
    const auto out = plan_outputs(plan, n);
    test::assert_valid(problems::check_dfree_weight(t, 3, out));
  }
  Tree cat = graph::make_caterpillar(100, 2);
  const NodeId n = cat.size();
  std::vector<char> part(static_cast<std::size_t>(n), 1);
  std::vector<char> is_a(static_cast<std::size_t>(n), 0);
  is_a[static_cast<std::size_t>(n - 1)] = 1;
  for (NodeId v = 0; v < n; ++v) {
    cat.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                          ? problems::DFreeInput::kA
                                          : problems::DFreeInput::kW));
  }
  const auto plan = algo::run_fast_decomposition(cat, part, is_a, 3);
  test::assert_valid(
      problems::check_dfree_weight(cat, 3, plan_outputs(plan, n)));
}

TEST(FastDecomp, ValidOnRandomTrees) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Tree t = graph::make_random_tree(1500, 6, seed);
    const NodeId n = t.size();
    std::vector<char> part(static_cast<std::size_t>(n), 1);
    std::vector<char> is_a(static_cast<std::size_t>(n), 0);
    is_a[0] = 1;
    is_a[static_cast<std::size_t>(n / 3)] = 1;
    is_a[static_cast<std::size_t>(2 * n / 3)] = 1;
    for (NodeId v = 0; v < n; ++v) {
      t.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                          ? problems::DFreeInput::kA
                                          : problems::DFreeInput::kW));
    }
    const auto plan = algo::run_fast_decomposition(t, part, is_a, 3);
    const auto out = plan_outputs(plan, n);
    const auto check = problems::check_dfree_weight(t, 3, out);
    ASSERT_TRUE(check.ok) << check.reason << " (seed " << seed << ")";
  }
}

TEST(FastDecomp, GeometricDecay) {
  // Corollary 47: unfinished nodes decay geometrically with iterations.
  Tree t = graph::make_random_tree(20000, 4, 5);
  const NodeId n = t.size();
  std::vector<char> part(static_cast<std::size_t>(n), 1);
  std::vector<char> is_a(static_cast<std::size_t>(n), 0);
  is_a[0] = 1;
  for (NodeId v = 0; v < n; ++v) {
    t.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                        ? problems::DFreeInput::kA
                                        : problems::DFreeInput::kW));
  }
  const auto plan = algo::run_fast_decomposition(t, part, is_a, 3);
  const auto& decay = plan.unfinished_after_iteration;
  ASSERT_GE(decay.size(), 3u);
  // Sum of unfinished counts across iterations is O(n): this is exactly
  // the O(1) node-averaged charge of Lemma 56.
  std::int64_t total = 0;
  for (std::int64_t c : decay) total += c;
  EXPECT_LT(total, 8 * static_cast<std::int64_t>(n));
  // And the tail is small: after 3/4 of iterations, < 10% remains.
  const std::size_t i34 = decay.size() * 3 / 4;
  EXPECT_LT(decay[i34], n / 10);
}

TEST(FastDecomp, PruningBoundLemma52) {
  // |C'(v)| <= 2 |C(v)|^{x'} on balanced weight trees.
  const int delta = 7, d = 3;
  auto inst = balanced_instance(5000, delta);
  const auto plan = algo::run_fast_decomposition(inst.tree, inst.part,
                                                 inst.is_a, d);
  ASSERT_EQ(plan.components.size(), 1u);
  std::vector<char> declined(static_cast<std::size_t>(inst.tree.size()),
                             0);
  for (NodeId v = 0; v < inst.tree.size(); ++v) {
    if (plan.role[static_cast<std::size_t>(v)] == FdaRole::kDecline) {
      declined[static_cast<std::size_t>(v)] = 1;
    }
  }
  std::vector<std::int32_t> member_idx(declined.size(), -1);
  const auto keep =
      algo::prune_component(inst.tree, plan, 0, d, declined, member_idx);
  std::int64_t kept = 0;
  for (char k : keep) kept += (k != 0);
  const double xp = core::efficiency_x_prime(delta, d);
  const double csize =
      static_cast<double>(plan.components[0].size());
  EXPECT_LE(static_cast<double>(kept), 2.0 * std::pow(csize, xp) + 1.0);
  EXPECT_GE(kept, 1);  // the root always stays

  // Pruned outputs remain d-free valid.
  auto out = plan_outputs(plan, inst.tree.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    if (!keep[i]) {
      out[static_cast<std::size_t>(plan.components[0][i])] =
          static_cast<int>(WeightOut::kDecline);
    }
  }
  test::assert_valid(problems::check_dfree_weight(inst.tree, d, out));
}

TEST(FastDecomp, CloseANodesConnect) {
  // Two A nodes 3 apart on a path: the pre-step connects them.
  const NodeId n = 40;
  Tree t = graph::make_path(n);
  std::vector<char> part(static_cast<std::size_t>(n), 1);
  std::vector<char> is_a(static_cast<std::size_t>(n), 0);
  is_a[10] = is_a[13] = 1;
  for (NodeId v = 0; v < n; ++v) {
    t.set_input(v, static_cast<int>(is_a[static_cast<std::size_t>(v)]
                                        ? problems::DFreeInput::kA
                                        : problems::DFreeInput::kW));
  }
  const auto plan = algo::run_fast_decomposition(t, part, is_a, 3);
  for (NodeId v = 10; v <= 13; ++v) {
    EXPECT_EQ(plan.role[static_cast<std::size_t>(v)], FdaRole::kConnect);
  }
  test::assert_valid(
      problems::check_dfree_weight(t, 3, plan_outputs(plan, n)));
}

// ---------------------------------------------------------------------------
// Differential: prune_component on the shared heavy-child-decline helper
// and a caller-owned scratch, against the frozen implementation that
// allocated an n-sized member map per component.
// ---------------------------------------------------------------------------

/// prune_component before the shared helper, kept verbatim as the oracle.
std::vector<char> reference_prune_component(
    const Tree& tree, const FastDecompPlan& plan, int comp, int d,
    const std::vector<char>& is_declined) {
  const auto& members = plan.components[static_cast<std::size_t>(comp)];
  const std::size_t m = members.size();
  std::vector<std::int64_t> member_idx(
      static_cast<std::size_t>(tree.size()), -1);
  for (std::size_t i = 0; i < m; ++i) {
    member_idx[static_cast<std::size_t>(members[i])] =
        static_cast<std::int64_t>(i);
  }
  std::vector<std::vector<std::size_t>> children(m);
  for (std::size_t i = 1; i < m; ++i) {
    const NodeId v = members[i];
    const int pp = plan.flood_parent_port[static_cast<std::size_t>(v)];
    const NodeId parent = tree.neighbors(v)[static_cast<std::size_t>(pp)];
    children[static_cast<std::size_t>(
                 member_idx[static_cast<std::size_t>(parent)])]
        .push_back(i);
  }
  std::vector<std::int64_t> subtree(m, 1);
  for (std::size_t i = m; i-- > 1;) {
    const NodeId v = members[i];
    const int pp = plan.flood_parent_port[static_cast<std::size_t>(v)];
    const NodeId parent = tree.neighbors(v)[static_cast<std::size_t>(pp)];
    subtree[static_cast<std::size_t>(
        member_idx[static_cast<std::size_t>(parent)])] += subtree[i];
  }
  std::vector<char> keep(m, 0);
  keep[0] = 1;
  std::deque<std::size_t> q{0};
  while (!q.empty()) {
    const std::size_t i = q.front();
    q.pop_front();
    int declined_neighbors = 0;
    for (NodeId u : tree.neighbors(members[i])) {
      if (member_idx[static_cast<std::size_t>(u)] < 0 &&
          is_declined[static_cast<std::size_t>(u)]) {
        ++declined_neighbors;
      }
    }
    auto kids = children[i];
    std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
      return subtree[a] > subtree[b];
    });
    const int can_prune = std::max(0, d - declined_neighbors);
    const std::size_t pruned = std::min<std::size_t>(
        static_cast<std::size_t>(can_prune), kids.size());
    for (std::size_t c = pruned; c < kids.size(); ++c) {
      keep[kids[c]] = 1;
      q.push_back(kids[c]);
    }
  }
  return keep;
}

TEST(FastDecomp, PruneMatchesFrozenReferenceOnTieHeavyFamilies) {
  std::int64_t components = 0;
  for (const char* family : {"star", "spider", "dary", "galton_watson"}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(std::string(family) + " seed=" + std::to_string(seed));
      const Tree t = graph::make_family_instance(family, 2000, seed);
      const auto n = static_cast<std::size_t>(t.size());
      std::mt19937_64 rng(seed);
      std::vector<char> part(n, 0);
      std::vector<char> is_a(n, 0);
      for (std::size_t v = 0; v < n; ++v) {
        part[v] = seed % 2 == 0 || rng() % 10 != 0;
        is_a[v] = part[v] && rng() % 50 == 0;
      }
      const int d = 3 + static_cast<int>(seed % 2);
      const auto plan =
          algo::run_fast_decomposition(t, part, is_a, d, seed <= 4);
      // One scratch across every component, as Pi35Program holds it.
      std::vector<std::int32_t> member_idx(n, -1);
      for (std::size_t c = 0; c < plan.components.size(); ++c) {
        std::vector<char> declined(n, 0);
        const auto declined_pct = rng() % 60;
        for (char& x : declined) x = rng() % 100 < declined_pct;
        const int comp = static_cast<int>(c);
        const auto got =
            algo::prune_component(t, plan, comp, d, declined, member_idx);
        ASSERT_EQ(got, reference_prune_component(t, plan, comp, d, declined));
        ASSERT_EQ(std::count(member_idx.begin(), member_idx.end(), -1),
                  static_cast<std::ptrdiff_t>(n));
        ++components;
      }
    }
  }
  EXPECT_GT(components, 50);
}

}  // namespace
}  // namespace lcl
