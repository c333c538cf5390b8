// The adapted fast decomposition (Section 8.1): d-free validity of the
// planned outputs, the Corollary-47 geometric decay, and the Lemma-52
// pruning bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <random>
#include <stdexcept>
#include <string>

#include "algo/connect_paths.hpp"
#include "algo/fast_decomp.hpp"
#include "core/experiment.hpp"
#include "core/exponents.hpp"
#include "graph/builders.hpp"
#include "graph/families.hpp"
#include "problems/checkers.hpp"
#include "problems/labels.hpp"
#include "problems/levels.hpp"
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
  const auto keep =
      algo::prune_component(inst.tree, plan, 0, d, [&](NodeId u) {
        return declined[static_cast<std::size_t>(u)] != 0;
      });
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
// Differential: prune_component on the shared heavy-child-decline helper,
// with parents taken from the BFS member order and no node-indexed
// scratch, against the frozen implementation that allocated an n-sized
// member map per component.
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
      for (std::size_t c = 0; c < plan.components.size(); ++c) {
        std::vector<char> declined(n, 0);
        const auto declined_pct = rng() % 60;
        for (char& x : declined) x = rng() % 100 < declined_pct;
        const int comp = static_cast<int>(c);
        const auto got =
            algo::prune_component(t, plan, comp, d, [&](NodeId u) {
              return declined[static_cast<std::size_t>(u)] != 0;
            });
        ASSERT_EQ(got, reference_prune_component(t, plan, comp, d, declined));
        ++components;
      }
    }
  }
  EXPECT_GT(components, 50);
}

// ---------------------------------------------------------------------------
// Differential: the worklist planner with pooled kid lists against the
// whole-graph-scan planner with one kid vector per node, kept verbatim as
// the oracle.
// ---------------------------------------------------------------------------

namespace frozen {

using algo::mark_connect_paths;

constexpr int kEll = 3;            // relaxed compress threshold
constexpr int kRoundsPerIter = 3;  // engine rounds charged per iteration

/// Working state of the planner.
struct Planner {
  const Tree& tree;
  const std::vector<char>& participates;
  const std::vector<char>& is_a;
  int d;

  std::vector<char> alive;
  std::vector<char> assigned;
  std::vector<std::int64_t> layer_key;  // 2i rake / 2i+1 compress
  std::vector<std::vector<NodeId>> kids;  // oriented u -> kids[u]
  // Deferred orientation: when `pending_parent[c]` is assigned, the edge
  // pending_parent[c] -> c materializes (compress-endpoint boundary).
  std::vector<NodeId> pending_child;  // per node: child to adopt on assign
  // Early-resolution bookkeeping (the Corollary-47 decay mechanism; see
  // DESIGN.md Substitution 3): whether a node's oriented subtree contains
  // an input-A node, and how many early Declines each alive parent has
  // granted to its raked children (at most d-2, the Lemma-52 budget).
  std::vector<char> has_a_below;
  std::vector<int> early_declines;

  FastDecompPlan plan;

  explicit Planner(const Tree& t, const std::vector<char>& part,
                   const std::vector<char>& a, int d_param)
      : tree(t), participates(part), is_a(a), d(d_param) {
    const std::size_t n = static_cast<std::size_t>(t.size());
    alive.assign(n, 0);
    assigned.assign(n, 0);
    layer_key.assign(n, -1);
    kids.resize(n);
    pending_child.assign(n, graph::kInvalidNode);
    has_a_below.assign(n, 0);
    early_declines.assign(n, 0);
    plan.role.assign(n, FdaRole::kInactive);
    plan.ready_round.assign(n, 0);
    plan.comp.assign(n, -1);
    plan.comp_depth.assign(n, -1);
    plan.flood_parent_port.assign(n, -1);
  }

  [[nodiscard]] bool in(NodeId v) const {
    return participates[static_cast<std::size_t>(v)] != 0;
  }
  [[nodiscard]] bool has_output(NodeId v) const {
    const FdaRole r = plan.role[static_cast<std::size_t>(v)];
    return r != FdaRole::kInactive || !in(v);
  }

  /// Decline propagation: BFS over `kids` starting below each seed,
  /// skipping nodes that already carry an output (which also blocks the
  /// subtree behind them — an existing Copy component is sealed).
  void propagate_decline(const std::vector<NodeId>& seeds,
                         std::int64_t base_round) {
    std::deque<std::pair<NodeId, std::int64_t>> q;
    for (NodeId s : seeds) {
      if (!has_output(s)) {
        plan.role[static_cast<std::size_t>(s)] = FdaRole::kDecline;
        plan.ready_round[static_cast<std::size_t>(s)] = base_round;
      }
      if (plan.role[static_cast<std::size_t>(s)] == FdaRole::kDecline) {
        q.emplace_back(s, base_round);
      }
    }
    while (!q.empty()) {
      auto [u, r] = q.front();
      q.pop_front();
      for (NodeId w : kids[static_cast<std::size_t>(u)]) {
        if (has_output(w)) continue;
        plan.role[static_cast<std::size_t>(w)] = FdaRole::kDecline;
        plan.ready_round[static_cast<std::size_t>(w)] = r + 1;
        q.emplace_back(w, r + 1);
      }
    }
  }

  /// Copy propagation from a freshly assigned input-A node.
  void propagate_copy(NodeId root, std::int64_t base_round) {
    if (has_output(root)) {
      throw std::logic_error("fda: input-A node already has an output");
    }
    const auto comp = static_cast<std::int32_t>(plan.components.size());
    plan.role[static_cast<std::size_t>(root)] = FdaRole::kCopyRoot;
    plan.comp[static_cast<std::size_t>(root)] = comp;
    plan.comp_depth[static_cast<std::size_t>(root)] = 0;
    std::vector<NodeId> members{root};
    std::deque<NodeId> q{root};
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      for (NodeId w : kids[static_cast<std::size_t>(u)]) {
        if (has_output(w)) continue;
        plan.role[static_cast<std::size_t>(w)] = FdaRole::kCopyMember;
        plan.comp[static_cast<std::size_t>(w)] = comp;
        plan.comp_depth[static_cast<std::size_t>(w)] =
            plan.comp_depth[static_cast<std::size_t>(u)] + 1;
        const auto nb = tree.neighbors(w);
        for (std::size_t p = 0; p < nb.size(); ++p) {
          if (nb[p] == u) {
            plan.flood_parent_port[static_cast<std::size_t>(w)] =
                static_cast<int>(p);
          }
        }
        members.push_back(w);
        q.push_back(w);
      }
    }
    // BFS order: the last member is the deepest.
    const int max_depth =
        plan.comp_depth[static_cast<std::size_t>(members.back())];
    // rho_dec: assignment + collect the component topology (2 * depth).
    plan.ready_round[static_cast<std::size_t>(root)] =
        base_round + 2 * max_depth + 1;
    plan.components.push_back(std::move(members));
  }

  /// Marks `b` as a border node: it declines immediately (it is never an
  /// input-A node thanks to the distance-5 Connect pre-step).
  void make_border(NodeId b, std::int64_t round) {
    if (is_a[static_cast<std::size_t>(b)]) {
      throw std::logic_error("fda: input-A node bordered (pre-step broken)");
    }
    if (!has_output(b)) {
      plan.role[static_cast<std::size_t>(b)] = FdaRole::kDecline;
      plan.ready_round[static_cast<std::size_t>(b)] = round;
    }
    // Its subtree propagation happens when it gets assigned (rule 2),
    // which `on_assigned` triggers because its role is already kDecline.
  }

  /// Adopts a deferred compress-boundary child and refreshes the
  /// A-containment flag; call right after `v` is given a layer.
  void adopt_and_flag(NodeId v) {
    if (pending_child[static_cast<std::size_t>(v)] !=
        graph::kInvalidNode) {
      kids[static_cast<std::size_t>(v)].push_back(
          pending_child[static_cast<std::size_t>(v)]);
      pending_child[static_cast<std::size_t>(v)] = graph::kInvalidNode;
    }
    char flag = is_a[static_cast<std::size_t>(v)] ? 1 : 0;
    for (NodeId w : kids[static_cast<std::size_t>(v)]) {
      if (has_a_below[static_cast<std::size_t>(w)]) flag = 1;
    }
    has_a_below[static_cast<std::size_t>(v)] = flag;
  }

  /// Rule 2: bordered nodes propagate their Decline once assigned.
  void on_assigned(NodeId v, std::int64_t round) {
    if (plan.role[static_cast<std::size_t>(v)] == FdaRole::kDecline) {
      propagate_decline({v}, round);
    }
  }

  /// Early resolution (eager Lemma-52 pruning): a freshly raked node
  /// whose subtree is A-free may Decline immediately, provided its still-
  /// alive parent has granted fewer than d-2 such Declines. This yields
  /// the geometric decay of Corollary 47 with ratio ~ (Delta-d+1)/
  /// (Delta-1) while preserving every Copy node's Decline budget.
  void try_early_decline(NodeId v, NodeId parent, std::int64_t round) {
    if (has_output(v) || is_a[static_cast<std::size_t>(v)] ||
        has_a_below[static_cast<std::size_t>(v)]) {
      return;
    }
    if (parent == graph::kInvalidNode ||
        !alive[static_cast<std::size_t>(parent)] ||
        assigned[static_cast<std::size_t>(parent)]) {
      return;
    }
    if (early_declines[static_cast<std::size_t>(parent)] >= d - 2) return;
    ++early_declines[static_cast<std::size_t>(parent)];
    propagate_decline({v}, round);
  }
};

FastDecompPlan run_fast_decomposition(const Tree& tree,
                                      const std::vector<char>& participates,
                                      const std::vector<char>& is_a,
                                      int d, bool early_resolution) {
  if (d < 3) throw std::invalid_argument("fda: d >= 3 (Theorem 5)");
  const NodeId n = tree.size();
  Planner pl(tree, participates, is_a, d);

  // --- Pre-step: Connect paths between input-A nodes within distance 5.
  constexpr std::int64_t kBound = 5;
  mark_connect_paths(tree, participates, is_a, kBound, [&](NodeId v) {
    pl.plan.role[static_cast<std::size_t>(v)] = FdaRole::kConnect;
    pl.plan.ready_round[static_cast<std::size_t>(v)] = kBound + 1;
  });

  // Alive = participants that did not output Connect.
  std::int64_t alive_count = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (pl.in(v) &&
        pl.plan.role[static_cast<std::size_t>(v)] != FdaRole::kConnect) {
      pl.alive[static_cast<std::size_t>(v)] = 1;
      ++alive_count;
    }
  }
  auto alive_degree = [&](NodeId v) {
    int deg = 0;
    for (NodeId u : tree.neighbors(v)) {
      if (pl.alive[static_cast<std::size_t>(u)]) ++deg;
    }
    return deg;
  };

  int iter = 0;
  while (alive_count > 0) {
    ++iter;
    const std::int64_t round = kRoundsPerIter * iter;

    // ---- Rake step.
    std::vector<NodeId> rake_set;
    std::vector<char> in_rake(static_cast<std::size_t>(n), 0);
    for (NodeId v = 0; v < n; ++v) {
      if (pl.alive[static_cast<std::size_t>(v)] && alive_degree(v) <= 1) {
        rake_set.push_back(v);
        in_rake[static_cast<std::size_t>(v)] = 1;
      }
    }
    for (NodeId v : rake_set) {
      // Parent = the alive neighbor that stays (or the larger-id member
      // of a simultaneously raked pair).
      NodeId parent = graph::kInvalidNode;
      bool parent_raked_now = false;
      for (NodeId u : tree.neighbors(v)) {
        if (!pl.alive[static_cast<std::size_t>(u)]) continue;
        if (!in_rake[static_cast<std::size_t>(u)] ||
            tree.local_id(u) > tree.local_id(v)) {
          parent = u;
          parent_raked_now = in_rake[static_cast<std::size_t>(u)] != 0;
        }
      }
      pl.assigned[static_cast<std::size_t>(v)] = 1;
      pl.layer_key[static_cast<std::size_t>(v)] = 2 * iter;
      if (parent != graph::kInvalidNode) {
        pl.kids[static_cast<std::size_t>(parent)].push_back(v);
      }
      pl.adopt_and_flag(v);
      // Adapted rule 1, rake case.
      if (is_a[static_cast<std::size_t>(v)] && !pl.has_output(v)) {
        if (parent != graph::kInvalidNode &&
            !pl.assigned[static_cast<std::size_t>(parent)]) {
          pl.make_border(parent, round);
        }
        pl.propagate_copy(v, round);
      } else if (early_resolution && !parent_raked_now) {
        pl.try_early_decline(v, parent, round);
      }
      pl.on_assigned(v, round);
    }
    for (NodeId v : rake_set) {
      pl.alive[static_cast<std::size_t>(v)] = 0;
    }
    alive_count -= static_cast<std::int64_t>(rake_set.size());

    // ---- Relaxed compress step (ell = 3).
    std::vector<char> is_chain(static_cast<std::size_t>(n), 0);
    for (NodeId v = 0; v < n; ++v) {
      if (pl.alive[static_cast<std::size_t>(v)] && alive_degree(v) == 2) {
        is_chain[static_cast<std::size_t>(v)] = 1;
      }
    }
    std::vector<char> visited(static_cast<std::size_t>(n), 0);
    for (NodeId v = 0; v < n; ++v) {
      if (!is_chain[static_cast<std::size_t>(v)] ||
          visited[static_cast<std::size_t>(v)]) {
        continue;
      }
      int chain_neighbors = 0;
      for (NodeId u : tree.neighbors(v)) {
        if (pl.alive[static_cast<std::size_t>(u)] &&
            is_chain[static_cast<std::size_t>(u)]) {
          ++chain_neighbors;
        }
      }
      if (chain_neighbors == 2) continue;  // interior; find an end first
      // Walk the maximal chain from this end.
      std::vector<NodeId> chain;
      NodeId prev = graph::kInvalidNode;
      NodeId cur = v;
      while (cur != graph::kInvalidNode) {
        visited[static_cast<std::size_t>(cur)] = 1;
        chain.push_back(cur);
        NodeId next = graph::kInvalidNode;
        for (NodeId u : tree.neighbors(cur)) {
          if (u != prev && pl.alive[static_cast<std::size_t>(u)] &&
              is_chain[static_cast<std::size_t>(u)] &&
              !visited[static_cast<std::size_t>(u)]) {
            next = u;
          }
        }
        prev = cur;
        cur = next;
      }
      const std::int64_t len = static_cast<std::int64_t>(chain.size());
      if (len < kEll) continue;  // stays alive; rakes away later

      // Assign + orient. Inward orientation: the first min(ell, (len-1)/2)
      // edges from each end point toward the interior; deeper edges stay
      // unoriented (Observation 46.4).
      for (NodeId c : chain) {
        pl.assigned[static_cast<std::size_t>(c)] = 1;
        pl.layer_key[static_cast<std::size_t>(c)] = 2 * iter + 1;
      }
      const std::int64_t inward =
          std::min<std::int64_t>(kEll, (len - 1) / 2);
      for (std::int64_t e = 0; e < inward; ++e) {
        pl.kids[static_cast<std::size_t>(chain[static_cast<std::size_t>(e)])]
            .push_back(chain[static_cast<std::size_t>(e + 1)]);
        pl.kids[static_cast<std::size_t>(
                    chain[static_cast<std::size_t>(len - 1 - e)])]
            .push_back(chain[static_cast<std::size_t>(len - 2 - e)]);
      }
      // Adopt deferred children and settle A-containment flags; the
      // inward chain-kid relation has depth <= ell, so ell+1 passes
      // converge.
      for (int pass = 0; pass <= kEll; ++pass) {
        for (NodeId c : chain) pl.adopt_and_flag(c);
      }
      // Boundary edges: the outer alive neighbor of each chain end adopts
      // the endpoint as a deferred child once it is itself assigned.
      for (int side = 0; side < 2; ++side) {
        const NodeId end = side == 0 ? chain.front() : chain.back();
        for (NodeId h : tree.neighbors(end)) {
          if (pl.alive[static_cast<std::size_t>(h)] &&
              !is_chain[static_cast<std::size_t>(h)]) {
            pl.pending_child[static_cast<std::size_t>(h)] = end;
          }
        }
      }

      // Adapted rule 1, compress case: input-A chain nodes first.
      for (std::int64_t i = 0; i < len; ++i) {
        const NodeId c = chain[static_cast<std::size_t>(i)];
        if (!is_a[static_cast<std::size_t>(c)] || pl.has_output(c)) continue;
        // Border the <= 2 same-chain / still-alive neighbors.
        for (NodeId u : tree.neighbors(c)) {
          const bool same_chain =
              is_chain[static_cast<std::size_t>(u)] &&
              pl.layer_key[static_cast<std::size_t>(u)] == 2 * iter + 1;
          const bool unassigned =
              pl.alive[static_cast<std::size_t>(u)] &&
              !pl.assigned[static_cast<std::size_t>(u)];
          if (same_chain || unassigned) pl.make_border(u, round);
        }
        pl.propagate_copy(c, round);
      }
      // Rule 4: nodes at distance >= ell from both chain ends decline.
      std::vector<NodeId> mid;
      for (std::int64_t i = kEll; i < len - kEll; ++i) {
        mid.push_back(chain[static_cast<std::size_t>(i)]);
      }
      pl.propagate_decline(mid, round);
      // Rule 2 for freshly assigned bordered chain nodes.
      for (NodeId c : chain) pl.on_assigned(c, round);

      for (NodeId c : chain) pl.alive[static_cast<std::size_t>(c)] = 0;
      alive_count -= len;
    }

    // ---- Rule 3: local maxima among assigned, output-free nodes.
    std::vector<NodeId> maxima;
    for (NodeId v = 0; v < n; ++v) {
      if (!pl.in(v) || !pl.assigned[static_cast<std::size_t>(v)] ||
          pl.has_output(v)) {
        continue;
      }
      bool is_max = true;
      for (NodeId u : tree.neighbors(v)) {
        if (!pl.in(u)) continue;
        if (pl.plan.role[static_cast<std::size_t>(u)] == FdaRole::kConnect) {
          continue;
        }
        if (!pl.assigned[static_cast<std::size_t>(u)] ||
            pl.layer_key[static_cast<std::size_t>(u)] >=
                pl.layer_key[static_cast<std::size_t>(v)]) {
          is_max = false;
          break;
        }
      }
      if (is_max) maxima.push_back(v);
    }
    pl.propagate_decline(maxima, round);

    if (iter > 4 * n + 8) {
      throw std::logic_error("fda: failed to converge");
    }
    std::int64_t unfinished = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (pl.in(v) && !pl.has_output(v)) ++unfinished;
    }
    pl.plan.unfinished_after_iteration.push_back(unfinished);
  }

  // ---- Cleanup: everything is assigned; resolve leftovers by repeated
  // local-maxima passes, then a final forced Decline (nodes isolated from
  // any oriented path, e.g. short-chain middles).
  const std::int64_t final_round = kRoundsPerIter * (iter + 1);
  for (;;) {
    std::vector<NodeId> maxima;
    for (NodeId v = 0; v < n; ++v) {
      if (!pl.in(v) || pl.has_output(v)) continue;
      bool is_max = true;
      for (NodeId u : tree.neighbors(v)) {
        if (!pl.in(u)) continue;
        if (pl.plan.role[static_cast<std::size_t>(u)] == FdaRole::kConnect) {
          continue;
        }
        if (pl.layer_key[static_cast<std::size_t>(u)] >=
            pl.layer_key[static_cast<std::size_t>(v)]) {
          is_max = false;
          break;
        }
      }
      if (is_max) maxima.push_back(v);
    }
    if (maxima.empty()) break;
    pl.propagate_decline(maxima, final_round);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (pl.in(v) && !pl.has_output(v)) {
      pl.plan.role[static_cast<std::size_t>(v)] = FdaRole::kDecline;
      pl.plan.ready_round[static_cast<std::size_t>(v)] = final_round + 1;
    }
  }

  pl.plan.iterations = iter;
  return pl.plan;
}

}  // namespace frozen

/// Every field of two plans, components in order.
void expect_same_plan(const FastDecompPlan& got, const FastDecompPlan& ref) {
  EXPECT_EQ(got.role, ref.role);
  EXPECT_EQ(got.ready_round, ref.ready_round);
  EXPECT_EQ(got.comp, ref.comp);
  EXPECT_EQ(got.comp_depth, ref.comp_depth);
  EXPECT_EQ(got.flood_parent_port, ref.flood_parent_port);
  EXPECT_EQ(got.components, ref.components);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.unfinished_after_iteration, ref.unfinished_after_iteration);
}

TEST(FastDecomp, PlanMatchesFrozenReferenceOnDefinition25) {
  struct Shape {
    int delta, d, k;
  };
  for (const Shape s : {Shape{6, 3, 2}, Shape{6, 3, 3}, Shape{9, 5, 2}}) {
    const auto ell = core::lower_bound_lengths(
        core::alpha_profile_logstar(core::efficiency_x_prime(s.delta, s.d),
                                    s.k),
        16.0, 20000);
    auto inst = graph::make_weighted_construction(ell, s.delta);
    graph::assign_ids(inst.tree, graph::IdScheme::kShuffled,
                      static_cast<std::uint64_t>(s.delta + s.k));
    const problems::WeightSubgraph w = problems::weight_subgraph(inst.tree);
    for (const bool early : {true, false}) {
      SCOPED_TRACE("delta=" + std::to_string(s.delta) +
                   " d=" + std::to_string(s.d) + " k=" +
                   std::to_string(s.k) + " early=" + std::to_string(early));
      const FastDecompPlan ref = frozen::run_fast_decomposition(
          inst.tree, w.participates, w.is_a, s.d, early);
      ASSERT_FALSE(ref.components.empty());
      expect_same_plan(algo::run_fast_decomposition(
                           inst.tree, w.participates, w.is_a, s.d, early),
                       ref);
    }
  }
}

}  // namespace
}  // namespace lcl
