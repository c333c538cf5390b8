#include "algo/fast_decomp.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "algo/connect_paths.hpp"
#include "algo/heavy_decline.hpp"

namespace lcl::algo {

namespace {

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
    plan.comp_root.assign(n, graph::kInvalidNode);
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
    plan.role[static_cast<std::size_t>(root)] = FdaRole::kCopyRoot;
    plan.comp_root[static_cast<std::size_t>(root)] = root;
    plan.comp_depth[static_cast<std::size_t>(root)] = 0;
    std::vector<NodeId> members{root};
    std::deque<NodeId> q{root};
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      for (NodeId w : kids[static_cast<std::size_t>(u)]) {
        if (has_output(w)) continue;
        plan.role[static_cast<std::size_t>(w)] = FdaRole::kCopyMember;
        plan.comp_root[static_cast<std::size_t>(w)] = root;
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
    plan.comp_of_root[static_cast<std::size_t>(root)] =
        static_cast<int>(plan.components.size());
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

}  // namespace

FastDecompPlan run_fast_decomposition(const Tree& tree,
                                      const std::vector<char>& participates,
                                      const std::vector<char>& is_a,
                                      int d, bool early_resolution) {
  if (d < 3) throw std::invalid_argument("fda: d >= 3 (Theorem 5)");
  const NodeId n = tree.size();
  Planner pl(tree, participates, is_a, d);
  pl.plan.comp_of_root.assign(static_cast<std::size_t>(n), -1);

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

std::vector<char> prune_component(const Tree& tree,
                                  const FastDecompPlan& plan, int comp,
                                  int d,
                                  const std::vector<char>& is_declined,
                                  std::vector<std::int32_t>& member_idx) {
  const auto& members = plan.components[static_cast<std::size_t>(comp)];
  const std::size_t m = members.size();
  for (std::size_t i = 0; i < m; ++i) {
    member_idx[static_cast<std::size_t>(members[i])] =
        static_cast<std::int32_t>(i);
  }
  // Parent within the component (the flood_parent_port target) and the
  // Decline budget: d minus the neighbors that already decline (outside
  // the component or previously pruned).
  std::vector<std::size_t> parent(m, 0);
  std::vector<int> budget(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const auto nb = tree.neighbors(members[i]);
    if (i > 0) {
      const int pp =
          plan.flood_parent_port[static_cast<std::size_t>(members[i])];
      const NodeId p = nb[static_cast<std::size_t>(pp)];
      const std::int32_t pi = member_idx[static_cast<std::size_t>(p)];
      parent[i] = static_cast<std::size_t>(pi);
    }
    int declined_neighbors = 0;
    for (NodeId u : nb) {
      if (member_idx[static_cast<std::size_t>(u)] < 0 &&
          is_declined[static_cast<std::size_t>(u)]) {
        ++declined_neighbors;
      }
    }
    budget[i] = std::max(0, d - declined_neighbors);
  }
  for (NodeId v : members) member_idx[static_cast<std::size_t>(v)] = -1;
  // The input-A root always stays Copy; pruned subtrees become Decline.
  return heavy_child_decline(parent, budget);
}

}  // namespace lcl::algo
