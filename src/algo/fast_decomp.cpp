#include "algo/fast_decomp.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

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

  // Per-node marks, one bit each in one byte: the planner's scratch is
  // per node, so it is part of the factory's bytes per node.
  enum Mark : std::uint8_t {
    kAlive = 1,
    kAssigned = 2,
    kHasABelow = 4,  // the oriented subtree contains an input-A node
    kInRake = 8,     // raked in the current iteration
    kIsChain = 16,   // alive degree 2 in the current iteration
    kVisited = 32,   // walked by the current compress step
  };
  std::vector<std::uint8_t> marks;
  // 2i rake / 2i+1 compress; iterations are O(log n), so int32 holds it.
  std::vector<std::int32_t> layer_key;
  // Oriented edges u -> w as ordered sibling lists in one edge pool: u's
  // kids run from edge first_kid[u] along `next`, in adoption order. The
  // lists thread through edges, not nodes, because the middle node of an
  // odd compress chain (length 3, 5 or 7) is oriented inward from both
  // ends and so sits in two lists.
  struct KidEdge {
    NodeId kid;
    std::int32_t next;  // next edge of the same parent, or -1
  };
  std::vector<KidEdge> kid_edges;
  std::vector<std::int32_t> first_kid;  // per node: edge index, or -1
  std::vector<std::int32_t> last_kid;
  // Deferred orientation: when `pending_parent[c]` is assigned, the edge
  // pending_parent[c] -> c materializes (compress-endpoint boundary).
  std::vector<NodeId> pending_child;  // per node: child to adopt on assign
  // Early-resolution bookkeeping (the Corollary-47 decay mechanism; see
  // DESIGN.md Substitution 3): with the kHasABelow mark, how many early
  // Declines each alive parent has granted to its raked children (at
  // most d-2, the Lemma-52 budget; d <= 257 keeps that in a byte).
  std::vector<std::uint8_t> early_declines;
  // FIFO of every Decline propagation: (node, its Decline round).
  std::vector<std::pair<NodeId, std::int32_t>> fifo;

  FastDecompPlan plan;

  explicit Planner(const Tree& t, const std::vector<char>& part,
                   const std::vector<char>& a, int d_param)
      : tree(t), participates(part), is_a(a), d(d_param) {
    const std::size_t n = static_cast<std::size_t>(t.size());
    marks.assign(n, 0);
    layer_key.assign(n, -1);
    // Room for one oriented edge per tree edge between participants.
    kid_edges.reserve(static_cast<std::size_t>(
        std::count_if(part.begin(), part.end(), [](char c) { return c; })));
    first_kid.assign(n, -1);
    last_kid.assign(n, -1);
    pending_child.assign(n, graph::kInvalidNode);
    early_declines.assign(n, 0);
    plan.role.assign(n, FdaRole::kInactive);
    plan.ready_round.assign(n, 0);
    plan.comp.assign(n, -1);
    plan.comp_depth.assign(n, -1);
    plan.flood_parent_port.assign(n, -1);
  }

  [[nodiscard]] bool is(NodeId v, Mark m) const {
    return (marks[static_cast<std::size_t>(v)] & m) != 0;
  }
  void set(NodeId v, Mark m) { marks[static_cast<std::size_t>(v)] |= m; }
  void clear(NodeId v, Mark m) {
    marks[static_cast<std::size_t>(v)] &= static_cast<std::uint8_t>(~m);
  }

  [[nodiscard]] bool in(NodeId v) const {
    return participates[static_cast<std::size_t>(v)] != 0;
  }
  [[nodiscard]] bool has_output(NodeId v) const {
    const FdaRole r = plan.role[static_cast<std::size_t>(v)];
    return r != FdaRole::kInactive || !in(v);
  }

  /// Gives v its output role, ready at `round`.
  void decide(NodeId v, FdaRole role, std::int64_t round) {
    plan.role[static_cast<std::size_t>(v)] = role;
    plan.ready_round[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(round);
  }

  /// Orients `parent` -> `child`, appending `child` to parent's kids.
  void adopt(NodeId parent, NodeId child) {
    const auto e = static_cast<std::int32_t>(kid_edges.size());
    kid_edges.push_back({child, -1});
    const auto p = static_cast<std::size_t>(parent);
    if (last_kid[p] < 0) {
      first_kid[p] = e;
    } else {
      kid_edges[static_cast<std::size_t>(last_kid[p])].next = e;
    }
    last_kid[p] = e;
  }

  /// Calls `f(w)` for each kid w of u, in adoption order.
  template <typename F>
  void for_each_kid(NodeId u, F&& f) const {
    for (std::int32_t e = first_kid[static_cast<std::size_t>(u)]; e >= 0;
         e = kid_edges[static_cast<std::size_t>(e)].next) {
      f(kid_edges[static_cast<std::size_t>(e)].kid);
    }
  }

  /// Decline propagation: BFS over the kids starting below each seed,
  /// skipping nodes that already carry an output (which also blocks the
  /// subtree behind them — an existing Copy component is sealed).
  void propagate_decline(std::span<const NodeId> seeds,
                         std::int64_t base_round) {
    fifo.clear();
    for (NodeId s : seeds) {
      if (!has_output(s)) decide(s, FdaRole::kDecline, base_round);
      if (plan.role[static_cast<std::size_t>(s)] == FdaRole::kDecline) {
        fifo.emplace_back(s, static_cast<std::int32_t>(base_round));
      }
    }
    for (std::size_t head = 0; head < fifo.size(); ++head) {
      const NodeId u = fifo[head].first;
      const std::int64_t r = fifo[head].second;
      for_each_kid(u, [&](NodeId w) {
        if (has_output(w)) return;
        decide(w, FdaRole::kDecline, r + 1);
        fifo.emplace_back(w, static_cast<std::int32_t>(r + 1));
      });
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
    // The member list, in BFS order, is its own BFS queue.
    std::vector<NodeId> members{root};
    for (std::size_t head = 0; head < members.size(); ++head) {
      const NodeId u = members[head];
      for_each_kid(u, [&](NodeId w) {
        if (has_output(w)) return;
        plan.role[static_cast<std::size_t>(w)] = FdaRole::kCopyMember;
        plan.comp[static_cast<std::size_t>(w)] = comp;
        const int depth = plan.comp_depth[static_cast<std::size_t>(u)] + 1;
        if (depth > std::numeric_limits<std::int16_t>::max()) {
          throw std::length_error("fda: component depth does not fit int16");
        }
        plan.comp_depth[static_cast<std::size_t>(w)] =
            static_cast<std::int16_t>(depth);
        const auto nb = tree.neighbors(w);
        for (std::size_t p = 0; p < nb.size(); ++p) {
          if (nb[p] != u) continue;
          if (p > static_cast<std::size_t>(
                      std::numeric_limits<std::int16_t>::max())) {
            throw std::length_error("fda: flood port does not fit int16");
          }
          plan.flood_parent_port[static_cast<std::size_t>(w)] =
              static_cast<std::int16_t>(p);
        }
        members.push_back(w);
      });
    }
    // BFS order: the last member is the deepest.
    const int max_depth =
        plan.comp_depth[static_cast<std::size_t>(members.back())];
    // rho_dec: assignment + collect the component topology (2 * depth).
    plan.ready_round[static_cast<std::size_t>(root)] =
        static_cast<std::int32_t>(base_round + 2 * max_depth + 1);
    plan.components.push_back(std::move(members));
  }

  /// Marks `b` as a border node: it declines immediately (it is never an
  /// input-A node thanks to the distance-5 Connect pre-step).
  void make_border(NodeId b, std::int64_t round) {
    if (is_a[static_cast<std::size_t>(b)]) {
      throw std::logic_error("fda: input-A node bordered (pre-step broken)");
    }
    if (!has_output(b)) decide(b, FdaRole::kDecline, round);
    // Its subtree propagation happens when it gets assigned (rule 2),
    // which `on_assigned` triggers because its role is already kDecline.
  }

  /// Adopts a deferred compress-boundary child and refreshes the
  /// A-containment flag; call right after `v` is given a layer.
  void adopt_and_flag(NodeId v) {
    if (pending_child[static_cast<std::size_t>(v)] !=
        graph::kInvalidNode) {
      adopt(v, pending_child[static_cast<std::size_t>(v)]);
      pending_child[static_cast<std::size_t>(v)] = graph::kInvalidNode;
    }
    bool flag = is_a[static_cast<std::size_t>(v)] != 0;
    for_each_kid(v, [&](NodeId w) { flag = flag || is(w, kHasABelow); });
    if (flag) {
      set(v, kHasABelow);
    } else {
      clear(v, kHasABelow);
    }
  }

  /// Rule 2: bordered nodes propagate their Decline once assigned.
  void on_assigned(NodeId v, std::int64_t round) {
    if (plan.role[static_cast<std::size_t>(v)] == FdaRole::kDecline) {
      propagate_decline(std::span(&v, 1), round);
    }
  }

  /// Early resolution (eager Lemma-52 pruning): a freshly raked node
  /// whose subtree is A-free may Decline immediately, provided its still-
  /// alive parent has granted fewer than d-2 such Declines. This yields
  /// the geometric decay of Corollary 47 with ratio ~ (Delta-d+1)/
  /// (Delta-1) while preserving every Copy node's Decline budget.
  void try_early_decline(NodeId v, NodeId parent, std::int64_t round) {
    if (has_output(v) || is_a[static_cast<std::size_t>(v)] ||
        is(v, kHasABelow)) {
      return;
    }
    if (parent == graph::kInvalidNode || !is(parent, kAlive) ||
        is(parent, kAssigned)) {
      return;
    }
    if (early_declines[static_cast<std::size_t>(parent)] >= d - 2) return;
    ++early_declines[static_cast<std::size_t>(parent)];
    propagate_decline(std::span(&v, 1), round);
  }
};

}  // namespace

FastDecompPlan run_fast_decomposition(const Tree& tree,
                                      const std::vector<char>& participates,
                                      const std::vector<char>& is_a,
                                      int d, bool early_resolution) {
  if (d < 3 || d > 257) {
    throw std::invalid_argument("fda: 3 <= d <= 257 (Theorem 5)");
  }
  using enum Planner::Mark;
  const NodeId n = tree.size();
  Planner pl(tree, participates, is_a, d);

  // --- Pre-step: Connect paths between input-A nodes within distance 5.
  constexpr std::int64_t kBound = 5;
  mark_connect_paths(tree, participates, is_a, kBound, [&](NodeId v) {
    pl.decide(v, FdaRole::kConnect, kBound + 1);
  });

  // Alive = participants that did not output Connect. Two worklists in
  // increasing id order replace whole-graph scans, so every pass below
  // visits nodes in the same order a scan of 0..n-1 would: `alive_list`
  // holds the alive nodes and `open` the participants still without an
  // output (a superset of the alive ones). Both are compacted in place.
  std::vector<NodeId> alive_list;
  for (NodeId v = 0; v < n; ++v) {
    if (pl.in(v) &&
        pl.plan.role[static_cast<std::size_t>(v)] != FdaRole::kConnect) {
      pl.set(v, kAlive);
      alive_list.push_back(v);
    }
  }
  std::vector<NodeId> open = alive_list;
  auto drop_dead = [&] {
    std::erase_if(alive_list, [&](NodeId v) {
      return !pl.is(v, kAlive);
    });
  };
  auto drop_decided = [&] {
    std::erase_if(open, [&](NodeId v) { return pl.has_output(v); });
  };
  auto alive_degree = [&](NodeId v) {
    int deg = 0;
    for (NodeId u : tree.neighbors(v)) {
      if (pl.is(u, kAlive)) ++deg;
    }
    return deg;
  };

  // Per-iteration lists; the kInRake, kIsChain and kVisited marks are
  // cleared through the lists that set them.
  std::vector<NodeId> rake_set;
  std::vector<NodeId> chain_nodes;  // alive degree-2 nodes this iteration
  std::vector<NodeId> chain;
  std::vector<NodeId> maxima;
  int iter = 0;
  while (!alive_list.empty()) {
    ++iter;
    const std::int64_t round = kRoundsPerIter * iter;

    // ---- Rake step.
    rake_set.clear();
    for (const NodeId v : alive_list) {
      if (alive_degree(v) <= 1) {
        rake_set.push_back(v);
        pl.set(v, kInRake);
      }
    }
    for (NodeId v : rake_set) {
      // Parent = the alive neighbor that stays (or the larger-id member
      // of a simultaneously raked pair).
      NodeId parent = graph::kInvalidNode;
      bool parent_raked_now = false;
      for (NodeId u : tree.neighbors(v)) {
        if (!pl.is(u, kAlive)) continue;
        if (!pl.is(u, kInRake) ||
            tree.local_id(u) > tree.local_id(v)) {
          parent = u;
          parent_raked_now = pl.is(u, kInRake);
        }
      }
      pl.set(v, kAssigned);
      pl.layer_key[static_cast<std::size_t>(v)] = 2 * iter;
      if (parent != graph::kInvalidNode) pl.adopt(parent, v);
      pl.adopt_and_flag(v);
      // Adapted rule 1, rake case.
      if (is_a[static_cast<std::size_t>(v)] && !pl.has_output(v)) {
        if (parent != graph::kInvalidNode &&
            !pl.is(parent, kAssigned)) {
          pl.make_border(parent, round);
        }
        pl.propagate_copy(v, round);
      } else if (early_resolution && !parent_raked_now) {
        pl.try_early_decline(v, parent, round);
      }
      pl.on_assigned(v, round);
    }
    for (NodeId v : rake_set) {
      pl.clear(v, kAlive);
      pl.clear(v, kInRake);
    }
    drop_dead();

    // ---- Relaxed compress step (ell = 3).
    chain_nodes.clear();
    for (const NodeId v : alive_list) {
      if (alive_degree(v) == 2) {
        pl.set(v, kIsChain);
        chain_nodes.push_back(v);
      }
    }
    for (const NodeId v : chain_nodes) {
      if (pl.is(v, kVisited)) continue;
      int chain_neighbors = 0;
      for (NodeId u : tree.neighbors(v)) {
        if (pl.is(u, kAlive) &&
            pl.is(u, kIsChain)) {
          ++chain_neighbors;
        }
      }
      if (chain_neighbors == 2) continue;  // interior; find an end first
      // Walk the maximal chain from this end.
      chain.clear();
      NodeId prev = graph::kInvalidNode;
      NodeId cur = v;
      while (cur != graph::kInvalidNode) {
        pl.set(cur, kVisited);
        chain.push_back(cur);
        NodeId next = graph::kInvalidNode;
        for (NodeId u : tree.neighbors(cur)) {
          if (u != prev && pl.is(u, kAlive) &&
              pl.is(u, kIsChain) &&
              !pl.is(u, kVisited)) {
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
        pl.set(c, kAssigned);
        pl.layer_key[static_cast<std::size_t>(c)] = 2 * iter + 1;
      }
      const std::int64_t inward =
          std::min<std::int64_t>(kEll, (len - 1) / 2);
      for (std::int64_t e = 0; e < inward; ++e) {
        pl.adopt(chain[static_cast<std::size_t>(e)],
                 chain[static_cast<std::size_t>(e + 1)]);
        pl.adopt(chain[static_cast<std::size_t>(len - 1 - e)],
                 chain[static_cast<std::size_t>(len - 2 - e)]);
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
          if (pl.is(h, kAlive) &&
              !pl.is(h, kIsChain)) {
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
              pl.is(u, kIsChain) &&
              pl.layer_key[static_cast<std::size_t>(u)] == 2 * iter + 1;
          const bool unassigned =
              pl.is(u, kAlive) &&
              !pl.is(u, kAssigned);
          if (same_chain || unassigned) pl.make_border(u, round);
        }
        pl.propagate_copy(c, round);
      }
      // Rule 4: nodes at distance >= ell from both chain ends decline.
      const std::size_t inner =
          len > 2 * kEll ? static_cast<std::size_t>(len - 2 * kEll) : 0;
      pl.propagate_decline(std::span(chain).subspan(kEll, inner), round);
      // Rule 2 for freshly assigned bordered chain nodes.
      for (NodeId c : chain) pl.on_assigned(c, round);

      for (NodeId c : chain) pl.clear(c, kAlive);
    }
    for (NodeId v : chain_nodes) {
      pl.clear(v, kIsChain);
      pl.clear(v, kVisited);
    }
    drop_dead();

    // ---- Rule 3: local maxima among assigned, output-free nodes.
    maxima.clear();
    for (const NodeId v : open) {
      if (!pl.is(v, kAssigned) || pl.has_output(v)) {
        continue;
      }
      bool is_max = true;
      for (NodeId u : tree.neighbors(v)) {
        if (!pl.in(u)) continue;
        if (pl.plan.role[static_cast<std::size_t>(u)] == FdaRole::kConnect) {
          continue;
        }
        if (!pl.is(u, kAssigned) ||
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
    drop_decided();
    pl.plan.unfinished_after_iteration.push_back(
        static_cast<std::int64_t>(open.size()));
  }

  // ---- Cleanup: everything is assigned; resolve leftovers by repeated
  // local-maxima passes, then a final forced Decline (nodes isolated from
  // any oriented path, e.g. short-chain middles).
  const std::int64_t final_round = kRoundsPerIter * (iter + 1);
  for (;;) {
    maxima.clear();
    drop_decided();
    for (const NodeId v : open) {
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
  drop_decided();
  for (const NodeId v : open) {
    pl.decide(v, FdaRole::kDecline, final_round + 1);
  }

  pl.plan.iterations = iter;
  // Moved, not copied: the plan is a member of the local planner, so a
  // plain return would copy every per-node array and member list.
  return std::move(pl.plan);
}

std::size_t FastDecompPlan::state_bytes() const {
  std::size_t bytes = role.capacity() * sizeof(FdaRole) +
                      ready_round.capacity() * sizeof(std::int32_t) +
                      comp.capacity() * sizeof(std::int32_t) +
                      comp_depth.capacity() * sizeof(std::int16_t) +
                      flood_parent_port.capacity() * sizeof(std::int16_t) +
                      components.capacity() * sizeof(components[0]);
  for (const std::vector<NodeId>& members : components) {
    bytes += members.capacity() * sizeof(NodeId);
  }
  return bytes;
}

std::vector<char> prune_component(
    const Tree& tree, const FastDecompPlan& plan, int comp, int d,
    const std::function<bool(NodeId)>& is_declined) {
  const auto& members = plan.components[static_cast<std::size_t>(comp)];
  const std::size_t m = members.size();
  auto in_comp = [&](NodeId u) {
    return plan.comp[static_cast<std::size_t>(u)] == comp;
  };
  // Parent within the component and the Decline budget: d minus the
  // neighbors that already decline (outside the component or previously
  // pruned). Members are in BFS order, so the children of member i are
  // the next block of members: its in-component neighbors one level
  // deeper (in a tree, an adjacent member one level deeper is a child).
  std::vector<std::size_t> parent(m, 0);
  std::vector<int> budget(m, 0);
  std::size_t next_child = 1;
  for (std::size_t i = 0; i < m; ++i) {
    const int depth = plan.comp_depth[static_cast<std::size_t>(members[i])];
    int declined_neighbors = 0;
    for (NodeId u : tree.neighbors(members[i])) {
      if (!in_comp(u)) {
        if (is_declined(u)) ++declined_neighbors;
      } else if (plan.comp_depth[static_cast<std::size_t>(u)] == depth + 1) {
        if (next_child == m) {
          throw std::logic_error("fda: component is not in BFS order");
        }
        parent[next_child++] = i;
      }
    }
    budget[i] = std::max(0, d - declined_neighbors);
  }
  // The input-A root always stays Copy; pruned subtrees become Decline.
  return heavy_child_decline(parent, budget);
}

}  // namespace lcl::algo
