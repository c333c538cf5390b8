#include "bw/tree_problem.hpp"

#include <algorithm>
#include <deque>
#include <span>
#include <stdexcept>
#include <utility>

#include "bw/label_sets.hpp"
#include "decomp/rake_compress.hpp"

namespace lcl::bw {

namespace {

/// The two node steps every rooted label-set sweep is built from. A
/// sweep orients each node's ports: in-ports lead to subtrees settled
/// before the node, and at most one out port leads on. Bottom-up,
/// `settle` turns the label-sets on a node's in-ports into the up-set
/// g(v) of Definition 74 on its out edge; top-down, `commit` picks the
/// in-port labels once every other port of the node is labeled.
struct Sweep {
  const Tree& tree;
  const problems::BwTable& table;
  EdgeIndex& edges;                ///< built into the result
  std::vector<LabelSet> edge_set;  ///< settled up-set per edge id
  std::vector<int>& edge_label;    ///< committed label per edge id

  Sweep(const Tree& t, const problems::BwTable& p, TreeBwResult& res)
      : tree(t), table(p), edges(res.edges), edge_label(res.edge_label) {
    edges = EdgeIndex::build(t);
    const auto m = static_cast<std::size_t>(edges.edge_count);
    edge_set.assign(m, 0);
    edge_label.assign(m, -1);
  }

  [[nodiscard]] std::size_t edge(NodeId v, int port) const {
    return static_cast<std::size_t>(edges.of(tree, v, port));
  }

  /// The label-sets on v's `ports`, in the given order.
  [[nodiscard]] std::vector<LabelSet> sets_at(
      NodeId v, std::span<const int> ports) const {
    std::vector<LabelSet> sets;
    sets.reserve(ports.size());
    for (const int p : ports) sets.push_back(edge_set[edge(v, p)]);
    return sets;
  }

  /// The table's constraint, shared by every node.
  [[nodiscard]] auto allowed() const {
    return [&t = table](const std::vector<int>& m) { return t.allows(m); };
  }

  /// Does some choice from `sets` complete a node next to the `fixed`
  /// labels?
  [[nodiscard]] bool choose(std::span<const int> fixed,
                            std::span<const LabelSet> sets,
                            std::vector<int>* pick = nullptr) const {
    return bw::choose(table.alphabet, fixed, sets, allowed(), pick);
  }

  /// Stores the up-set of v's out edge; with no out port (out_port < 0)
  /// checks that v completes as a root instead. False when the up-set
  /// is empty or the root cannot complete.
  bool settle(NodeId v, std::span<const int> in_ports, int out_port) {
    const std::vector<LabelSet> sets = sets_at(v, in_ports);
    if (out_port < 0) return choose({}, sets);
    const LabelSet g = up_set(table.alphabet, sets, allowed());
    edge_set[edge(v, out_port)] = g;
    return g != 0;
  }

  /// Labels v's `ports` from their up-sets, next to the labels already
  /// on every other port of v.
  void commit(NodeId v, std::span<const int> ports) {
    std::vector<int> fixed;
    for (int p = 0; p < tree.degree(v); ++p) {
      if (std::find(ports.begin(), ports.end(), p) != ports.end()) continue;
      const int lab = edge_label[edge(v, p)];
      if (lab < 0) {
        throw std::logic_error("tree_bw: commit before the other ports of " +
                               std::to_string(v) + " were labeled");
      }
      fixed.push_back(lab);
    }
    std::vector<int> picks;
    if (!choose(fixed, sets_at(v, ports), &picks)) {
      throw std::logic_error("tree_bw: committed set not completable at " +
                             std::to_string(v));
    }
    for (std::size_t s = 0; s < ports.size(); ++s) {
      edge_label[edge(v, ports[s])] = picks[s];
    }
  }
};

}  // namespace

EdgeIndex EdgeIndex::build(const Tree& t) {
  // Per-node port slots coincide with the Tree's CSR slots, so the id
  // array reuses the tree's own offsets instead of recomputing them.
  const auto off = t.offsets();
  EdgeIndex idx;
  idx.id.assign(t.adjacency().size(), -1);
  std::int64_t next = 0;
  for (NodeId v = 0; v < t.size(); ++v) {
    const auto nb = t.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      if (nb[p] > v) {
        idx.id[static_cast<std::size_t>(off[static_cast<std::size_t>(v)]) +
               p] = next++;
      }
    }
  }
  // Mirror the ids on the other endpoints.
  for (NodeId v = 0; v < t.size(); ++v) {
    const auto nb = t.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      if (nb[p] < v) {
        const NodeId u = nb[p];
        const auto unb = t.neighbors(u);
        for (std::size_t q = 0; q < unb.size(); ++q) {
          if (unb[q] == v) {
            idx.id[static_cast<std::size_t>(
                       off[static_cast<std::size_t>(v)]) +
                   p] =
                idx.id[static_cast<std::size_t>(
                           off[static_cast<std::size_t>(u)]) +
                       q];
          }
        }
      }
    }
  }
  idx.edge_count = next;
  return idx;
}

std::int64_t EdgeIndex::of(const Tree& t, NodeId v, int port) const {
  return id[static_cast<std::size_t>(
                t.offsets()[static_cast<std::size_t>(v)]) +
            static_cast<std::size_t>(port)];
}

TreeBwResult solve_tree_bw(const Tree& tree,
                           const problems::BwTable& table) {
  TreeBwResult res;
  Sweep sweep(tree, table, res);
  auto dec = decomp::rake_compress(tree, 1, 4, /*split_paths=*/true);
  res.assign_step = std::move(dec.assign_step);

  // Each node's layer key, computed once: the sort and every port split
  // below read it many times.
  const auto n = static_cast<std::size_t>(tree.size());
  std::vector<std::int64_t> key(n);
  for (std::size_t v = 0; v < n; ++v) {
    key[v] = decomp::layer_order_key(dec.assignment[v]);
  }
  auto key_of = [&](NodeId v) { return key[static_cast<std::size_t>(v)]; };

  // Group nodes by layer key; compress chains handled as components.
  // Sorting (key, id) pairs is the (key, then id) total order.
  std::vector<std::pair<std::int64_t, NodeId>> keyed(n);
  for (std::size_t v = 0; v < n; ++v) {
    keyed[v] = {key[v], static_cast<NodeId>(v)};
  }
  std::sort(keyed.begin(), keyed.end());

  // Splits a node's ports into (incoming = lower key, outgoing ports).
  // Chain mates share a key, so they are outgoing on both sides.
  auto split_ports = [&](NodeId v, std::vector<int>& in_ports,
                         std::vector<int>& out_ports) {
    const auto nb = tree.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      if (key_of(nb[p]) < key_of(v)) {
        in_ports.push_back(static_cast<int>(p));
      } else {
        out_ports.push_back(static_cast<int>(p));
      }
    }
  };

  // --- Chain discovery for compress components ----------------------
  std::vector<char> chain_done(static_cast<std::size_t>(tree.size()), 0);
  auto collect_chain = [&](NodeId v) {
    // Same compress layer, connected.
    std::vector<NodeId> comp;
    std::deque<NodeId> q{v};
    chain_done[static_cast<std::size_t>(v)] = 1;
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      comp.push_back(u);
      for (NodeId w : tree.neighbors(u)) {
        if (!chain_done[static_cast<std::size_t>(w)] &&
            key_of(w) == key_of(u)) {
          chain_done[static_cast<std::size_t>(w)] = 1;
          q.push_back(w);
        }
      }
    }
    // Order the component as a path.
    std::vector<NodeId> path;
    NodeId end = comp.front();
    for (NodeId u : comp) {
      int same = 0;
      for (NodeId w : tree.neighbors(u)) {
        if (key_of(w) == key_of(u)) ++same;
      }
      if (same <= 1) end = u;
    }
    NodeId prev = graph::kInvalidNode;
    NodeId cur = end;
    while (cur != graph::kInvalidNode) {
      path.push_back(cur);
      NodeId next = graph::kInvalidNode;
      for (NodeId w : tree.neighbors(cur)) {
        if (w != prev && key_of(w) == key_of(cur)) next = w;
      }
      prev = cur;
      cur = next;
    }
    return path;
  };

  struct ChainPlan {
    std::vector<NodeId> path;
    std::vector<std::vector<int>> in_ports;  ///< per path node
    int left_out_port = -1;   // on path.front(), toward higher (or -1)
    int right_out_port = -1;  // on path.back()
  };
  // The per-chain DP. Returns the feasible (left, right) outgoing label
  // pairs; with `commit`, labels the chain for the first pair feasible
  // under the fixed outgoing labels (-1 = any) and returns just it.
  auto chain_pairs = [&](const ChainPlan& plan, int fixed_left,
                         int fixed_right, bool commit) {
    const auto& path = plan.path;
    const std::size_t len = path.size();
    const auto a = static_cast<std::size_t>(table.alphabet);
    std::vector<std::vector<LabelSet>> sets;
    for (std::size_t i = 0; i < len; ++i) {
      sets.push_back(sweep.sets_at(path[i], plan.in_ports[i]));
    }
    std::vector<std::pair<int, int>> pairs;
    std::vector<int> fixed;
    // reach[i][e]: the prefix through node i with chain edge (i, i+1)
    // labeled e completes; pred[i][e]: the first such label of chain
    // edge (i - 1, i). One DP per left label (the alphabet is tiny).
    std::vector<std::vector<char>> reach(len);
    std::vector<std::vector<int>> pred(len);
    for (int l = 0; l < table.alphabet; ++l) {
      if (fixed_left >= 0 && l != fixed_left) continue;
      for (std::size_t i = 0; i < len; ++i) {
        reach[i].assign(a, 0);
        pred[i].assign(a, -1);
        const bool first = (i == 0);
        const bool last = (i + 1 == len);
        for (int e_prev = 0; e_prev < (first ? 1 : table.alphabet);
             ++e_prev) {
          if (!first && !reach[i - 1][static_cast<std::size_t>(e_prev)]) {
            continue;
          }
          fixed.clear();
          if (!first) {
            fixed.push_back(e_prev);
          } else if (plan.left_out_port >= 0) {
            fixed.push_back(l);
          }
          if (!last) {
            for (int e_next = 0; e_next < table.alphabet; ++e_next) {
              fixed.push_back(e_next);
              if (sweep.choose(fixed, sets[i])) {
                reach[i][static_cast<std::size_t>(e_next)] = 1;
                int& p = pred[i][static_cast<std::size_t>(e_next)];
                if (p < 0) p = e_prev;
              }
              fixed.pop_back();
            }
            continue;
          }
          for (int r = 0; r < table.alphabet; ++r) {
            if (fixed_right >= 0 && r != fixed_right) continue;
            if (plan.right_out_port >= 0) fixed.push_back(r);
            const bool ok = sweep.choose(fixed, sets[i]);
            if (plan.right_out_port >= 0) fixed.pop_back();
            if (!ok) continue;
            pairs.emplace_back(l, r);
            if (!commit) continue;
            // Walk the predecessors back from the last chain edge, then
            // let every chain node pick its in-port labels.
            int e = e_prev;
            for (std::size_t j = len - 1; j > 0; --j) {
              const auto nb = tree.neighbors(path[j]);
              const auto p = std::find(nb.begin(), nb.end(), path[j - 1]);
              sweep.edge_label[sweep.edge(
                  path[j], static_cast<int>(p - nb.begin()))] = e;
              e = pred[j - 1][static_cast<std::size_t>(e)];
            }
            for (std::size_t j = 0; j < len; ++j) {
              sweep.commit(path[j], plan.in_ports[j]);
            }
            return pairs;
          }
        }
      }
    }
    return pairs;
  };

  // --- Bottom-up: label-sets ----------------------------------------
  std::vector<ChainPlan> chains;
  std::vector<int> chain_of(static_cast<std::size_t>(tree.size()), -1);
  for (const auto& [k, v] : keyed) {
    const auto& assign = dec.assignment[static_cast<std::size_t>(v)];
    std::vector<int> in_ports, out_ports;
    if (assign.kind == decomp::LayerKind::kCompress) {
      if (chain_done[static_cast<std::size_t>(v)]) continue;
      ChainPlan plan;
      plan.path = collect_chain(v);
      // Outgoing ports at both endpoints (toward strictly higher keys).
      for (std::size_t i = 0; i < plan.path.size(); ++i) {
        const NodeId x = plan.path[i];
        out_ports.clear();
        plan.in_ports.emplace_back();
        split_ports(x, plan.in_ports.back(), out_ports);
        if (i != 0 && i + 1 != plan.path.size()) continue;
        int& out = i == 0 ? plan.left_out_port : plan.right_out_port;
        for (int p : out_ports) {
          if (key_of(tree.neighbors(x)[static_cast<std::size_t>(p)]) >
              key_of(x)) {
            out = p;
          }
        }
      }
      const auto pairs = chain_pairs(plan, -1, -1, /*commit=*/false);
      const Rectangle rect = independent_rectangle(pairs, table.alphabet);
      const bool need_left = plan.left_out_port >= 0;
      const bool need_right = plan.right_out_port >= 0;
      if ((need_left && rect.left == 0) ||
          (need_right && rect.right == 0) || pairs.empty()) {
        res.failure = "empty class at compress chain near node " +
                      std::to_string(v);
        return res;
      }
      if (need_left) {
        sweep.edge_set[sweep.edge(plan.path.front(), plan.left_out_port)] =
            rect.left;
      }
      if (need_right) {
        sweep.edge_set[sweep.edge(plan.path.back(), plan.right_out_port)] =
            rect.right;
      }
      ChainRecord record;
      record.nodes = plan.path;
      record.left = need_left ? rect.left : 0;
      record.right = need_right ? rect.right : 0;
      res.chains.push_back(std::move(record));
      chain_of[static_cast<std::size_t>(plan.path.front())] =
          static_cast<int>(chains.size());
      chains.push_back(std::move(plan));
      continue;
    }

    // Rake node: settle the (unique) outgoing edge, or the root.
    split_ports(v, in_ports, out_ports);
    if (out_ports.size() > 1) {
      res.failure = "rake node with two higher neighbors (decomposition "
                    "violation) at " +
                    std::to_string(v);
      return res;
    }
    const int out = out_ports.empty() ? -1 : out_ports[0];
    if (!sweep.settle(v, in_ports, out)) {
      res.failure = (out < 0 ? "infeasible root node "
                             : "empty label-set at node ") +
                    std::to_string(v);
      return res;
    }
  }

  // --- Top-down: commit labels ---------------------------------------
  for (auto it = keyed.rbegin(); it != keyed.rend(); ++it) {
    const NodeId v = it->second;
    if (dec.assignment[static_cast<std::size_t>(v)].kind ==
        decomp::LayerKind::kCompress) {
      const int ci = chain_of[static_cast<std::size_t>(v)];
      if (ci < 0) continue;  // interior / non-anchor chain nodes
      const ChainPlan& plan = chains[static_cast<std::size_t>(ci)];
      // Without a left port the DP ignores the left label.
      const int fixed_left =
          plan.left_out_port >= 0
              ? sweep.edge_label[sweep.edge(plan.path.front(),
                                            plan.left_out_port)]
              : 0;
      const int fixed_right =
          plan.right_out_port >= 0
              ? sweep.edge_label[sweep.edge(plan.path.back(),
                                            plan.right_out_port)]
              : -1;
      if (chain_pairs(plan, fixed_left, fixed_right, /*commit=*/true)
              .empty()) {
        throw std::logic_error(
            "tree_bw: independent rectangle was not completable");
      }
      continue;
    }
    // Rake node: the outgoing edge is labeled by the higher layer.
    std::vector<int> in_ports, out_ports;
    split_ports(v, in_ports, out_ports);
    sweep.commit(v, in_ports);
  }

  res.solved = true;
  return res;
}

TreeBwResult solve_tree_bw_global(const Tree& tree,
                                  const problems::BwTable& table) {
  TreeBwResult res;
  Sweep sweep(tree, table, res);
  const NodeId n = tree.size();

  // Root every component at its smallest node; record a BFS order so the
  // reverse is a valid bottom-up order (children before parents) without
  // recursion (components can be 10^5-node paths). A node's in-ports are
  // its children, its out port leads to its parent.
  std::vector<int> parent_port(static_cast<std::size_t>(n), -1);
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> bfs;
  bfs.reserve(static_cast<std::size_t>(n));
  for (NodeId root = 0; root < n; ++root) {
    if (visited[static_cast<std::size_t>(root)]) continue;
    visited[static_cast<std::size_t>(root)] = 1;
    bfs.push_back(root);
    for (std::size_t head = bfs.size() - 1; head < bfs.size(); ++head) {
      const NodeId v = bfs[head];
      for (const NodeId u : tree.neighbors(v)) {
        if (visited[static_cast<std::size_t>(u)]) continue;
        visited[static_cast<std::size_t>(u)] = 1;
        const auto unb = tree.neighbors(u);
        parent_port[static_cast<std::size_t>(u)] = static_cast<int>(
            std::find(unb.begin(), unb.end(), v) - unb.begin());
        bfs.push_back(u);
      }
    }
  }
  auto children = [&](NodeId v) {
    std::vector<int> ports;
    for (int p = 0; p < tree.degree(v); ++p) {
      if (p != parent_port[static_cast<std::size_t>(v)]) ports.push_back(p);
    }
    return ports;
  };

  // Bottom-up: the parent edge's up-set is exact, because the children's
  // sets come from disjoint subtrees.
  for (auto it = bfs.rbegin(); it != bfs.rend(); ++it) {
    const NodeId v = *it;
    const int out = parent_port[static_cast<std::size_t>(v)];
    if (!sweep.settle(v, children(v), out)) {
      res.failure = (out < 0 ? "global DP: no completion at root "
                             : "global DP: empty up-set at node ") +
                    std::to_string(v);
      return res;
    }
  }
  // Top-down in BFS order: the parent edge is labeled when v is reached.
  for (const NodeId v : bfs) sweep.commit(v, children(v));

  res.solved = true;
  return res;
}

std::string check_tree_bw(const Tree& tree, const problems::BwTable& table,
                          const std::vector<int>& edge_label) {
  const EdgeIndex edges = EdgeIndex::build(tree);
  if (static_cast<std::int64_t>(edge_label.size()) != edges.edge_count) {
    return "edge label vector size mismatch";
  }
  for (NodeId v = 0; v < tree.size(); ++v) {
    std::vector<int> incident;
    for (int p = 0; p < tree.degree(v); ++p) {
      const int lab =
          edge_label[static_cast<std::size_t>(edges.of(tree, v, p))];
      if (lab < 0 || lab >= table.alphabet) {
        return "edge at node " + std::to_string(v) + " unlabeled";
      }
      incident.push_back(lab);
    }
    std::sort(incident.begin(), incident.end());
    if (!table.allows(incident)) {
      return "constraint violated at node " + std::to_string(v);
    }
  }
  return {};
}

}  // namespace lcl::bw
