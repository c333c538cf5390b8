#include "graph/tree.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <unordered_set>

namespace lcl::graph {

namespace {

/// Union-find root with path halving; `parent` is the builder's reused
/// scratch.
NodeId dsu_find(std::vector<NodeId>& parent, NodeId v) {
  while (parent[static_cast<std::size_t>(v)] != v) {
    parent[static_cast<std::size_t>(v)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
    v = parent[static_cast<std::size_t>(v)];
  }
  return v;
}

}  // namespace

Tree TreeBuilder::build(int max_degree, bool forest_flag, bool verify) {
  const std::size_t n = static_cast<std::size_t>(n_);
  const std::size_t m = edge_u_.size();

  Tree t;
  t.forest_checked_ = forest_flag;

  // Degree counts -> exclusive prefix sum. The Tree's own arrays are
  // exact-size fresh allocations (the Tree owns them); everything else
  // below is reused builder scratch.
  t.offsets_.assign(n + 1, 0);
  for (std::size_t e = 0; e < m; ++e) {
    ++t.offsets_[static_cast<std::size_t>(edge_u_[e]) + 1];
    ++t.offsets_[static_cast<std::size_t>(edge_v_[e]) + 1];
  }
  int dmax = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::int32_t deg = t.offsets_[v + 1];
    dmax = std::max(dmax, static_cast<int>(deg));
    if (max_degree > 0 && deg > max_degree) {
      throw std::logic_error("TreeBuilder: node " + std::to_string(v) +
                             " exceeds max degree " +
                             std::to_string(max_degree));
    }
    t.offsets_[v + 1] += t.offsets_[v];
  }
  t.max_degree_ = dmax;

  // Fill the flat neighbor array in edge-insertion order, so each node's
  // port numbering is the order in which its edges were added — the same
  // stable order the historical vector-of-vectors adjacency produced.
  // offsets_[v] is v's fill cursor, which ends at v's end, the start of
  // v + 1; shifting the array right by one restores the starts.
  t.neighbors_.resize(2 * m);
  for (std::size_t e = 0; e < m; ++e) {
    const NodeId u = edge_u_[e];
    const NodeId v = edge_v_[e];
    t.neighbors_[static_cast<std::size_t>(
        t.offsets_[static_cast<std::size_t>(u)]++)] = v;
    t.neighbors_[static_cast<std::size_t>(
        t.offsets_[static_cast<std::size_t>(v)]++)] = u;
  }
  std::copy_backward(t.offsets_.begin(), t.offsets_.end() - 1,
                     t.offsets_.end());
  t.offsets_[0] = 0;

  // Duplicate-edge detection with a stamp array: while scanning v's
  // neighbor list, scratch_[u] == v marks "u already seen from v".
  if (verify) {
    scratch_.assign(n, kInvalidNode);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::int32_t i = t.offsets_[v]; i < t.offsets_[v + 1]; ++i) {
        const NodeId u = t.neighbors_[static_cast<std::size_t>(i)];
        if (scratch_[static_cast<std::size_t>(u)] ==
            static_cast<NodeId>(v)) {
          throw std::logic_error("TreeBuilder: duplicate edge " +
                                 std::to_string(v) + "-" +
                                 std::to_string(u));
        }
        scratch_[static_cast<std::size_t>(u)] = static_cast<NodeId>(v);
      }
    }
  }

  // Acyclicity via union-find (in the same scratch, now free): an edge
  // inside one component is a cycle.
  if (verify && forest_flag) {
    scratch_.resize(n);
    std::iota(scratch_.begin(), scratch_.end(), NodeId{0});
    for (std::size_t e = 0; e < m; ++e) {
      const NodeId ru = dsu_find(scratch_, edge_u_[e]);
      const NodeId rv = dsu_find(scratch_, edge_v_[e]);
      if (ru == rv) {
        throw std::logic_error(
            "TreeBuilder: cycle through edge " +
            std::to_string(edge_u_[e]) + "-" + std::to_string(edge_v_[e]) +
            " (use finalize_graph for non-forest instances)");
      }
      scratch_[static_cast<std::size_t>(ru)] = rv;
    }
  }

  t.ids_ = ids_;
  t.inputs_ = inputs_;
  return t;
}

TreeBuilder& tls_build_arena() {
  thread_local TreeBuilder arena;
  return arena;
}

namespace {
thread_local bool tls_arena_leased = false;
}  // namespace

ArenaLease::ArenaLease(NodeId n) : b_(tls_build_arena()) {
  if (tls_arena_leased) {
    throw std::logic_error(
        "ArenaLease: nested use of the thread build arena (an instance "
        "builder called another builder mid-build)");
  }
  // Mark leased only once reset() has succeeded: if it throws (n < 0)
  // the destructor never runs, and the flag must not stay poisoned.
  b_.reset(n);
  tls_arena_leased = true;
}

ArenaLease::~ArenaLease() { tls_arena_leased = false; }

Tree induced_subgraph(const Tree& t, const std::vector<char>& keep,
                      std::vector<NodeId>* from_sub,
                      std::vector<NodeId>* to_sub) {
  const NodeId n = t.size();
  if (static_cast<NodeId>(keep.size()) != n) {
    throw std::invalid_argument("induced_subgraph: mask size mismatch");
  }
  std::vector<NodeId> local_to;
  std::vector<NodeId>& map = to_sub != nullptr ? *to_sub : local_to;
  map.assign(static_cast<std::size_t>(n), kInvalidNode);
  if (from_sub != nullptr) from_sub->clear();
  NodeId sub_n = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (keep[static_cast<std::size_t>(v)] == 0) continue;
    map[static_cast<std::size_t>(v)] = sub_n++;
    if (from_sub != nullptr) from_sub->push_back(v);
  }
  ArenaLease arena(sub_n);
  TreeBuilder& b = *arena;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId sv = map[static_cast<std::size_t>(v)];
    if (sv == kInvalidNode) continue;
    b.set_input(sv, t.input(v));
    for (const NodeId u : t.neighbors(v)) {
      const NodeId su = map[static_cast<std::size_t>(u)];
      if (su != kInvalidNode && u > v) b.add_edge(sv, su);
    }
  }
  // An induced subgraph of a verified forest is a duplicate-free forest
  // by construction (its edges are a subset of the parent's), so the
  // verification passes are skipped on this checker hot path; unverified
  // parents (cycles) may induce non-forests and keep the flag cleared.
  return t.forest_checked() ? b.finalize_known_forest(0)
                            : b.finalize_graph(0);
}

void Tree::validate_ids() const {
  std::unordered_set<LocalId> seen;
  seen.reserve(static_cast<std::size_t>(size()));
  for (NodeId v = 0; v < size(); ++v) {
    if (!seen.insert(local_id(v)).second) {
      throw std::logic_error("Tree: duplicate LOCAL id " +
                             std::to_string(local_id(v)));
    }
  }
}

bool Tree::is_forest() const {
  // A graph is a forest iff every connected component with c nodes has
  // exactly c-1 edges.
  auto [comp, count] = components(*this);
  std::vector<std::int64_t> nodes(static_cast<std::size_t>(count), 0);
  std::vector<std::int64_t> edges_twice(static_cast<std::size_t>(count), 0);
  for (NodeId v = 0; v < size(); ++v) {
    nodes[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])]++;
    edges_twice[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])] +=
        degree(v);
  }
  for (int c = 0; c < count; ++c) {
    if (edges_twice[static_cast<std::size_t>(c)] / 2 !=
        nodes[static_cast<std::size_t>(c)] - 1) {
      return false;
    }
  }
  return true;
}

bool Tree::is_tree() const {
  if (size() == 0) return false;
  auto [comp, count] = components(*this);
  (void)comp;
  return count == 1 && is_forest();
}

std::vector<int> bfs_distances(const Tree& t, NodeId source) {
  std::vector<int> dist(static_cast<std::size_t>(t.size()), -1);
  std::deque<NodeId> queue;
  dist[static_cast<std::size_t>(source)] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId w : t.neighbors(u)) {
      if (dist[static_cast<std::size_t>(w)] < 0) {
        dist[static_cast<std::size_t>(w)] =
            dist[static_cast<std::size_t>(u)] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

std::vector<NodeId> ball(const Tree& t, NodeId v, int radius) {
  std::vector<NodeId> out;
  std::vector<int> dist(static_cast<std::size_t>(t.size()), -1);
  std::deque<NodeId> queue;
  dist[static_cast<std::size_t>(v)] = 0;
  queue.push_back(v);
  out.push_back(v);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (dist[static_cast<std::size_t>(u)] == radius) continue;
    for (NodeId w : t.neighbors(u)) {
      if (dist[static_cast<std::size_t>(w)] < 0) {
        dist[static_cast<std::size_t>(w)] =
            dist[static_cast<std::size_t>(u)] + 1;
        out.push_back(w);
        queue.push_back(w);
      }
    }
  }
  return out;
}

std::pair<std::vector<int>, int> components(const Tree& t) {
  std::vector<int> comp(static_cast<std::size_t>(t.size()), -1);
  int count = 0;
  std::deque<NodeId> queue;
  for (NodeId s = 0; s < t.size(); ++s) {
    if (comp[static_cast<std::size_t>(s)] >= 0) continue;
    comp[static_cast<std::size_t>(s)] = count;
    queue.push_back(s);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (NodeId w : t.neighbors(u)) {
        if (comp[static_cast<std::size_t>(w)] < 0) {
          comp[static_cast<std::size_t>(w)] = count;
          queue.push_back(w);
        }
      }
    }
    ++count;
  }
  return {std::move(comp), count};
}

}  // namespace lcl::graph
