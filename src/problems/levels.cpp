#include "problems/levels.hpp"

#include "graph/builders.hpp"

namespace lcl::problems {

namespace {

using graph::NodeId;
using graph::Tree;

bool is_active(const Tree& tree, NodeId v) {
  return tree.input(v) == static_cast<int>(graph::WeightInput::kActive);
}

/// Peels the subgraph induced by `in_graph(v)`. A node is removed once
/// it has a level (levels start at 1), so no separate removed mask.
template <typename InGraph>
std::vector<int> peel(const Tree& tree, int k, InGraph in_graph) {
  const NodeId n = tree.size();
  std::vector<int> level(static_cast<std::size_t>(n), 0);
  std::vector<int> remaining_degree(static_cast<std::size_t>(n), 0);
  auto alive = [&](NodeId v) {
    return level[static_cast<std::size_t>(v)] == 0 && in_graph(v);
  };

  for (NodeId v = 0; v < n; ++v) {
    if (!in_graph(v)) continue;
    int d = 0;
    for (NodeId u : tree.neighbors(v)) {
      if (in_graph(u)) ++d;
    }
    remaining_degree[static_cast<std::size_t>(v)] = d;
  }

  std::vector<NodeId> peeled;
  for (int round = 1; round <= k; ++round) {
    // Collect this round's peel set first (simultaneous removal).
    peeled.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (alive(v) && remaining_degree[static_cast<std::size_t>(v)] <= 2) {
        peeled.push_back(v);
      }
    }
    for (NodeId v : peeled) level[static_cast<std::size_t>(v)] = round;
    for (NodeId v : peeled) {
      for (NodeId u : tree.neighbors(v)) {
        if (alive(u)) --remaining_degree[static_cast<std::size_t>(u)];
      }
    }
    if (peeled.empty()) break;  // nothing more will ever peel
  }

  for (NodeId v = 0; v < n; ++v) {
    if (alive(v)) level[static_cast<std::size_t>(v)] = k + 1;
  }
  return level;
}

}  // namespace

std::vector<int> compute_levels(const graph::Tree& tree, int k) {
  return peel(tree, k, [](NodeId) { return true; });
}

std::vector<int> compute_levels_masked(const graph::Tree& tree, int k,
                                       const std::vector<char>& in_subgraph) {
  return peel(tree, k, [&](NodeId v) {
    return in_subgraph[static_cast<std::size_t>(v)] != 0;
  });
}

std::vector<int> active_levels(const Tree& tree, int k) {
  return peel(tree, k, [&](NodeId v) { return is_active(tree, v); });
}

WeightSubgraph weight_subgraph(const Tree& tree) {
  const auto n = static_cast<std::size_t>(tree.size());
  WeightSubgraph w{std::vector<char>(n, 0), std::vector<char>(n, 0)};
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (is_active(tree, v)) continue;
    w.participates[static_cast<std::size_t>(v)] = 1;
    for (NodeId u : tree.neighbors(v)) {
      if (is_active(tree, u)) w.is_a[static_cast<std::size_t>(v)] = 1;
    }
  }
  return w;
}

}  // namespace lcl::problems
