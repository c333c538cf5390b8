// Level computation for k-hierarchical problems (Definition 8).
//
// Levels are assigned by iterated peeling: V_1 = nodes of degree <= 2 in
// the tree; remove them; V_2 = nodes of degree <= 2 in the remainder; and
// so on for k rounds. Everything surviving k rounds gets level k+1.
//
// The peeling is a constant-round LOCAL computation for constant k; the
// centralized routine here is the reference implementation, used both by
// checkers and (as precomputed "input") by solvers. A genuinely
// distributed version lives in `algo/level_program` and is tested to
// agree with this one.
#pragma once

#include <vector>

#include "graph/tree.hpp"

namespace lcl::problems {

/// Levels of all nodes (values in [1, k+1]).
[[nodiscard]] std::vector<int> compute_levels(const graph::Tree& tree, int k);

/// Levels within the subgraph induced by nodes with `in_subgraph[v] != 0`.
/// Excluded nodes get level 0, and edges to them are ignored.
[[nodiscard]] std::vector<int> compute_levels_masked(
    const graph::Tree& tree, int k, const std::vector<char>& in_subgraph);

/// Levels within the subgraph induced by the Active nodes
/// (graph::WeightInput::kActive) of a weighted instance; weight nodes get
/// level 0. This is the level input of the generic algorithm embedded in
/// the weighted solvers.
[[nodiscard]] std::vector<int> active_levels(const graph::Tree& tree, int k);

/// The weight part of a weighted instance, as node masks: every non-Active
/// node participates, and a participant adjacent to an Active node is an
/// input-A node.
struct WeightSubgraph {
  std::vector<char> participates;
  std::vector<char> is_a;
};
[[nodiscard]] WeightSubgraph weight_subgraph(const graph::Tree& tree);

}  // namespace lcl::problems
