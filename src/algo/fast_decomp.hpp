// The adapted Fast Decomposition Algorithm (Section 8.1): a d-free-weight
// solver with O(1) node-averaged and O(log n) worst-case complexity,
// used by the Pi^{3.5} solver on the weight subgraph.
//
// One iteration = one rake step (remove alive degree <= 1 nodes) plus one
// relaxed compress step (whole alive chains of length >= ell = 3), with
// the Figure-5 edge orientations: a raked node's edge from its remaining
// alive neighbor points *into* the raked node, and the first/last ell
// edges of a compress chain point inward. "Reachable from v through a
// consistently oriented path" is then exactly the earlier-assigned
// subtree hanging below v, which grows by O(1) depth per iteration.
//
// Adapted output rules (Section 8.1):
//  * pre-step: input-A nodes within distance 5 connect the path between
//    them with Connect and leave the decomposition;
//  * when an input-A node is assigned, it outputs Copy and floods Copy
//    through its oriented subtree C(v); its still-alive / same-chain
//    neighbors become *border* nodes and Decline;
//  * border nodes propagate Decline through their subtree once assigned;
//  * local maxima (Definition 42) Decline and propagate;
//  * chain nodes at distance >= ell from both chain ends Decline and
//    propagate.
//
// The planner below computes roles, rounds (3 engine rounds per
// iteration, propagation one hop per round) and the C(v) component
// structure; the Lemma-52 pruning C(v) -> C'(v) is decided at run time by
// the Pi^{3.5} program (it depends on whether the active neighbor already
// terminated) via `prune_component`.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/tree.hpp"

namespace lcl::algo {

using graph::NodeId;
using graph::Tree;

/// Role of a weight node after the adapted fast decomposition.
enum class FdaRole : std::uint8_t {
  kInactive = 0,  ///< not a participant (active node)
  kConnect,       ///< pre-step Connect path
  kDecline,       ///< declines at a known round
  kCopyRoot,      ///< input-A node owning a component C(v)
  kCopyMember,    ///< member of some C(v), flood-listens
};

/// Plan produced by the adapted fast decomposition. The per-node fields
/// are the Pi^{3.5} program's largest state (13 B per node, plus
/// the member lists), so each uses the narrowest type its values fit.
struct FastDecompPlan {
  std::vector<FdaRole> role;
  /// kConnect/kDecline: termination round. kCopyRoot: the decision round
  /// rho_dec at which Case 1 (flood everything) vs Case 2 (prune first)
  /// is resolved. kCopyMember: 0 (Pi35Program stores a pruned member's
  /// Decline round there at run time). Rounds are 3 per iteration
  /// and iterations are O(log n), so int32 holds them (engine deadlines
  /// are clamped to 2^31 - 1 anyway).
  std::vector<std::int32_t> ready_round;
  /// Index into `components` per member, root included (-1 if none);
  /// the root of member v is components[comp[v]][0].
  std::vector<std::int32_t> comp;
  /// Depth within C(v) (-1 if none). Components grow O(1) deeper per
  /// iteration, so int16 holds it (the planner checks).
  std::vector<std::int16_t> comp_depth;
  /// Port toward the depth-1 neighbor (-1 if none). int16 rather than
  /// int8: family instances have unbounded degree.
  std::vector<std::int16_t> flood_parent_port;
  std::vector<std::vector<NodeId>> components;  ///< members per component,
                                                ///< BFS order from root
  int iterations = 0;
  /// |{nodes without output after iteration i}| — Corollary 47's decay.
  std::vector<std::int64_t> unfinished_after_iteration;

  /// Bytes reserved by the per-node and per-component containers.
  [[nodiscard]] std::size_t state_bytes() const;
};

/// Runs the planner on the subgraph induced by `participates`, with
/// `is_a` marking input-A nodes (weight nodes adjacent to an active).
/// `early_resolution` toggles the eager A-free-subtree Decline rule
/// (the Corollary-47 decay mechanism); disabling it is the ablation of
/// bench_ablation — outputs stay valid but the node-average of the
/// Decline mass degrades from O(1) to Theta(depth).
[[nodiscard]] FastDecompPlan run_fast_decomposition(
    const Tree& tree, const std::vector<char>& participates,
    const std::vector<char>& is_a, int d, bool early_resolution = true);

/// Lemma 52: prunes C(root) to C'(root). Every kept Copy node may turn at
/// most (d - #already-Declining-neighbors) of its heaviest child subtrees
/// into Decline; returns keep[i] for components[comp].
/// `is_declined(u)` must report whether u's final output is Decline; it
/// is asked only about neighbors outside the component. Needs no
/// node-indexed scratch: the BFS member order gives each member's
/// parent, and `plan.comp` tells members from outsiders.
[[nodiscard]] std::vector<char> prune_component(
    const Tree& tree, const FastDecompPlan& plan, int comp, int d,
    const std::function<bool(NodeId)>& is_declined);

}  // namespace lcl::algo
