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
/// are the Pi^{3.5} program's largest state (19 B per node, plus
/// the member lists), so each uses the narrowest type its values fit.
struct FastDecompPlan {
  std::vector<FdaRole> role;
  /// kConnect/kDecline: termination round. kCopyRoot: the decision round
  /// rho_dec at which Case 1 (flood everything) vs Case 2 (prune first)
  /// is resolved. kCopyMember: unused (0). Rounds are 3 per iteration
  /// and iterations are O(log n), so int32 holds them (engine deadlines
  /// are clamped to 2^31 - 1 anyway).
  std::vector<std::int32_t> ready_round;
  std::vector<NodeId> comp_root;   ///< C(v) root per member (or invalid)
  std::vector<int> comp_depth;     ///< depth within C(v) (-1 if none)
  /// Port toward the depth-1 neighbor (-1 if none). int16 rather than
  /// int8: family instances have unbounded degree.
  std::vector<std::int16_t> flood_parent_port;
  std::vector<std::vector<NodeId>> components;  ///< members per component,
                                                ///< BFS order from root
  std::vector<int> comp_of_root;   ///< root node -> component index
  int iterations = 0;
  /// |{nodes without output after iteration i}| — Corollary 47's decay.
  std::vector<std::int64_t> unfinished_after_iteration;
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
/// `is_declined(u)` must report whether u's final output is Decline.
/// `member_idx` is the caller's node-indexed scratch: all -1 on entry,
/// and reset to all -1 (through the members only) before returning.
[[nodiscard]] std::vector<char> prune_component(
    const Tree& tree, const FastDecompPlan& plan, int comp, int d,
    const std::vector<char>& is_declined,
    std::vector<std::int32_t>& member_idx);

}  // namespace lcl::algo
