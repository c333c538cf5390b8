// LCLs on trees in the black-white formalism (Definition 70) and the
// generic rake-and-compress solver of Sections 11.3-11.5.
//
// A problem assigns labels to *edges*; the constraint of a node is the
// set of allowed multisets of incident edge labels. Every problem here is
// a colour-symmetric `problems::BwTable`: white and black nodes of the
// formalism's W/B split share one constraint table, so the solvers need
// no 2-colouring of the tree. Inputs are omitted (Sigma_in = {eps}),
// which covers every use the paper makes of the formalism in Section 11.
//
// The solver follows the paper's pipeline:
//   1. compute a (gamma, ell, L)-decomposition (Definition 71) with
//      gamma = 1, ell = 4 and split paths, fixed in tree_problem.cpp
//      alone; the result carries the peel steps the engine wrapper
//      charges;
//   2. sweep layers bottom-up (Definition 75 order), assigning to each
//      rake node's outgoing edge the label-set g(v) of Definition 74 and
//      to each compress path's two outgoing edges the canonical
//      independent restriction f_Pi (Definition 73) of its flexible
//      class;
//   3. sweep top-down, committing one label per edge so every node's
//      multiset constraint holds.
// A problem is *solvable by the generic algorithm* iff no empty
// label-set arises (the testing procedure's criterion); `solve` reports
// failure otherwise.
//
// Both solvers are one rooted sweep of two node steps: bottom-up, a node
// turns the label-sets on its in-ports into the up-set of its out edge
// (bw::up_set), or checks it completes as a root; top-down, it picks its
// in-port labels next to the labels already on its other ports
// (bw::choose). The flexible solver takes in- and out-ports from the
// layer order and runs a chain DP on compress paths; the exact global
// solver takes them from a BFS rooting and treats every node as a rake
// node.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bw/path_lcl.hpp"
#include "graph/tree.hpp"
#include "problems/lclgen.hpp"

namespace lcl::bw {

using graph::NodeId;
using graph::Tree;

/// One compress chain the generic solver processed, with the label-sets
/// it committed to the chain's outgoing edges (0 = no outgoing edge on
/// that side). Solvers use these to decide, per chain, whether the
/// induced compress problem is O(1)-completable or needs a Theta(log*)
/// split — the per-instance realization of Definition 77.
struct ChainRecord {
  std::vector<NodeId> nodes;  ///< in path order
  LabelSet left = 0;          ///< set on the front node's outgoing edge
  LabelSet right = 0;         ///< set on the back node's outgoing edge
};

/// Canonical edge indexing: edge {u, v} with u < v gets a dense id. The
/// flat id array is laid out on the Tree's native CSR slots, so `of` is
/// one lookup through the tree's own offset array — no parallel offset
/// table is materialized.
struct EdgeIndex {
  std::vector<std::int64_t> id;  ///< flat [tree CSR slot] -> edge id
  std::int64_t edge_count = 0;

  static EdgeIndex build(const Tree& t);
  [[nodiscard]] std::int64_t of(const Tree& t, NodeId v, int port) const;
};

/// Result of the generic solver.
struct TreeBwResult {
  bool solved = false;
  std::string failure;          ///< first empty label-set, if any
  std::vector<int> edge_label;  ///< per edge id of `edges`
  /// The solver's own edge index, which keys `edge_label`; callers read
  /// labels through it instead of building another.
  EdgeIndex edges;
  /// Compress chains in bottom-up order (filled by solve_tree_bw only).
  std::vector<ChainRecord> chains;
  /// Peel step (>= 1) per node of the decomposition solve_tree_bw swept:
  /// the round in which a distributed run learns the node's layer.
  /// Filled whether or not the solve succeeds (solve_tree_bw only).
  std::vector<int> assign_step;
};

/// Runs the generic rake-and-compress solver.
[[nodiscard]] TreeBwResult solve_tree_bw(const Tree& tree,
                                         const problems::BwTable& table);

/// Exact global solver: roots every component and runs the classic
/// bottom-up feasible-label DP followed by a top-down commit, with no
/// canonical-rectangle restriction. Solves exactly the instances that
/// admit *any* labeling (the Theta(log n)-schedule fallback for problems
/// the flexible generic solver rejects, e.g. parity-rigid chains).
[[nodiscard]] TreeBwResult solve_tree_bw_global(
    const Tree& tree, const problems::BwTable& table);

/// Verifies an edge labeling against the table (independent checker: it
/// builds its own edge index).
[[nodiscard]] std::string check_tree_bw(const Tree& tree,
                                        const problems::BwTable& table,
                                        const std::vector<int>& edge_label);

}  // namespace lcl::bw
