// The generic algorithm for Pi^{3.5}_{Delta,d,k} (Section 8.2),
// achieving node-averaged complexity O((log* n)^{alpha_1(x')}) with
// x' = log(Delta-d+1)/log(Delta-1) (Theorem 5).
//
// Active nodes run the generic 3.5-coloring algorithm with
// gamma_i = (log* n)^{alpha_i} (the alpha_i of Lemma 36); weight nodes
// follow the adapted fast decomposition plan: Connect/Decline at their
// planned rounds, and each component C(v) resolves at its decision round
// rho_dec into either Case 1 (the active neighbor already terminated:
// flood its label through all of C(v)) or Case 2 (prune C(v) to C'(v)
// per Lemma 52; pruned nodes Decline, kept nodes flood once the active
// terminates).
#pragma once

#include <cstdint>
#include <vector>

#include "algo/fast_decomp.hpp"
#include "algo/generic_hier.hpp"
#include "graph/tree.hpp"
#include "local/engine.hpp"

namespace lcl::algo {

/// Options for the Pi^{3.5} solver.
struct Pi35Options {
  int k = 2;
  int d = 3;
  /// gamma_i for the embedded generic algorithm (size k-1).
  std::vector<std::int64_t> gammas;
  std::int64_t id_space = 0;
  /// Virtual-log* pad for the level-k 3-coloring (DESIGN.md Subst. 1).
  std::int64_t symmetry_pad = 0;
};

class Pi35Program final : public local::Program {
 public:
  Pi35Program(const graph::Tree& tree, Pi35Options options);

  void on_init(local::NodeCtx& ctx) override;
  void on_round(local::NodeCtx& ctx) override;

  [[nodiscard]] const FastDecompPlan& plan() const { return plan_; }
  /// Bytes reserved by the per-node and per-component containers: the
  /// embedded generic program's, the plan's and this program's own.
  [[nodiscard]] std::size_t state_bytes() const;

 private:
  [[nodiscard]] bool is_active(graph::NodeId v) const {
    return tree_.input(v) ==
           static_cast<int>(graph::WeightInput::kActive);
  }
  /// Final Decline verdict as of `round`: a plan Decline, or a member
  /// pruned by a component resolved in an earlier round. Later prunings
  /// count it. A resolution in `round` itself is not counted, so the
  /// verdict does not depend on the walk order (on the instance families
  /// no component touches another, so none is ever seen either way).
  [[nodiscard]] bool declined(graph::NodeId v, std::int64_t round) const {
    const auto i = static_cast<std::size_t>(v);
    if (plan_.role[i] == FdaRole::kDecline) return true;
    if (plan_.role[i] != FdaRole::kCopyMember) return false;
    const NodeId root =
        plan_.components[static_cast<std::size_t>(plan_.comp[i])][0];
    return plan_.ready_round[static_cast<std::size_t>(root)] < round &&
           plan_.ready_round[i] > 0;
  }
  void resolve_component(local::NodeCtx& ctx, graph::NodeId root);

  const graph::Tree& tree_;
  Pi35Options opt_;
  GenericHierProgram generic_;
  /// A pruned member's Decline round goes into its `ready_round`, which
  /// the planner leaves 0 for members (a pruning round is always > 0).
  /// The root writes it in its decision round, and the member reads it
  /// only from that Decline round on, so no visit sees a write made in
  /// its own round.
  FastDecompPlan plan_;
  /// Per component, touched only by its root: 0 undecided, 1 flood-all,
  /// 2 pruned.
  std::vector<char> case_of_comp_;
};

}  // namespace lcl::algo
