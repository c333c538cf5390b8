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
  /// Number of weight nodes whose final primary output is Copy — the
  /// quantity bounded by Lemma 52 (|C'(v)| <= 2 |C(v)|^{x'}).
  [[nodiscard]] std::int64_t copies_kept() const { return copies_kept_; }
  /// Bytes reserved by the per-node and per-component containers: the
  /// embedded generic program's, the plan's and this program's own.
  [[nodiscard]] std::size_t state_bytes() const;

 private:
  [[nodiscard]] bool is_active(graph::NodeId v) const {
    return tree_.input(v) ==
           static_cast<int>(graph::WeightInput::kActive);
  }
  /// Final Decline verdict so far: a plan Decline, or a member pruned by
  /// an earlier component's resolution. Later prunings count it.
  [[nodiscard]] bool declined(graph::NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    return plan_.role[i] == FdaRole::kDecline ||
           (plan_.role[i] == FdaRole::kCopyMember && plan_.ready_round[i] > 0);
  }
  void resolve_component(local::NodeCtx& ctx, graph::NodeId root);

  const graph::Tree& tree_;
  Pi35Options opt_;
  GenericHierProgram generic_;
  /// A pruned member's Decline round goes into its `ready_round`, which
  /// the planner leaves 0 for members (a pruning round is always > 0).
  FastDecompPlan plan_;
  /// Per component: 0 undecided, 1 flood-all, 2 pruned.
  std::vector<char> case_of_comp_;
  std::int64_t copies_kept_ = 0;
};

[[nodiscard]] local::RunStats run_pi35(const graph::Tree& tree,
                                       Pi35Options options);

}  // namespace lcl::algo
