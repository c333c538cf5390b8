// A_poly (Section 7.1): the upper-bound algorithm for Pi^{2.5}_{Delta,d,k}
// achieving node-averaged complexity O(n^{alpha_1}) (Theorem 2).
//
// Active nodes run the generic algorithm (Section 4.1) on the active
// subgraph with gamma_i = n^{alpha_i}, where the alpha_i come from the
// optimization of Lemma 33. Weight nodes first solve the d-free weight
// problem with Algorithm A (O(log n) worst case); weight nodes that
// output Connect or Decline terminate right after, while each Copy
// component waits for the active neighbor of its unique input-A node to
// decide and then floods that output label as its secondary output
// (one hop per round).
#pragma once

#include <cstdint>
#include <vector>

#include "algo/dfree_logn.hpp"
#include "algo/generic_hier.hpp"
#include "graph/tree.hpp"
#include "local/engine.hpp"

namespace lcl::algo {

/// Options for A_poly.
struct ApolyOptions {
  int k = 2;
  int d = 2;
  /// gamma_i for the embedded generic algorithm (size k-1).
  std::vector<std::int64_t> gammas;
  std::int64_t id_space = 0;
  std::int64_t symmetry_pad = 0;
  /// Ablation: skip Algorithm A and make every weight node Copy (the
  /// x = 1 "all weight waits" strawman the paper's d-free machinery
  /// improves on). Valid output, worse node-average.
  bool naive_all_copy = false;
};

/// The composite program. Inputs on the tree must be
/// graph::WeightInput::{kActive,kWeight}.
class ApolyProgram final : public local::Program {
 public:
  ApolyProgram(const graph::Tree& tree, ApolyOptions options);

  void on_init(local::NodeCtx& ctx) override;
  void on_round(local::NodeCtx& ctx) override;

  /// Outcome of Algorithm A (exposed for tests: d-free validity and the
  /// Lemma 40 Copy bound are asserted on it directly).
  [[nodiscard]] const DFreeResult& dfree() const { return dfree_; }

 private:
  [[nodiscard]] bool is_active(graph::NodeId v) const {
    return tree_.input(v) ==
           static_cast<int>(graph::WeightInput::kActive);
  }

  const graph::Tree& tree_;
  ApolyOptions opt_;
  GenericHierProgram generic_;
  DFreeResult dfree_;
  /// Port of the parent in the Copy-component flood tree (-1 for roots).
  std::vector<int> flood_parent_port_;
};

}  // namespace lcl::algo
