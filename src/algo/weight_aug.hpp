// Solver for k-hierarchical weight-augmented 2.5-coloring
// (Definitions 63 and 67, Section 10), node-averaged Theta(n^{1/k})
// (Lemma 69).
//
// Active nodes run the generic 2.5-coloring algorithm with
// gamma_i = Theta(n^{1/k}) (worst case O(n^{1/k})). Weight nodes solve
// k-hierarchical labeling from a proper (gamma, ell, k)-decomposition of
// the weight subgraph (Lemma 65):
//   rake layer (i, j)        -> label R_i, oriented to the higher neighbor
//   compress-layer interiors -> label C_i, the two chain cells adjacent
//                               to the endpoints orient toward them
//   compress-layer endpoints -> label R_{i+1}, oriented to their higher
//                               neighbor.
// Secondary outputs then flood along reverse orientations: weight nodes
// pointing at an active node copy its output once it terminates; rake
// chains forward the value; compress interiors Decline (and nodes whose
// pointee declined do too). Because the paper's weight trees are
// balanced, no compress step fires inside them and a full Omega(w)
// fraction of weight copies the host's output — the x = 1 efficiency of
// Lemma 68.
#pragma once

#include <cstdint>
#include <vector>

#include "algo/generic_hier.hpp"
#include "graph/tree.hpp"
#include "local/engine.hpp"
#include "problems/checkers.hpp"

namespace lcl::algo {

struct WeightAugOptions {
  int k = 2;
  /// Uniform gamma for the active generic algorithm and the target of the
  /// weight-side decomposition; 0 means ceil(n^{1/k}).
  std::int64_t gamma = 0;
  std::int64_t id_space = 0;
};

class WeightAugProgram final : public local::Program {
 public:
  WeightAugProgram(const graph::Tree& tree, WeightAugOptions options);

  void on_init(local::NodeCtx& ctx) override;
  void on_round(local::NodeCtx& ctx) override;

  /// The orientation map the solution commits to (checker input).
  [[nodiscard]] const problems::OrientationMap& orientation() const {
    return orient_;
  }

 private:
  enum class WKind : int {
    kActiveNode,
    kMustDecline,   ///< compress interior not adjacent to active
    kOrphanRoot,    ///< no pointee at all: arbitrary secondary W
    kPointsActive,  ///< pointee is an active neighbor
    kPointsWeight,  ///< pointee is a weight neighbor
  };

  [[nodiscard]] bool is_active(graph::NodeId v) const {
    return tree_.input(v) ==
           static_cast<int>(graph::WeightInput::kActive);
  }

  const graph::Tree& tree_;
  WeightAugOptions opt_;
  GenericHierProgram generic_;

  std::vector<WKind> kind_;
  std::vector<int> label_;                  ///< Definition-63 label
  std::vector<std::int64_t> label_round_;   ///< round the label is known
  std::vector<int> pointee_port_;           ///< outgoing port (-1 none)
  problems::OrientationMap orient_;
};

}  // namespace lcl::algo
