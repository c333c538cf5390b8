// A genuinely distributed rake-and-compress decomposition
// (Definitions 43/71) as a LOCAL-engine program — the in-model
// counterpart of the centralized `decomp::rake_compress`, used to
// validate Lemma 72's *round* bounds (O(k n^{1/k}) for gamma = n^{1/k},
// O(log n) for gamma = 1), not just its layer counts.
//
// Protocol. Iterations are fixed windows of (2*gamma + ell + 3) rounds
// known to all nodes:
//   * gamma rake sub-steps of 2 rounds each: every alive node publishes
//     its alive-degree (snapshot round), then nodes whose published
//     degree is <= 1 rake — deferring to an eligible neighbor of smaller
//     LOCAL id so sublayers stay independent (Def. 71 property 3);
//   * one compress step of ell + 3 rounds: alive nodes whose snapshot
//     degree is 2 exchange saturated distance-to-chain-end waves; a node
//     compresses iff its saturated end distances sum to >= ell - 1,
//     which all nodes of a maximal chain of length >= ell (and no node
//     of a shorter one) conclude simultaneously (relaxed variant: whole
//     chains, no splitting).
//
// A node terminates when assigned; its output encodes
// (kind, layer, sublayer) and the engine's T_v is its assignment round.
#pragma once

#include <cstdint>

#include "decomp/rake_compress.hpp"
#include "graph/tree.hpp"
#include "local/engine.hpp"

namespace lcl::algo {

/// Packs a layer assignment into an engine output and back.
[[nodiscard]] int encode_layer(const decomp::LayerAssignment& a);
[[nodiscard]] decomp::LayerAssignment decode_layer(int encoded);

/// Decodes a completed `DecompositionProgram` run back into a relaxed
/// Decomposition: each node's layer from its output, its peeling step
/// from its termination round, and `num_layers` as the highest layer.
[[nodiscard]] decomp::Decomposition decode_decomposition(
    const graph::Tree& tree, const local::RunStats& stats, int gamma,
    int ell);

class DecompositionProgram final : public local::Program {
 public:
  DecompositionProgram(const graph::Tree& tree, int gamma, int ell);

  void on_init(local::NodeCtx& ctx) override;
  void on_round(local::NodeCtx& ctx) override;

 private:
  struct State {
    int snapshot_degree = -1;
    int dist_left = -1;   ///< saturated distance to a chain end
    int dist_right = -1;
    int chain_ports[2] = {-1, -1};
  };

  [[nodiscard]] std::int64_t window() const { return 2 * gamma_ + ell_ + 3; }

  const graph::Tree& tree_;
  int gamma_;
  int ell_;
  std::vector<State> state_;
};

}  // namespace lcl::algo
