// Randomized 3-coloring of paths with O(1) *expected node-averaged*
// complexity — the witness for the randomized side of the landscape
// (Figures 1/2: randomized node-averaged complexity on trees is either
// O(1) or n^{Omega(1)}; every sub-polynomial problem drops to O(1)).
//
// Protocol (per round): every undecided node proposes a uniformly random
// color; a node fixes its previous proposal once it conflicts with no
// already-fixed neighbor and ties with no undecided neighbor of higher
// LOCAL id. Each node survives a round with probability bounded away
// from 1, so termination times are geometric: node-average O(1),
// worst case O(log n) w.h.p. Randomness is deterministic per (seed,
// node), so runs reproduce.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/tree.hpp"
#include "local/engine.hpp"

namespace lcl::algo {

/// Randomized path/tree coloring with `colors` >= max degree + 1.
class RandomColoringProgram final : public local::Program {
 public:
  RandomColoringProgram(const graph::Tree& tree, int colors,
                        std::uint64_t seed);

  void on_init(local::NodeCtx& ctx) override;
  void on_round(local::NodeCtx& ctx) override;

 private:
  [[nodiscard]] int draw(graph::NodeId v);

  const graph::Tree& tree_;
  int colors_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> state_;  ///< per-node PRNG state
  std::vector<int> proposal_;         ///< previous round's proposal
};

}  // namespace lcl::algo
