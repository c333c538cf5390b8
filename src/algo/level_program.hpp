// Distributed computation of Definition-8 levels.
//
// The peeling process ("V_i = nodes of remaining degree <= 2") is a
// k-round LOCAL computation: in round i every unpeeled node counts its
// unpeeled neighbors as of the previous round and adopts level i if at
// most two remain. This program exists to *prove by test* that the
// centralized `problems::compute_levels` used by the solvers matches a
// genuinely distributed execution (see tests/test_levels.cpp).
#pragma once

#include <cstdint>

#include "graph/tree.hpp"
#include "local/engine.hpp"

namespace lcl::algo {

/// Runs the k-round distributed peeling; each node terminates in round
/// <= k+1 with its level as the primary output.
class LevelProgram final : public local::Program {
 public:
  LevelProgram(const graph::Tree&, int k) : k_(k) {}

  // Register slot 0: 1 once peeled (level fixed), else empty.
  void on_init(local::NodeCtx&) override {}

  void on_round(local::NodeCtx& ctx) override {
    const std::int64_t round = ctx.round();
    if (round > k_) {
      ctx.terminate(k_ + 1);
      return;
    }
    int unpeeled_neighbors = 0;
    for (int p = 0; p < ctx.degree(); ++p) {
      const local::RegView reg = ctx.peek(p);
      const bool peeled = !reg.empty() && reg[0] == 1;
      if (!peeled) ++unpeeled_neighbors;
    }
    if (unpeeled_neighbors <= 2) {
      ctx.publish({1});
      ctx.terminate(static_cast<int>(round));
      return;
    }
    // The count only changes when a neighbour peels, and that publish
    // wakes this node; otherwise the next thing to do is round k + 1.
    ctx.sleep_until(k_ + 1);
  }

 private:
  int k_;
};

}  // namespace lcl::algo
