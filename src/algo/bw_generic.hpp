// Engine wrapper for the Section-11 generic solver on sampled BwTables.
//
// The label computation is centralized (bw::solve_tree_bw, falling back
// to the exact bw::solve_tree_bw_global), and every node is charged the
// locality-equivalent round count of the distributed schedule — the same
// convention as the other centralized registry wrappers (DESIGN.md,
// "The solver registry"):
//
//   * flexible mode (the rectangle solver succeeded): node v terminates
//     at its peel step `assign_step[v]` — the distributed round in which
//     it learns its layer, taken from the decomposition solve_tree_bw
//     swept (TreeBwResult::assign_step); the geometric layer decay makes
//     the node-average O(1) (Theorem 7's constant-good side).
//   * split surcharge: a compress chain whose realized compress problem
//     (the chain's committed boundary label-sets, Definition 77) does
//     not classify O(1) must be split by symmetry breaking; its nodes
//     additionally pay kSplitPad + cv_total_rounds(n) — the actual
//     Linial/Cole-Vishkin round account on the instance's ID space.
//   * global mode (rectangles failed, exact DP succeeded): no node can
//     commit before the full bottom-up/top-down echo, so v pays
//     2 * depth - assign_step[v] — Theta(log n) for everyone.
//   * infeasible: both solvers rejected; the program terminates
//     immediately with output -1 and `solved() == false`, and the
//     registry certifier reports the instance as infeasible.
//
// Every node sleeps until its charge round, so the engine visits a node
// at its termination and on neighbour wake-ups only, not every round.
//
// Certification recovers the full edge labeling from the program
// (downcast, like the weight-augmented orientation map) and re-checks it
// with the independent bw::check_tree_bw.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/tree.hpp"
#include "local/engine.hpp"
#include "problems/lclgen.hpp"

namespace lcl::algo {

/// Which schedule the wrapper charged.
enum class BwMode : int {
  kFlexible = 0,       ///< rectangle solve, no chain needed splitting
  kFlexibleSplit = 1,  ///< rectangle solve, >= 1 chain split surcharge
  kGlobal = 2,         ///< exact DP, full-depth schedule
  kInfeasible = 3,     ///< no labeling exists on this instance
};

[[nodiscard]] const char* to_string(BwMode m);

class BwGenericProgram final : public local::Program {
 public:
  /// Flat surcharge added on top of the Cole-Vishkin round account when
  /// a chain splits, so split runs are magnitude-separated from O(1)
  /// runs at every sweep size (see classify.hpp's thresholds).
  static constexpr std::int64_t kSplitPad = 16;

  BwGenericProgram(const graph::Tree& tree, problems::BwTable table);

  /// Every node only waits for its charge round; a neighbour that
  /// terminates earlier wakes it, and that visit sleeps again.
  void on_init(local::NodeCtx& ctx) override;
  void on_round(local::NodeCtx& ctx) override;

  [[nodiscard]] bool solved() const { return mode_ != BwMode::kInfeasible; }
  [[nodiscard]] BwMode mode() const { return mode_; }
  [[nodiscard]] const std::vector<int>& edge_labels() const {
    return edge_labels_;
  }
  [[nodiscard]] const std::string& failure() const { return failure_; }
  [[nodiscard]] const problems::BwTable& table() const { return table_; }

 private:
  problems::BwTable table_;
  BwMode mode_ = BwMode::kInfeasible;
  std::vector<std::int64_t> round_of_;
  std::vector<int> out_;
  std::vector<int> edge_labels_;  ///< per bw::EdgeIndex edge id
  std::string failure_;
};

}  // namespace lcl::algo
