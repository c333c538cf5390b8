#include "algo/bw_generic.hpp"

#include <algorithm>

#include "algo/cole_vishkin.hpp"
#include "bw/path_lcl.hpp"
#include "bw/tree_problem.hpp"
#include "problems/classify.hpp"

namespace lcl::algo {

const char* to_string(BwMode m) {
  switch (m) {
    case BwMode::kFlexible: return "flexible";
    case BwMode::kFlexibleSplit: return "flexible+split";
    case BwMode::kGlobal: return "global";
    case BwMode::kInfeasible: return "infeasible";
  }
  return "?";
}

BwGenericProgram::BwGenericProgram(const graph::Tree& tree,
                                   problems::BwTable table)
    : table_(std::move(table)) {
  const auto n = static_cast<std::size_t>(tree.size());
  round_of_.assign(n, 1);
  out_.assign(n, -1);

  bw::TreeBwResult result = bw::solve_tree_bw(tree, table_);
  const std::vector<int>& step = result.assign_step;
  bw::EdgeIndex edges;  // keys edge_labels_
  if (result.solved) {
    mode_ = BwMode::kFlexible;
    edge_labels_ = std::move(result.edge_label);
    edges = std::move(result.edges);
    for (std::size_t v = 0; v < n; ++v) {
      round_of_[v] = std::max(1, step[v]);
    }
    // Per-chain split decision on the *realized* compress problems: the
    // chain's committed boundary label-sets restrict the path
    // restriction; a non-O(1) class means the interior needs symmetry
    // breaking, charged at the actual Cole-Vishkin account for the
    // instance's ID space.
    const bw::PathLcl path = problems::path_restriction(table_);
    const std::int64_t split_cost =
        kSplitPad +
        cv_total_rounds(std::max<std::int64_t>(tree.size(), 4));
    for (const bw::ChainRecord& chain : result.chains) {
      const bw::PathLcl compress = bw::with_boundaries(
          path, chain.left != 0 ? chain.left : path.left_boundary,
          chain.right != 0 ? chain.right : path.right_boundary);
      if (bw::classify(compress) != bw::PathComplexity::kConstant) {
        mode_ = BwMode::kFlexibleSplit;
        for (const graph::NodeId v : chain.nodes) {
          round_of_[static_cast<std::size_t>(v)] += split_cost;
        }
      }
    }
  } else {
    const std::string flexible_failure = result.failure;
    bw::TreeBwResult exact = bw::solve_tree_bw_global(tree, table_);
    if (exact.solved) {
      mode_ = BwMode::kGlobal;
      edge_labels_ = std::move(exact.edge_label);
      edges = std::move(exact.edges);
      int depth = 1;
      for (std::size_t v = 0; v < n; ++v) depth = std::max(depth, step[v]);
      for (std::size_t v = 0; v < n; ++v) {
        round_of_[v] =
            2 * static_cast<std::int64_t>(depth) - std::max(1, step[v]);
      }
    } else {
      mode_ = BwMode::kInfeasible;
      failure_ = "flexible: " + flexible_failure +
                 "; exact: " + exact.failure;
      return;
    }
  }

  // Per-node output: the label of the node's port-0 edge (leaves report
  // their unique incident label), read through the solver's own edge
  // index. The checker grades the full edge labeling recovered by
  // downcast, not these.
  for (graph::NodeId v = 0; v < tree.size(); ++v) {
    if (tree.degree(v) == 0) continue;
    out_[static_cast<std::size_t>(v)] =
        edge_labels_[static_cast<std::size_t>(edges.of(tree, v, 0))];
  }
}

void BwGenericProgram::on_init(local::NodeCtx& ctx) {
  ctx.sleep_until(round_of_[static_cast<std::size_t>(ctx.node())]);
}

void BwGenericProgram::on_round(local::NodeCtx& ctx) {
  const auto v = static_cast<std::size_t>(ctx.node());
  if (ctx.round() < round_of_[v]) {
    ctx.sleep_until(round_of_[v]);
    return;
  }
  ctx.terminate(out_[v]);
}

}  // namespace lcl::algo
