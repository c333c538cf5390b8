#include "algo/pi35.hpp"

#include <stdexcept>

#include "problems/labels.hpp"
#include "problems/levels.hpp"

namespace lcl::algo {

namespace {

using graph::NodeId;
using problems::WeightOut;

FastDecompPlan make_plan(const graph::Tree& tree, int d) {
  const problems::WeightSubgraph w = problems::weight_subgraph(tree);
  return run_fast_decomposition(tree, w.participates, w.is_a, d);
}

}  // namespace

Pi35Program::Pi35Program(const graph::Tree& tree, Pi35Options options)
    : tree_(tree),
      opt_(std::move(options)),
      generic_(tree,
               GenericOptions{problems::Variant::kThreeHalf, opt_.k,
                              opt_.gammas, opt_.id_space,
                              opt_.symmetry_pad},
               problems::active_levels(tree, opt_.k)),
      plan_(make_plan(tree, opt_.d)) {
  case_of_comp_.assign(plan_.components.size(), 0);
}

std::size_t Pi35Program::state_bytes() const {
  return generic_.state_bytes() + plan_.state_bytes() +
         case_of_comp_.capacity();
}

void Pi35Program::on_init(local::NodeCtx& ctx) {
  if (is_active(ctx.node())) generic_.on_init(ctx);
}

void Pi35Program::resolve_component(local::NodeCtx& ctx, NodeId root) {
  const std::int32_t comp = plan_.comp[static_cast<std::size_t>(root)];
  // Case 1 iff some active neighbor has already terminated.
  bool active_done = false;
  const auto nb = tree_.neighbors(root);
  for (std::size_t p = 0; p < nb.size(); ++p) {
    if (is_active(nb[p]) && ctx.neighbor_terminated(static_cast<int>(p))) {
      active_done = true;
      break;
    }
  }
  if (active_done) {
    case_of_comp_[static_cast<std::size_t>(comp)] = 1;
    return;
  }
  // Case 2: prune to C'(v); pruned members decline, one hop per round.
  case_of_comp_[static_cast<std::size_t>(comp)] = 2;
  const std::int64_t round = ctx.round();
  const std::vector<char> keep =
      prune_component(tree_, plan_, comp, opt_.d, [this, round](NodeId u) {
        return declined(u, round);
      });
  const auto& members =
      plan_.components[static_cast<std::size_t>(comp)];
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (keep[i]) continue;
    const NodeId m = members[i];
    plan_.ready_round[static_cast<std::size_t>(m)] = static_cast<std::int32_t>(
        ctx.round() + plan_.comp_depth[static_cast<std::size_t>(m)]);
  }
}

void Pi35Program::on_round(local::NodeCtx& ctx) {
  const NodeId v = ctx.node();
  if (is_active(v)) {
    generic_.on_round(ctx);
    return;
  }

  const FdaRole role = plan_.role[static_cast<std::size_t>(v)];
  const std::int64_t r = ctx.round();

  switch (role) {
    case FdaRole::kInactive:
      throw std::logic_error("pi35: weight node without a role");

    case FdaRole::kConnect:
    case FdaRole::kDecline: {
      const int out = role == FdaRole::kConnect
                          ? static_cast<int>(WeightOut::kConnect)
                          : static_cast<int>(WeightOut::kDecline);
      const std::int64_t ready =
          plan_.ready_round[static_cast<std::size_t>(v)];
      if (r >= ready) {
        ctx.terminate(out);
      } else {
        ctx.sleep_until(ready);
      }
      return;
    }

    case FdaRole::kCopyRoot: {
      const std::int64_t decide =
          plan_.ready_round[static_cast<std::size_t>(v)];
      if (r < decide) {
        ctx.sleep_until(decide);
        return;
      }
      const std::int32_t comp = plan_.comp[static_cast<std::size_t>(v)];
      if (case_of_comp_[static_cast<std::size_t>(comp)] == 0) {
        resolve_component(ctx, v);
      }
      // Flood: adopt the first terminated active neighbor's label.
      const auto nb = tree_.neighbors(v);
      for (std::size_t p = 0; p < nb.size(); ++p) {
        if (!is_active(nb[p])) continue;
        if (ctx.neighbor_terminated(static_cast<int>(p))) {
          const int label =
              ctx.neighbor_output(static_cast<int>(p)).primary;
          ctx.publish({label});
          ctx.terminate(static_cast<int>(WeightOut::kCopy), label);
          return;
        }
      }
      // Only an active neighbour's termination can start the flood.
      ctx.sleep_until(local::NodeCtx::kNever);
      return;
    }

    case FdaRole::kCopyMember: {
      // The root resolves at exactly its decision round, so a pruning
      // Decline fires at earliest_prune, comp_depth rounds later, and the
      // prune round is read only from then on: the root wrote it in an
      // earlier round. Before that, and for kept members after it, only
      // the parent's flood can arrive.
      const NodeId root = plan_.components[static_cast<std::size_t>(
          plan_.comp[static_cast<std::size_t>(v)])][0];
      const std::int64_t earliest_prune =
          plan_.ready_round[static_cast<std::size_t>(root)] +
          plan_.comp_depth[static_cast<std::size_t>(v)];
      if (r >= earliest_prune &&
          plan_.ready_round[static_cast<std::size_t>(v)] > 0) {
        ctx.terminate(static_cast<int>(WeightOut::kDecline));
        return;
      }
      // Kept members listen for the flood from their parent.
      const int pp = plan_.flood_parent_port[static_cast<std::size_t>(v)];
      const local::RegView reg = ctx.peek(pp);
      if (!reg.empty()) {
        ctx.publish({reg[0]});
        ctx.terminate(static_cast<int>(WeightOut::kCopy),
                      static_cast<int>(reg[0]));
        return;
      }
      ctx.sleep_until(r < earliest_prune ? earliest_prune
                                         : local::NodeCtx::kNever);
      return;
    }
  }
}

}  // namespace lcl::algo
