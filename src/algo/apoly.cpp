#include "algo/apoly.hpp"

#include <stdexcept>

#include <deque>

#include "problems/labels.hpp"
#include "problems/levels.hpp"

namespace lcl::algo {

namespace {

using graph::NodeId;
using problems::WeightOut;

}  // namespace

ApolyProgram::ApolyProgram(const graph::Tree& tree, ApolyOptions options)
    : tree_(tree),
      opt_(std::move(options)),
      generic_(tree,
               GenericOptions{problems::Variant::kTwoHalf, opt_.k,
                              opt_.gammas, opt_.id_space,
                              opt_.symmetry_pad},
               problems::active_levels(tree, opt_.k)) {
  // Algorithm A on the weight subgraph: participants are weight nodes,
  // input-A nodes are the weight nodes adjacent to at least one active.
  const NodeId n = tree_.size();
  const auto [participates, is_a] = problems::weight_subgraph(tree_);
  if (opt_.naive_all_copy) {
    // Every weight node copies; components root at an arbitrary input-A
    // node (BFS over the weight subgraph from all A-nodes at once).
    dfree_.output.assign(static_cast<std::size_t>(n), -1);
    dfree_.copy_root.assign(static_cast<std::size_t>(n),
                            graph::kInvalidNode);
    dfree_.copy_depth.assign(static_cast<std::size_t>(n), -1);
    dfree_.view_radius = 1;
    std::deque<NodeId> q;
    for (NodeId v = 0; v < n; ++v) {
      if (is_a[static_cast<std::size_t>(v)]) {
        dfree_.output[static_cast<std::size_t>(v)] =
            static_cast<int>(WeightOut::kCopy);
        dfree_.copy_root[static_cast<std::size_t>(v)] = v;
        dfree_.copy_depth[static_cast<std::size_t>(v)] = 0;
        q.push_back(v);
      }
    }
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      for (NodeId w : tree_.neighbors(u)) {
        if (!participates[static_cast<std::size_t>(w)] ||
            dfree_.copy_depth[static_cast<std::size_t>(w)] >= 0) {
          continue;
        }
        dfree_.output[static_cast<std::size_t>(w)] =
            static_cast<int>(WeightOut::kCopy);
        dfree_.copy_root[static_cast<std::size_t>(w)] =
            dfree_.copy_root[static_cast<std::size_t>(u)];
        dfree_.copy_depth[static_cast<std::size_t>(w)] =
            dfree_.copy_depth[static_cast<std::size_t>(u)] + 1;
        q.push_back(w);
      }
    }
  } else {
    dfree_ = run_dfree_algorithm_a(tree_, participates, is_a, opt_.d, n);
  }

  // Flood tree: each non-root Copy node points to a neighbor in the same
  // component with depth one less.
  flood_parent_port_.assign(static_cast<std::size_t>(n), -1);
  for (NodeId v = 0; v < n; ++v) {
    if (dfree_.output[static_cast<std::size_t>(v)] !=
            static_cast<int>(WeightOut::kCopy) ||
        dfree_.copy_depth[static_cast<std::size_t>(v)] <= 0) {
      continue;
    }
    const auto nb = tree_.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      const NodeId u = nb[p];
      if (dfree_.copy_root[static_cast<std::size_t>(u)] ==
              dfree_.copy_root[static_cast<std::size_t>(v)] &&
          dfree_.copy_depth[static_cast<std::size_t>(u)] ==
              dfree_.copy_depth[static_cast<std::size_t>(v)] - 1) {
        flood_parent_port_[static_cast<std::size_t>(v)] =
            static_cast<int>(p);
        break;
      }
    }
    if (flood_parent_port_[static_cast<std::size_t>(v)] < 0) {
      throw std::logic_error("apoly: Copy node without flood parent");
    }
  }
}

void ApolyProgram::on_init(local::NodeCtx& ctx) {
  if (is_active(ctx.node())) generic_.on_init(ctx);
}

void ApolyProgram::on_round(local::NodeCtx& ctx) {
  const NodeId v = ctx.node();
  if (is_active(v)) {
    generic_.on_round(ctx);
    return;
  }

  const int out = dfree_.output[static_cast<std::size_t>(v)];
  const std::int64_t r = ctx.round();

  if (out == static_cast<int>(WeightOut::kConnect) ||
      out == static_cast<int>(WeightOut::kDecline)) {
    // Algorithm A is a view computation of radius view_radius; its
    // non-waiting outputs are charged exactly that many rounds.
    if (r >= dfree_.view_radius) {
      ctx.terminate(out);
    } else {
      ctx.sleep_until(dfree_.view_radius);
    }
    return;
  }

  // Copy nodes: wait for the label, then flood it downward.
  if (r < dfree_.view_radius) {
    ctx.sleep_until(dfree_.view_radius);
    return;
  }
  std::int64_t label = -1;
  if (dfree_.copy_depth[static_cast<std::size_t>(v)] == 0) {
    // Component root (input-A): adopt the output of the first active
    // neighbor to terminate (smallest port on ties).
    const auto nb = tree_.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      if (!is_active(nb[p])) continue;
      if (ctx.neighbor_terminated(static_cast<int>(p))) {
        label = ctx.neighbor_output(static_cast<int>(p)).primary;
        break;
      }
    }
  } else {
    const int pp = flood_parent_port_[static_cast<std::size_t>(v)];
    const local::RegView reg = ctx.peek(pp);
    if (!reg.empty()) label = reg[0];
  }
  if (label >= 0) {
    ctx.publish({label});
    ctx.terminate(static_cast<int>(WeightOut::kCopy),
                  static_cast<int>(label));
  } else {
    // Only the label's arrival from a neighbour can change anything.
    ctx.sleep_until(local::NodeCtx::kNever);
  }
}

}  // namespace lcl::algo
