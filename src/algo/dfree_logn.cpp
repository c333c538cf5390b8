#include "algo/dfree_logn.hpp"

#include <stdexcept>

#include "algo/connect_paths.hpp"
#include "algo/heavy_decline.hpp"

namespace lcl::algo {

namespace {

using problems::WeightOut;

std::int64_t ceil_log_base(std::int64_t n, std::int64_t base) {
  std::int64_t r = 0;
  std::int64_t v = 1;
  while (v < n) {
    v *= base;
    ++r;
  }
  return r;
}

}  // namespace

DFreeResult run_dfree_algorithm_a(const Tree& tree,
                                  const std::vector<char>& participates,
                                  const std::vector<char>& is_a, int d,
                                  std::int64_t n_for_radius) {
  if (d < 1) throw std::invalid_argument("dfree: d >= 1");
  const NodeId n = tree.size();
  DFreeResult res;
  res.output.assign(static_cast<std::size_t>(n), -1);
  res.copy_root.assign(static_cast<std::size_t>(n), graph::kInvalidNode);
  res.copy_depth.assign(static_cast<std::size_t>(n), -1);

  const std::int64_t logd = ceil_log_base(n_for_radius, d + 1);
  const std::int64_t ball_radius = logd + 1;
  const std::int64_t connect_bound = 2 * logd + 2;
  res.view_radius = 3 * logd + 3;

  auto in = [&](NodeId v) {
    return participates[static_cast<std::size_t>(v)] != 0;
  };

  // Default: every participant Declines unless a later rule overrides.
  for (NodeId v = 0; v < n; ++v) {
    if (in(v)) {
      res.output[static_cast<std::size_t>(v)] =
          static_cast<int>(WeightOut::kDecline);
    }
  }

  // --- Connect rule -------------------------------------------------
  // Exactly the nodes on a path of length <= connect_bound between two
  // input-A nodes output Connect: BFS from each A-node to the bound with
  // parent recording, then walk back the unique tree path from every
  // other A-node discovered. (Within a weight component, balls from
  // distinct A-nodes stay inside the component, so the total work is
  // linear for the paper's instances.)
  mark_connect_paths(tree, participates, is_a, connect_bound,
                     [&](NodeId v) {
                       res.output[static_cast<std::size_t>(v)] =
                           static_cast<int>(WeightOut::kConnect);
                     });

  // --- A* assignment around each non-Connect A-node ------------------
  // The ball arrays are reused across A-nodes; `in_ball` is reset
  // through `order` after each ball, so the loop costs the balls, not n.
  std::vector<char> in_ball(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> order;           // BFS order
  std::vector<std::size_t> parent_of;  // parallel: parent's index
  std::vector<int> depth_of;           // parallel to order
  std::vector<int> budget;
  for (NodeId v = 0; v < n; ++v) {
    if (!in(v) || !is_a[static_cast<std::size_t>(v)]) continue;
    if (res.output[static_cast<std::size_t>(v)] ==
        static_cast<int>(WeightOut::kConnect)) {
      continue;
    }

    // BFS ball of radius ball_radius rooted at v; record parents so the
    // ball is a rooted tree.
    in_ball[static_cast<std::size_t>(v)] = 1;
    order.assign(1, v);
    parent_of.assign(1, 0);
    depth_of.assign(1, 0);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const int du = depth_of[head];
      if (du == ball_radius) continue;
      for (NodeId w : tree.neighbors(order[head])) {
        if (!in(w) || in_ball[static_cast<std::size_t>(w)]) continue;
        in_ball[static_cast<std::size_t>(w)] = 1;
        order.push_back(w);
        parent_of.push_back(head);
        depth_of.push_back(du + 1);
      }
    }

    // A*: root Copy; every Copy node Declines its min(d, #children)
    // heaviest child subtrees, keeps the rest Copy. Declined subtrees
    // stay at the default Decline.
    budget.assign(order.size(), d);
    const std::vector<char> keep = heavy_child_decline(parent_of, budget);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto w = static_cast<std::size_t>(order[i]);
      in_ball[w] = 0;
      if (!keep[i]) continue;
      res.output[w] = static_cast<int>(WeightOut::kCopy);
      res.copy_root[w] = v;
      res.copy_depth[w] = depth_of[i];
    }
  }

  return res;
}

}  // namespace lcl::algo
