#include "algo/decomp_program.hpp"

#include <algorithm>
#include <stdexcept>

namespace lcl::algo {

namespace {

using graph::NodeId;

// Register layout: [snapshot_degree, tgt0|d0, tgt1|d1], where tgt|d is
// the addressed chain neighbour and the saturated end distance packed
// into one word (`local::pack_entry`), kNone when a side has no entry.
// Whether a neighbour is still alive is whether it has visibly
// terminated.
constexpr std::size_t kRegSize = 3;
constexpr std::int64_t kNone = -1;

}  // namespace

int encode_layer(const decomp::LayerAssignment& a) {
  const int kind_bit = a.kind == decomp::LayerKind::kCompress ? 1 : 0;
  return (a.layer << 13) | (a.sublayer << 1) | kind_bit;
}

decomp::LayerAssignment decode_layer(int encoded) {
  decomp::LayerAssignment a;
  a.kind = (encoded & 1) ? decomp::LayerKind::kCompress
                         : decomp::LayerKind::kRake;
  a.sublayer = (encoded >> 1) & ((1 << 12) - 1);
  a.layer = encoded >> 13;
  return a;
}

decomp::Decomposition decode_decomposition(const graph::Tree& tree,
                                           const local::RunStats& stats,
                                           int gamma, int ell) {
  decomp::Decomposition d;
  d.gamma = gamma;
  d.ell = ell;
  d.relaxed = true;
  d.assignment.resize(static_cast<std::size_t>(tree.size()));
  d.assign_step.resize(static_cast<std::size_t>(tree.size()));
  for (NodeId v = 0; v < tree.size(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    d.assignment[i] = decode_layer(stats.output[i].primary);
    d.assign_step[i] = static_cast<int>(stats.termination_round[i]);
    d.num_layers = std::max(d.num_layers, d.assignment[i].layer);
  }
  return d;
}

DecompositionProgram::DecompositionProgram(const graph::Tree& tree,
                                           int gamma, int ell)
    : tree_(tree), gamma_(gamma), ell_(ell) {
  if (gamma < 1 || ell < 2) {
    throw std::invalid_argument("decomp program: gamma >= 1, ell >= 2");
  }
  state_.assign(static_cast<std::size_t>(tree.size()), State{});
}

void DecompositionProgram::on_init(local::NodeCtx& ctx) {
  ctx.publish({ctx.degree(), kNone, kNone});
}

void DecompositionProgram::on_round(local::NodeCtx& ctx) {
  const NodeId v = ctx.node();
  State& st = state_[static_cast<std::size_t>(v)];
  // The window position is derived from the round in every visit: the
  // program keeps no state shared between nodes.
  const std::int64_t r = ctx.round();
  const std::int64_t iter = (r - 1) / window();
  const std::int64_t offset = (r - 1) % window();
  const int layer = static_cast<int>(iter) + 1;

  auto neighbor_alive = [&](int p) { return !ctx.neighbor_terminated(p); };
  auto neighbor_snapshot_degree = [&](int p) { return ctx.peek(p)[0]; };

  // ---- Rake sub-steps ------------------------------------------------
  if (offset < 2 * gamma_) {
    const bool snapshot_round = (offset % 2 == 0);
    const int substep = static_cast<int>(offset / 2) + 1;
    if (snapshot_round) {
      int deg = 0;
      for (int p = 0; p < ctx.degree(); ++p) deg += neighbor_alive(p);
      st.snapshot_degree = deg;
      ctx.publish({deg, kNone, kNone});
      return;
    }
    // Decision round.
    if (st.snapshot_degree > 1) return;
    bool deferred = false;
    for (int p = 0; p < ctx.degree(); ++p) {
      if (!neighbor_alive(p)) continue;
      const std::int64_t nd = neighbor_snapshot_degree(p);
      const NodeId u = tree_.neighbors(v)[static_cast<std::size_t>(p)];
      if (nd >= 0 && nd <= 1 && tree_.local_id(u) < tree_.local_id(v)) {
        deferred = true;
        break;
      }
    }
    if (deferred) return;
    ctx.terminate(encode_layer(
        {decomp::LayerKind::kRake, layer, substep}));
    return;
  }

  // ---- Compress step --------------------------------------------------
  // A node that is not a chain node this window has nothing to do until
  // the next window's first snapshot; a chain neighbour's wave publish
  // wakes it early, and that visit only re-sleeps.
  const std::int64_t c = offset - 2 * gamma_;
  const std::int64_t next_window = (iter + 1) * window() + 1;
  if (c == 0) {
    // Snapshot for the compress phase.
    int deg = 0;
    for (int p = 0; p < ctx.degree(); ++p) deg += neighbor_alive(p);
    st.snapshot_degree = deg;
    ctx.publish({deg, kNone, kNone});
    if (deg != 2) ctx.sleep_until(next_window);
    return;
  }
  if (st.snapshot_degree != 2) {
    ctx.sleep_until(next_window);
    return;
  }

  if (c == 1) {
    // Identify chain ports (alive neighbors with snapshot degree 2) and
    // seed the end-distance waves.
    st.chain_ports[0] = st.chain_ports[1] = -1;
    st.dist_left = st.dist_right = -1;
    int found = 0;
    for (int p = 0; p < ctx.degree() && found < 2; ++p) {
      if (neighbor_alive(p) && neighbor_snapshot_degree(p) == 2) {
        st.chain_ports[found++] = p;
      }
    }
    // A missing chain neighbor on a side makes this node the end there.
    if (st.chain_ports[0] < 0) st.dist_left = 0;
    if (st.chain_ports[1] < 0) st.dist_right = 0;
  }

  auto side_dist = [&](int s) {
    return s == 0 ? st.dist_left : st.dist_right;
  };
  auto set_side_dist = [&](int s, int d) {
    (s == 0 ? st.dist_left : st.dist_right) = d;
  };

  if (c >= 2 && c <= 1 + ell_) {
    // Receive: the entry a chain neighbor addressed to us carries its
    // distance to the end on its far side; ours is one more (saturated).
    for (int s = 0; s < 2; ++s) {
      const int p = st.chain_ports[s];
      if (p < 0 || side_dist(s) >= 0) continue;
      const local::RegView reg = ctx.peek(p);
      for (std::size_t e = 1; e < kRegSize; ++e) {
        if (local::entry_target(reg[e]) == v) {
          set_side_dist(s, std::min(ell_, local::entry_value(reg[e]) + 1));
        }
      }
    }
  }
  if (c >= 1 && c <= 1 + ell_) {
    // Publish toward each chain port the distance on the *other* side.
    std::int64_t out[kRegSize] = {st.snapshot_degree, kNone, kNone};
    bool any = false;
    for (int s = 0; s < 2; ++s) {
      const int p = st.chain_ports[s];
      const int other = side_dist(1 - s);
      if (p < 0 || other < 0) continue;
      out[1 + static_cast<std::size_t>(s)] = local::pack_entry(
          tree_.neighbors(v)[static_cast<std::size_t>(p)], other);
      any = true;
    }
    if (any) ctx.publish(local::RegView(out, kRegSize));
    return;
  }

  if (c == 2 + ell_) {
    // Decision: saturated end distances; unknown means >= ell.
    const int dl = st.dist_left >= 0 ? st.dist_left : ell_;
    const int dr = st.dist_right >= 0 ? st.dist_right : ell_;
    if (dl + dr >= ell_ - 1) {
      ctx.terminate(encode_layer({decomp::LayerKind::kCompress, layer, 0}));
    }
    return;
  }
}

}  // namespace lcl::algo
