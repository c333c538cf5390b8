#include "algo/weight_aug.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "decomp/rake_compress.hpp"
#include "problems/labels.hpp"
#include "problems/levels.hpp"

namespace lcl::algo {

namespace {

using decomp::Decomposition;
using decomp::LayerKind;
using graph::NodeId;
using problems::Color;
using problems::EdgeDir;

GenericOptions make_generic_options(const graph::Tree& tree,
                                    const WeightAugOptions& opt) {
  std::int64_t gamma = opt.gamma;
  if (gamma <= 0) {
    gamma = std::max<std::int64_t>(
        2, static_cast<std::int64_t>(std::ceil(std::pow(
               static_cast<double>(std::max<graph::NodeId>(tree.size(), 2)),
               1.0 / opt.k))));
  }
  GenericOptions g;
  g.variant = problems::Variant::kTwoHalf;
  g.k = opt.k;
  g.gammas.assign(static_cast<std::size_t>(opt.k - 1), gamma);
  g.id_space = opt.id_space;
  return g;
}

}  // namespace

WeightAugProgram::WeightAugProgram(const graph::Tree& tree,
                                   WeightAugOptions options)
    : tree_(tree),
      opt_(std::move(options)),
      generic_(tree, make_generic_options(tree, opt_),
               problems::active_levels(tree, opt_.k)) {
  const NodeId n = tree_.size();
  kind_.assign(static_cast<std::size_t>(n), WKind::kActiveNode);
  label_.assign(static_cast<std::size_t>(n), -1);
  label_round_.assign(static_cast<std::size_t>(n), 0);
  pointee_port_.assign(static_cast<std::size_t>(n), -1);
  orient_.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    orient_[static_cast<std::size_t>(v)].assign(
        static_cast<std::size_t>(tree_.degree(v)), EdgeDir::kNone);
  }

  // ---- Induced weight subgraph -------------------------------------
  std::vector<char> weight_mask(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    weight_mask[static_cast<std::size_t>(v)] = is_active(v) ? 0 : 1;
  }
  std::vector<NodeId> from_sub;
  const graph::Tree sub =
      graph::induced_subgraph(tree_, weight_mask, &from_sub);
  if (sub.size() == 0) return;

  // ---- (gamma, 4, k)-decomposition of the weight subgraph ----------
  // Active-adjacent weight nodes are pinned so they finish last in their
  // component (Definition 67 rule 3 makes them point at the active).
  std::vector<char> pinned(static_cast<std::size_t>(sub.size()), 0);
  for (NodeId s = 0; s < sub.size(); ++s) {
    const NodeId v = from_sub[static_cast<std::size_t>(s)];
    for (NodeId u : tree_.neighbors(v)) {
      if (is_active(u)) pinned[static_cast<std::size_t>(s)] = 1;
    }
  }
  // Retry with doubled gamma until at most k layers result (Lemma 72).
  std::int64_t gamma = std::max<std::int64_t>(
      2, static_cast<std::int64_t>(std::ceil(std::pow(
             static_cast<double>(std::max<graph::NodeId>(n, 2)),
             1.0 / opt_.k))));
  Decomposition dec;
  for (;;) {
    dec = decomp::rake_compress(sub, static_cast<int>(gamma), 4,
                                /*split_paths=*/true, 1 << 20, &pinned);
    if (dec.num_layers <= opt_.k) break;
    gamma *= 2;
  }

  // ---- Lemma 65: labels + orientations ------------------------------
  auto sub_key = [&](NodeId s) {
    return decomp::layer_order_key(
        dec.assignment[static_cast<std::size_t>(s)]);
  };
  auto port_of = [&](NodeId v, NodeId target) {
    const auto nb = tree_.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      if (nb[p] == target) return static_cast<int>(p);
    }
    throw std::logic_error("weight_aug: missing port");
  };
  auto set_oriented = [&](NodeId fromv, NodeId tov) {
    orient_[static_cast<std::size_t>(fromv)]
           [static_cast<std::size_t>(port_of(fromv, tov))] =
               EdgeDir::kOutgoing;
    orient_[static_cast<std::size_t>(tov)]
           [static_cast<std::size_t>(port_of(tov, fromv))] =
               EdgeDir::kIncoming;
  };

  for (NodeId s = 0; s < sub.size(); ++s) {
    const NodeId v = from_sub[static_cast<std::size_t>(s)];
    const auto& a = dec.assignment[static_cast<std::size_t>(s)];
    label_round_[static_cast<std::size_t>(v)] =
        dec.assign_step[static_cast<std::size_t>(s)] + 1;

    if (a.kind == LayerKind::kRake) {
      label_[static_cast<std::size_t>(v)] = problems::rake_label(a.layer);
      kind_[static_cast<std::size_t>(v)] = WKind::kOrphanRoot;
      // Orient toward the unique higher-(sub)layer weight neighbor.
      for (NodeId u_sub : sub.neighbors(s)) {
        if (sub_key(u_sub) > sub_key(s)) {
          const NodeId u = from_sub[static_cast<std::size_t>(u_sub)];
          set_oriented(v, u);
          kind_[static_cast<std::size_t>(v)] = WKind::kPointsWeight;
          pointee_port_[static_cast<std::size_t>(v)] = port_of(v, u);
          break;
        }
      }
    } else {
      // Compress segment: endpoints (<= 1 same-layer neighbor) get
      // R_{layer+1}; interiors get C_layer.
      int same = 0;
      for (NodeId u_sub : sub.neighbors(s)) {
        const auto& au = dec.assignment[static_cast<std::size_t>(u_sub)];
        if (au.kind == LayerKind::kCompress && au.layer == a.layer) ++same;
      }
      const bool endpoint = same <= 1;
      if (endpoint) {
        label_[static_cast<std::size_t>(v)] =
            problems::rake_label(a.layer + 1);
        kind_[static_cast<std::size_t>(v)] = WKind::kOrphanRoot;
        for (NodeId u_sub : sub.neighbors(s)) {
          const auto& au = dec.assignment[static_cast<std::size_t>(u_sub)];
          const bool higher = sub_key(u_sub) > sub_key(s);
          const NodeId u = from_sub[static_cast<std::size_t>(u_sub)];
          if (au.kind == LayerKind::kCompress && au.layer == a.layer) {
            // The adjacent interior points at the endpoint.
            set_oriented(u, v);
          } else if (higher) {
            set_oriented(v, u);
            kind_[static_cast<std::size_t>(v)] = WKind::kPointsWeight;
            pointee_port_[static_cast<std::size_t>(v)] = port_of(v, u);
          }
        }
      } else {
        label_[static_cast<std::size_t>(v)] =
            problems::compress_label(a.layer);
        kind_[static_cast<std::size_t>(v)] = WKind::kMustDecline;
      }
    }
  }

  // Raked subtree edges: every rake node also *receives* orientations
  // from its lower neighbors, which `set_oriented` already recorded from
  // the child's side.

  // ---- Rule 3 of Definition 67: actives dominate orientation --------
  for (NodeId v = 0; v < n; ++v) {
    if (is_active(v)) continue;
    const auto nb = tree_.neighbors(v);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      if (!is_active(nb[p])) continue;
      // Point to the first active neighbor; requires no prior pointee
      // (true for Definition-25-style instances, asserted here).
      if (kind_[static_cast<std::size_t>(v)] == WKind::kPointsWeight) {
        throw std::logic_error(
            "weight_aug: active-adjacent weight node already points at a "
            "weight node");
      }
      if (kind_[static_cast<std::size_t>(v)] == WKind::kMustDecline) {
        // Rule 5: compress nodes adjacent to an active must copy instead.
        // Keep the compress label but copy (handled as kPointsActive).
      }
      kind_[static_cast<std::size_t>(v)] = WKind::kPointsActive;
      pointee_port_[static_cast<std::size_t>(v)] = static_cast<int>(p);
      orient_[static_cast<std::size_t>(v)][p] = EdgeDir::kOutgoing;
      orient_[static_cast<std::size_t>(nb[p])]
             [static_cast<std::size_t>(port_of(nb[p], v))] =
                 EdgeDir::kIncoming;
      break;
    }
  }
}

void WeightAugProgram::on_init(local::NodeCtx& ctx) {
  if (is_active(ctx.node())) generic_.on_init(ctx);
}

void WeightAugProgram::on_round(local::NodeCtx& ctx) {
  const NodeId v = ctx.node();
  if (is_active(v)) {
    generic_.on_round(ctx);
    return;
  }

  const std::int64_t r = ctx.round();
  if (r < label_round_[static_cast<std::size_t>(v)]) {
    ctx.sleep_until(label_round_[static_cast<std::size_t>(v)]);
    return;
  }
  const int lab = label_[static_cast<std::size_t>(v)];

  switch (kind_[static_cast<std::size_t>(v)]) {
    case WKind::kActiveNode:
      throw std::logic_error("weight_aug: active routed to weight logic");

    case WKind::kMustDecline:
      ctx.publish({-1});
      ctx.terminate(lab, -1);
      return;

    case WKind::kOrphanRoot:
      // No pointee anywhere: free choice of secondary (W).
      ctx.publish({static_cast<std::int64_t>(Color::kW)});
      ctx.terminate(lab, static_cast<int>(Color::kW));
      return;

    case WKind::kPointsActive: {
      const int pp = pointee_port_[static_cast<std::size_t>(v)];
      if (!ctx.neighbor_terminated(pp)) {
        ctx.sleep_until(local::NodeCtx::kNever);  // until the pointee ends
        return;
      }
      const int sec = ctx.neighbor_output(pp).primary;
      ctx.publish({sec});
      ctx.terminate(lab, sec);
      return;
    }

    case WKind::kPointsWeight: {
      const int pp = pointee_port_[static_cast<std::size_t>(v)];
      const local::RegView reg = ctx.peek(pp);
      if (reg.empty()) {
        ctx.sleep_until(local::NodeCtx::kNever);  // until the pointee ends
        return;
      }
      const std::int64_t sec = reg[0];
      ctx.publish({sec});
      ctx.terminate(lab, static_cast<int>(sec));
      return;
    }
  }
}

}  // namespace lcl::algo
