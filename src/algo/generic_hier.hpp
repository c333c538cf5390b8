// The generic algorithm for k-hierarchical 2.5- and 3.5-coloring
// (Section 4.1), as a LOCAL-engine program.
//
// Phase i < k (parameter gamma_i): the still-alive level-i nodes detect,
// by endpoint-initiated waves, whether their induced path is shorter than
// gamma_i. Short paths 2-color consistently (parity anchored at the
// endpoint with the smaller LOCAL id); long paths output Decline at a
// fixed deadline. Between phases, higher-level nodes adjacent to a
// lower-level W/B/E node output Exempt (the "iff" rule of Definitions
// 8/9); the inter-phase gap of k+6 rounds lets Exempt chains settle.
//
// Phase k: the remaining level-k nodes either 2-color by the same wave
// (2.5 variant, Theta(path length)) or 3-color by iterated Cole-Vishkin
// reduction (3.5 variant, Theta(log* K) + `symmetry_pad` rounds; see
// DESIGN.md Substitution 1 for the virtual-log* pad).
//
// The program only drives nodes whose input label is Active
// (graph::WeightInput::kActive, the default input 0); composite solvers
// (A_poly, the Pi^{3.5} solver) embed it and route weight nodes to their
// own logic. Levels are precomputed on the active subgraph — a constant-
// round LOCAL computation for constant k (see `LevelProgram` for the
// distributed version and the test that they agree).
//
// Each step has one body, written against `NodeCtx`. Where a node only
// waits — for its phase, a wave or its Decline deadline, or through the
// Cole-Vishkin pad — it calls `sleep_until`, so the default dispatch
// skips it until then (DESIGN.md, "Sleep").
#pragma once

#include <cstdint>
#include <vector>

#include "graph/builders.hpp"
#include "graph/tree.hpp"
#include "local/engine.hpp"
#include "problems/labels.hpp"

namespace lcl::algo {

using graph::NodeId;
using graph::Tree;

/// Tuning knobs of the generic algorithm.
struct GenericOptions {
  problems::Variant variant = problems::Variant::kTwoHalf;
  int k = 1;
  /// gamma_1..gamma_{k-1}; empty for k = 1. Each must be >= 2.
  std::vector<std::int64_t> gammas;
  /// Size of the initial color palette for Cole-Vishkin (3.5 phase k);
  /// must exceed every LOCAL id. 0 means "use the number of nodes".
  std::int64_t id_space = 0;
  /// Virtual-log* target Lambda: the level-k 3-coloring phase is padded
  /// so its total round count is max(natural CV cost, Lambda), modeling
  /// an ID space of tower height Lambda (DESIGN.md Substitution 1).
  /// 0 = real log* only (no padding).
  std::int64_t symmetry_pad = 0;
};

/// The generic algorithm (Section 4.1). Usable standalone (all nodes
/// Active) or embedded for the Active part of the weighted problems.
class GenericHierProgram final : public local::Program {
 public:
  /// `levels` are Definition-8 levels of the *active subgraph* (0 for
  /// weight nodes), e.g. from problems::compute_levels[_masked]. They
  /// are copied into the program's narrower arrays.
  GenericHierProgram(const Tree& tree, GenericOptions options,
                     const std::vector<int>& levels);

  void on_init(local::NodeCtx& ctx) override;
  void on_round(local::NodeCtx& ctx) override;

  /// First round of phase i (1-based). Exposed for tests and for
  /// composite programs that schedule around the phases.
  [[nodiscard]] std::int64_t phase_start(int i) const {
    return phase_start_[static_cast<std::size_t>(i)];
  }
  /// The fixed round at which every surviving level-k node terminates in
  /// the 3.5 variant (wave phases terminate data-dependently instead).
  [[nodiscard]] std::int64_t cv_end_round() const { return cv_end_round_; }
  /// Bytes reserved by the per-node and per-wave-node arrays.
  [[nodiscard]] std::size_t state_bytes() const;

 private:
  struct WaveState {
    // One logical wave per side; side 0/1 map to the node's (up to two)
    // alive same-level path ports, or to "self" for endpoints.
    std::int64_t src[2] = {-1, -1};  ///< LOCAL ids: any int64
    std::int32_t dist[2] = {-1, -1};  ///< < n, which is a NodeId
    /// Alive path ports (-1 = absent). int16, not int8: family
    /// instances have unbounded degree, and int16 still fits 32 B.
    std::int16_t port[2] = {-1, -1};
    std::int8_t ports_alive = -1;  ///< -1 until computed at phase start
  };
  // One per wave node, so it is part of the job's bytes per node.
  static_assert(sizeof(WaveState) <= 32);

  [[nodiscard]] bool is_active(NodeId v) const {
    return tree_.input(v) ==
           static_cast<int>(graph::WeightInput::kActive);
  }
  [[nodiscard]] int level(NodeId v) const {
    return levels_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] WaveState& wave(NodeId v) {
    const std::int32_t s = slot_[static_cast<std::size_t>(v)];
    return wave_[static_cast<std::size_t>(s)];
  }

  /// Applies the continuous Exempt rule; returns true if terminated.
  bool try_exempt(local::NodeCtx& ctx);
  /// Phase containing `round`, or 0 if before phase 1.
  [[nodiscard]] int phase_of(std::int64_t round) const;

  /// Freezes v's alive same-level path ports (at most two) into `w`.
  void freeze_path_ports(local::NodeCtx& ctx, WaveState& w) const;
  void wave_round(local::NodeCtx& ctx, int phase);
  void cv_round(local::NodeCtx& ctx);

  const Tree& tree_;
  GenericOptions opt_;
  /// Per node; levels are at most k + 1, and k is at most 254.
  std::vector<std::uint8_t> levels_;
  std::vector<std::int64_t> phase_start_;  ///< index 1..k
  std::int64_t cv_end_round_ = 0;
  std::int64_t cv_pad_ = 0;  ///< idle rounds realizing the Lambda target
  std::vector<std::int64_t> cv_schedule_;

  /// Wave nodes: the active nodes of level 1..k, the only ones that run
  /// a wave or Cole-Vishkin. `slot_` maps each to its `wave_` entry (-1
  /// for every other node); the CV working color is the node's own
  /// register, so it needs no array.
  std::vector<std::int32_t> slot_;
  std::vector<WaveState> wave_;
};

/// Theory-optimal gammas for the *unweighted* problems:
/// t = base^{1/(2^k - 1)}, gamma_i = t^{2^{i-1}} (Lemma 14; for the 2.5
/// polynomial analog use base = n, exponent 1/(2k-1) instead).
[[nodiscard]] std::vector<std::int64_t> gammas_for_35(std::int64_t lambda,
                                                      int k);
[[nodiscard]] std::vector<std::int64_t> gammas_for_25(std::int64_t n, int k);

}  // namespace lcl::algo
