#include "algo/generic_hier.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "algo/cole_vishkin.hpp"
#include "local/engine.hpp"

namespace lcl::algo {

namespace {

using problems::Color;
using problems::Variant;

constexpr std::int64_t kNoEntry = -1;

// Wave register layout: [tgt0|d0, src0, tgt1|d1, src1], where tgt|d is
// the addressed neighbour and the wave's distance packed into one word
// (`local::pack_entry`) and src is the wave's LOCAL id; a side with no
// wave holds kNoEntry in both words. Four words is the engine's initial
// register capacity.
constexpr std::size_t kWaveRegSize = 4;

}  // namespace

GenericHierProgram::GenericHierProgram(const Tree& tree,
                                       GenericOptions options,
                                       const std::vector<int>& levels)
    : tree_(tree), opt_(std::move(options)) {
  if (opt_.k < 1 || opt_.k >= std::numeric_limits<std::uint8_t>::max()) {
    throw std::invalid_argument("generic: 1 <= k < 255");
  }
  if (static_cast<int>(opt_.gammas.size()) != opt_.k - 1) {
    throw std::invalid_argument("generic: need k-1 gammas");
  }
  for (std::int64_t g : opt_.gammas) {
    if (g < 2) throw std::invalid_argument("generic: gamma_i >= 2");
  }
  if (static_cast<NodeId>(levels.size()) != tree_.size()) {
    throw std::invalid_argument("generic: levels size mismatch");
  }
  // Narrow the levels, then give each wave node (active, level 1..k) a
  // slot: every other node only ever has its level read.
  const auto n = static_cast<std::size_t>(tree_.size());
  levels_.resize(n);
  slot_.assign(n, -1);
  std::int32_t waves = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (levels[v] < 0 || levels[v] > opt_.k + 1) {
      throw std::invalid_argument("generic: level out of range");
    }
    levels_[v] = static_cast<std::uint8_t>(levels[v]);
    if (levels[v] >= 1 && levels[v] <= opt_.k &&
        is_active(static_cast<NodeId>(v))) {
      slot_[v] = waves++;
    }
  }
  wave_.assign(static_cast<std::size_t>(waves), WaveState{});

  // Phase schedule: phase i occupies [phase_start(i), phase_start(i+1)).
  phase_start_.assign(static_cast<std::size_t>(opt_.k) + 1, 0);
  phase_start_[1] = 1;
  for (int i = 1; i < opt_.k; ++i) {
    phase_start_[static_cast<std::size_t>(i) + 1] =
        phase_start_[static_cast<std::size_t>(i)] +
        opt_.gammas[static_cast<std::size_t>(i - 1)] + opt_.k + 6;
  }

  // Cole-Vishkin schedule for the 3.5 level-k phase.
  std::int64_t id_space = opt_.id_space > 0 ? opt_.id_space : tree_.size();
  for (NodeId v = 0; v < tree_.size(); ++v) {
    id_space = std::max(id_space, tree_.local_id(v) + 1);
  }
  cv_schedule_ = cv_schedule(std::max<std::int64_t>(id_space, 2));
  // Natural CV phase cost: reductions + 22 greedy eliminations. The
  // virtual-log* target pads the phase up to Lambda total rounds.
  const std::int64_t natural =
      static_cast<std::int64_t>(cv_schedule_.size()) + 22;
  cv_pad_ = std::max<std::int64_t>(0, opt_.symmetry_pad - natural);
  cv_end_round_ = phase_start_[static_cast<std::size_t>(opt_.k)] +
                  static_cast<std::int64_t>(cv_schedule_.size()) +
                  cv_pad_ + 24;
}

std::size_t GenericHierProgram::state_bytes() const {
  return levels_.capacity() * sizeof(std::uint8_t) +
         slot_.capacity() * sizeof(std::int32_t) +
         wave_.capacity() * sizeof(WaveState);
}

void GenericHierProgram::on_init(local::NodeCtx& ctx) {
  const NodeId v = ctx.node();
  if (!is_active(v)) return;
  if (level(v) == opt_.k + 1) {
    // Definition 8/9: level-(k+1) nodes are unconditionally Exempt.
    ctx.terminate(static_cast<int>(Color::kE));
  }
}

int GenericHierProgram::phase_of(std::int64_t round) const {
  int phase = 0;
  for (int i = 1; i <= opt_.k; ++i) {
    if (round >= phase_start_[static_cast<std::size_t>(i)]) phase = i;
  }
  return phase;
}

bool GenericHierProgram::try_exempt(local::NodeCtx& ctx) {
  const NodeId v = ctx.node();
  const int lv = level(v);
  const auto nb = tree_.neighbors(v);

  if (lv >= 2 && lv <= opt_.k - 1) {
    for (std::size_t p = 0; p < nb.size(); ++p) {
      const NodeId u = nb[p];
      if (!is_active(u) || level(u) >= lv) continue;
      if (!ctx.neighbor_terminated(static_cast<int>(p))) continue;
      const Color cu =
          static_cast<Color>(ctx.neighbor_output(static_cast<int>(p)).primary);
      if (problems::is_two_color(cu) || cu == Color::kE) {
        if (ctx.round() >= phase_start_[static_cast<std::size_t>(lv)]) {
          throw std::logic_error(
              "generic: Exempt fired after own phase started (scheduling "
              "gap too small)");
        }
        ctx.terminate(static_cast<int>(Color::kE));
        return true;
      }
    }
    return false;
  }

  if (lv == opt_.k && opt_.k >= 2 &&
      ctx.round() < phase_start_[static_cast<std::size_t>(opt_.k)]) {
    // Strict level-k rule: Exempt only once all lower-level neighbors have
    // decided, some is W/B/E and none is D.
    bool all_done = true;
    bool has_colored = false;
    bool has_decline = false;
    for (std::size_t p = 0; p < nb.size(); ++p) {
      const NodeId u = nb[p];
      if (!is_active(u) || level(u) >= lv) continue;
      if (!ctx.neighbor_terminated(static_cast<int>(p))) {
        all_done = false;
        break;
      }
      const Color cu =
          static_cast<Color>(ctx.neighbor_output(static_cast<int>(p)).primary);
      if (problems::is_two_color(cu) || cu == Color::kE) has_colored = true;
      if (cu == Color::kD) has_decline = true;
    }
    if (all_done && has_colored && !has_decline) {
      ctx.terminate(static_cast<int>(Color::kE));
      return true;
    }
  }
  return false;
}

void GenericHierProgram::freeze_path_ports(local::NodeCtx& ctx,
                                           WaveState& w) const {
  const NodeId v = ctx.node();
  const auto nb = tree_.neighbors(v);
  int alive = 0;
  for (std::size_t p = 0; p < nb.size(); ++p) {
    const NodeId u = nb[p];
    if (!is_active(u) || level(u) != level(v)) continue;
    if (ctx.neighbor_terminated(static_cast<int>(p))) continue;
    if (alive == 2) {
      throw std::logic_error("generic: level path with degree > 2");
    }
    if (p > static_cast<std::size_t>(
                std::numeric_limits<std::int16_t>::max())) {
      throw std::length_error("generic: path port does not fit int16");
    }
    w.port[alive++] = static_cast<std::int16_t>(p);
  }
  w.ports_alive = static_cast<std::int8_t>(alive);
}

void GenericHierProgram::wave_round(local::NodeCtx& ctx, int phase) {
  const NodeId v = ctx.node();
  WaveState& w = wave(v);
  const std::int64_t t =
      ctx.round() - phase_start_[static_cast<std::size_t>(phase)] + 1;
  const bool last_phase = (phase == opt_.k);
  const std::int64_t gamma =
      last_phase ? 0 : opt_.gammas[static_cast<std::size_t>(phase - 1)];
  const auto nb = tree_.neighbors(v);

  if (w.ports_alive < 0) {
    // Phase start: freeze the set of alive same-level path ports.
    freeze_path_ports(ctx, w);
    // Endpoints seed the missing side(s) with their own wave.
    for (int s = 0; s < 2; ++s) {
      if (w.port[s] < 0) {
        w.src[s] = ctx.local_id();
        w.dist[s] = 0;
      }
    }
  }

  // 1. Receive pending waves.
  for (int s = 0; s < 2; ++s) {
    if (w.port[s] < 0 || w.src[s] >= 0) continue;
    const local::RegView reg = ctx.peek(w.port[s]);
    if (reg.size() != kWaveRegSize) continue;
    for (int e = 0; e < 2; ++e) {
      const std::size_t base = static_cast<std::size_t>(2 * e);
      if (local::entry_target(reg[base]) == v) {
        w.src[s] = reg[base + 1];
        w.dist[s] = local::entry_value(reg[base]) + 1;
      }
    }
  }

  // 2. Forward: toward port[s] goes the wave of the other side. The
  // register lives on the stack: this runs on every wave node-round.
  std::int64_t out[kWaveRegSize] = {kNoEntry, kNoEntry, kNoEntry, kNoEntry};
  bool publish = false;
  for (int s = 0; s < 2; ++s) {
    const int other = 1 - s;
    if (w.port[s] < 0 || w.src[other] < 0) continue;
    const std::size_t base = static_cast<std::size_t>(2 * s);
    out[base] = local::pack_entry(nb[static_cast<std::size_t>(w.port[s])],
                                  w.dist[other]);
    out[base + 1] = w.src[other];
    publish = true;
  }
  if (publish) ctx.publish(local::RegView(out, kWaveRegSize));

  // 3. Decide.
  if (w.src[0] >= 0 && w.src[1] >= 0) {
    const std::int64_t len = std::int64_t{w.dist[0]} + w.dist[1] + 1;
    if (!last_phase && len >= gamma) {
      ctx.terminate(static_cast<int>(Color::kD));
      return;
    }
    const int anchor = (w.src[0] <= w.src[1]) ? 0 : 1;
    const bool even = (w.dist[anchor] % 2 == 0);
    ctx.terminate(static_cast<int>(even ? Color::kW : Color::kB));
    return;
  }
  if (!last_phase && t >= gamma + 2) {
    ctx.terminate(static_cast<int>(Color::kD));
    return;
  }
  // Until a neighbour's wave arrives, only the Decline deadline (round
  // t == gamma + 2) can change anything.
  ctx.sleep_until(last_phase
                      ? local::NodeCtx::kNever
                      : phase_start_[static_cast<std::size_t>(phase)] +
                            gamma + 1);
}

void GenericHierProgram::cv_round(local::NodeCtx& ctx) {
  WaveState& w = wave(ctx.node());
  const std::int64_t t =
      ctx.round() - phase_start_[static_cast<std::size_t>(opt_.k)] + 1;
  const std::int64_t sched = static_cast<std::int64_t>(cv_schedule_.size());

  if (t == 1) {
    // Freeze alive same-level ports; adopt the LOCAL id as initial color.
    freeze_path_ports(ctx, w);
    ctx.publish({ctx.local_id()});
    return;
  }

  // The working color is the node's own register: every step publishes
  // it, and the next step reads it a round later, once it is committed.
  const std::int64_t color = ctx.own()[0];
  auto neighbor_color = [&](int s) -> std::int64_t {
    if (w.port[s] < 0) return -1;
    const local::RegView reg = ctx.peek(w.port[s]);
    return reg.empty() ? -1 : reg[0];
  };

  if (t >= 2 && t <= 1 + sched) {
    const std::int64_t q = cv_schedule_[static_cast<std::size_t>(t - 2)];
    ctx.publish(
        {cv_reduce(q, color, neighbor_color(0), neighbor_color(1))});
    return;
  }

  const std::int64_t elim_start = 1 + sched + cv_pad_ + 1;
  if (t < elim_start) {
    // The virtual-log* pad: idle until the elimination starts.
    ctx.sleep_until(phase_start_[static_cast<std::size_t>(opt_.k)] +
                    elim_start - 1);
    return;
  }
  if (t >= elim_start && t < elim_start + 22) {
    // One color class per round, from 24 down to 3.
    const std::int64_t cls = 24 - (t - elim_start);
    if (color == cls) {
      bool used[3] = {false, false, false};
      for (int s = 0; s < 2; ++s) {
        const std::int64_t c = neighbor_color(s);
        if (c >= 0 && c < 3) used[static_cast<std::size_t>(c)] = true;
      }
      for (std::int64_t c = 0; c < 3; ++c) {
        if (!used[static_cast<std::size_t>(c)]) {
          ctx.publish({c});
          break;
        }
      }
    }
    return;
  }

  if (ctx.round() >= cv_end_round_) {
    static constexpr Color kMap[3] = {Color::kR, Color::kG, Color::kY};
    if (color < 0 || color > 2) {
      throw std::logic_error("generic: CV did not reach 3 colors");
    }
    ctx.terminate(static_cast<int>(kMap[static_cast<std::size_t>(color)]));
  }
}

void GenericHierProgram::on_round(local::NodeCtx& ctx) {
  const NodeId v = ctx.node();
  if (!is_active(v)) return;
  const int lv = level(v);

  if (try_exempt(ctx)) return;

  const int phase = phase_of(ctx.round());
  if (phase == 0 || lv > opt_.k) return;

  if (lv < opt_.k) {
    if (phase == lv) {
      wave_round(ctx, phase);
    } else {
      // Before its phase only a lower neighbour's Exempt-enabling
      // termination can matter.
      ctx.sleep_until(phase_start_[static_cast<std::size_t>(lv)]);
    }
    return;
  }

  // Level-k nodes act only in phase k.
  if (phase != opt_.k) {
    ctx.sleep_until(phase_start_[static_cast<std::size_t>(opt_.k)]);
    return;
  }
  if (opt_.variant == Variant::kTwoHalf) {
    wave_round(ctx, opt_.k);
  } else {
    cv_round(ctx);
  }
}

std::vector<std::int64_t> gammas_for_35(std::int64_t lambda, int k) {
  // t = lambda^{1/2^{k-1}}, gamma_i = t^{2^{i-1}} (Lemma 14).
  std::vector<std::int64_t> gammas;
  const double t = std::pow(static_cast<double>(std::max<std::int64_t>(
                                lambda, 2)),
                            1.0 / static_cast<double>(1 << (k - 1)));
  double g = t;
  for (int i = 1; i < k; ++i) {
    gammas.push_back(std::max<std::int64_t>(2, std::llround(g)));
    g = g * g;
  }
  return gammas;
}

std::vector<std::int64_t> gammas_for_25(std::int64_t n, int k) {
  // t = n^{1/(2k-1)}, gamma_i = t^{2^{i-1}} (BBK+23b optimal profile).
  std::vector<std::int64_t> gammas;
  const double t = std::pow(static_cast<double>(std::max<std::int64_t>(n, 2)),
                            1.0 / static_cast<double>(2 * k - 1));
  double g = t;
  for (int i = 1; i < k; ++i) {
    gammas.push_back(std::max<std::int64_t>(2, std::llround(g)));
    g = g * g;
  }
  return gammas;
}

}  // namespace lcl::algo
