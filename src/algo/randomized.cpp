#include "algo/randomized.hpp"

#include <stdexcept>

namespace lcl::algo {

namespace {

/// splitmix64 step — a small, well-distributed PRNG per node.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

RandomColoringProgram::RandomColoringProgram(const graph::Tree& tree,
                                             int colors,
                                             std::uint64_t seed)
    : tree_(tree), colors_(colors), seed_(seed) {
  if (colors < tree.max_degree() + 1) {
    throw std::invalid_argument(
        "random coloring: need >= max degree + 1 colors");
  }
  state_.assign(static_cast<std::size_t>(tree.size()), 0);
  proposal_.assign(static_cast<std::size_t>(tree.size()), -1);
  for (graph::NodeId v = 0; v < tree.size(); ++v) {
    state_[static_cast<std::size_t>(v)] =
        seed_ * 0x2545f4914f6cdd1dULL +
        static_cast<std::uint64_t>(tree.local_id(v)) + 1;
  }
}

int RandomColoringProgram::draw(graph::NodeId v) {
  return static_cast<int>(splitmix64(state_[static_cast<std::size_t>(v)]) %
                          static_cast<std::uint64_t>(colors_));
}

void RandomColoringProgram::on_init(local::NodeCtx& ctx) {
  const graph::NodeId v = ctx.node();
  proposal_[static_cast<std::size_t>(v)] = draw(v);
  ctx.publish({proposal_[static_cast<std::size_t>(v)]});
}

void RandomColoringProgram::on_round(local::NodeCtx& ctx) {
  const graph::NodeId v = ctx.node();
  const int mine = proposal_[static_cast<std::size_t>(v)];

  // Can the previous proposal be fixed? It must differ from every
  // fixed neighbor color, and every undecided neighbor with the same
  // proposal must have a smaller LOCAL id.
  bool safe = true;
  for (int p = 0; p < ctx.degree(); ++p) {
    if (ctx.neighbor_terminated(p)) {
      if (ctx.neighbor_output(p).primary == mine) {
        safe = false;
        break;
      }
      continue;
    }
    const local::RegView reg = ctx.peek(p);
    const int theirs = reg.empty() ? -1 : static_cast<int>(reg[0]);
    if (theirs == mine) {
      const graph::NodeId u =
          tree_.neighbors(v)[static_cast<std::size_t>(p)];
      if (tree_.local_id(u) > tree_.local_id(v)) {
        safe = false;
        break;
      }
    }
  }
  if (safe) {
    ctx.terminate(mine);
    return;
  }
  proposal_[static_cast<std::size_t>(v)] = draw(v);
  ctx.publish({proposal_[static_cast<std::size_t>(v)]});
}

}  // namespace lcl::algo
