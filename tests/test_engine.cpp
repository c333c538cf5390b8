// Engine semantics: synchronous register visibility, termination rounds,
// node-averaged accounting, and the one-round delay of termination
// visibility (the property every wave protocol relies on), plus the
// workspace reuse and aligned-lane contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "core/batch.hpp"
#include "graph/builders.hpp"
#include "graph/families.hpp"
#include "local/engine.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using graph::NodeId;
using graph::Tree;
using local::Engine;
using local::NodeCtx;
using local::Program;
using local::Register;
using local::RunStats;

/// Everyone terminates in on_init: T_v == 0 for all.
class InstantProgram final : public Program {
 public:
  void on_init(NodeCtx& ctx) override { ctx.terminate(7); }
  void on_round(NodeCtx& ctx) override { FAIL() << ctx.node(); }
};

TEST(Engine, InstantTermination) {
  Tree t = graph::make_path(10);
  Engine engine(t);
  InstantProgram p;
  const RunStats stats = engine.run(p);
  EXPECT_EQ(stats.worst_case, 0);
  EXPECT_DOUBLE_EQ(stats.node_averaged, 0.0);
  for (const auto& o : stats.output) EXPECT_EQ(o.primary, 7);
}

/// Node v terminates at round v+1: checks exact T_v accounting.
class StaggerProgram final : public Program {
 public:
  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx& ctx) override {
    if (ctx.round() == ctx.node() + 1) ctx.terminate(0);
  }
};

TEST(Engine, TerminationRoundsAndAverage) {
  Tree t = graph::make_path(4);
  Engine engine(t);
  StaggerProgram p;
  const RunStats stats = engine.run(p);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(stats.termination_round[static_cast<std::size_t>(v)], v + 1);
  }
  EXPECT_EQ(stats.worst_case, 4);
  EXPECT_DOUBLE_EQ(stats.node_averaged, (1 + 2 + 3 + 4) / 4.0);
}

/// A wave: node 0 publishes at round 1; node i can only see it at round
/// i+1 if each node forwards one hop per round. Verifies registers are
/// double-buffered (no same-round information leaks).
class ForwardProgram final : public Program {
 public:
  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx& ctx) override {
    if (ctx.node() == 0) {
      ctx.publish({1});
      ctx.terminate(0);
      return;
    }
    const local::RegView left = ctx.peek(0);  // port 0 = smaller neighbor
    if (!left.empty() && left[0] == 1) {
      ctx.publish({1});
      ctx.terminate(static_cast<int>(ctx.round()));
    }
  }
};

TEST(Engine, OneHopPerRound) {
  Tree t = graph::make_path(6);
  Engine engine(t);
  ForwardProgram p;
  const RunStats stats = engine.run(p);
  for (NodeId v = 1; v < 6; ++v) {
    // Node v learns the token exactly at round v+1.
    EXPECT_EQ(stats.termination_round[static_cast<std::size_t>(v)], v + 1)
        << "node " << v;
  }
}

/// Termination visibility is delayed by one round.
class VisibilityProgram final : public Program {
 public:
  explicit VisibilityProgram(std::vector<std::int64_t>& seen)
      : seen_(seen) {}
  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx& ctx) override {
    if (ctx.node() == 0) {
      ctx.terminate(42);
      return;
    }
    if (ctx.node() == 1 && ctx.neighbor_terminated(0)) {
      seen_.push_back(ctx.round());
      EXPECT_EQ(ctx.neighbor_output(0).primary, 42);
      ctx.terminate(1);
    }
  }

 private:
  std::vector<std::int64_t>& seen_;
};

TEST(Engine, TerminationVisibleNextRound) {
  Tree t = graph::make_path(2);
  Engine engine(t);
  std::vector<std::int64_t> seen;
  VisibilityProgram p(seen);
  const RunStats stats = engine.run(p);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 2);  // terminated at round 1, visible at round 2
  EXPECT_EQ(stats.termination_round[1], 2);
}

/// A terminated node's frozen register must stay readable for arbitrarily
/// many rounds after termination. This pins the arena semantics: the
/// end-of-round buffer swap must never resurface a stale slice for a node
/// that stopped computing (the classic double-buffer bug).
class FrozenReaderProgram final : public Program {
 public:
  void on_init(NodeCtx& ctx) override {
    if (ctx.node() == 0) {
      ctx.publish({99});
      ctx.terminate(0);
    }
  }
  void on_round(NodeCtx& ctx) override {
    // Node 1 re-reads node 0's frozen register every round and only
    // terminates late, so the read crosses many buffer swaps.
    const local::RegView reg = ctx.peek(0);
    ASSERT_EQ(reg.size(), 1u) << "round " << ctx.round();
    EXPECT_EQ(reg[0], 99) << "round " << ctx.round();
    if (ctx.round() == 7) ctx.terminate(1);
  }
};

TEST(Engine, FrozenRegisterSurvivesManySwaps) {
  Tree t = graph::make_path(2);
  Engine engine(t);
  FrozenReaderProgram p;
  const RunStats stats = engine.run(p);
  EXPECT_EQ(stats.termination_round[0], 0);
  EXPECT_EQ(stats.termination_round[1], 7);
}

/// A register wider than the initial arena capacity forces a mid-run
/// arena growth; values (including frozen ones) must survive the rebuild.
class WideRegisterProgram final : public Program {
 public:
  void on_init(NodeCtx& ctx) override {
    if (ctx.node() == 0) {
      ctx.publish({5});  // narrow, frozen before the growth below
      ctx.terminate(0);
    }
  }
  void on_round(NodeCtx& ctx) override {
    if (ctx.round() == 1) {
      Register wide(100);
      for (std::size_t i = 0; i < wide.size(); ++i) {
        wide[i] = static_cast<std::int64_t>(i) + ctx.node();
      }
      ctx.publish(wide);
      return;
    }
    // After the growth: own register kept all 100 words, and the frozen
    // narrow register of node 0 is intact.
    const local::RegView mine = ctx.own();
    ASSERT_EQ(mine.size(), 100u);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine[i], static_cast<std::int64_t>(i) + ctx.node());
    }
    if (ctx.node() == 1) {
      const local::RegView frozen = ctx.peek(0);
      ASSERT_EQ(frozen.size(), 1u);
      EXPECT_EQ(frozen[0], 5);
    }
    if (ctx.round() == 4) ctx.terminate(2);
  }
};

TEST(Engine, ArenaGrowthPreservesRegisters) {
  Tree t = graph::make_path(3);
  Engine engine(t);
  WideRegisterProgram p;
  const RunStats stats = engine.run(p);
  for (NodeId v = 1; v < 3; ++v) {
    EXPECT_EQ(stats.output[static_cast<std::size_t>(v)].primary, 2);
  }
}

/// Without a publish, a node's register persists unchanged round to round.
class SilentProgram final : public Program {
 public:
  void on_init(NodeCtx& ctx) override {
    ctx.publish({ctx.node() + 10});
  }
  void on_round(NodeCtx& ctx) override {
    const local::RegView mine = ctx.own();
    ASSERT_EQ(mine.size(), 1u);
    EXPECT_EQ(mine[0], ctx.node() + 10);
    const local::RegView theirs = ctx.peek(0);
    ASSERT_EQ(theirs.size(), 1u);
    if (ctx.round() == 5) ctx.terminate(0);
  }
};

TEST(Engine, UnpublishedRegisterPersists) {
  Tree t = graph::make_path(4);
  Engine engine(t);
  SilentProgram p;
  const RunStats stats = engine.run(p);
  EXPECT_EQ(stats.rounds, 5);
}

/// A publish in the same round as (and after) termination still takes
/// effect and is the value frozen for later readers.
class PublishAfterTerminate final : public Program {
 public:
  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx& ctx) override {
    if (ctx.node() == 0) {
      ctx.terminate(0);
      ctx.publish({123});
      return;
    }
    const local::RegView reg = ctx.peek(0);
    if (!reg.empty()) {
      EXPECT_EQ(reg[0], 123);
      EXPECT_EQ(ctx.round(), 2);  // published in round 1, visible round 2
      ctx.terminate(1);
    }
  }
};

TEST(Engine, PublishAfterTerminateIsFrozen) {
  Tree t = graph::make_path(2);
  Engine engine(t);
  PublishAfterTerminate p;
  const RunStats stats = engine.run(p);
  EXPECT_EQ(stats.termination_round[1], 2);
}

/// Publishing an empty register is legal and clears the visible value.
class EmptyPublishProgram final : public Program {
 public:
  void on_init(NodeCtx& ctx) override { ctx.publish({ctx.node() + 1}); }
  void on_round(NodeCtx& ctx) override {
    if (ctx.round() == 1) {
      const local::RegView theirs = ctx.peek(0);
      ASSERT_EQ(theirs.size(), 1u);
      ctx.publish({});
      return;
    }
    EXPECT_TRUE(ctx.peek(0).empty());
    EXPECT_TRUE(ctx.own().empty());
    ctx.terminate(0);
  }
};

TEST(Engine, EmptyPublishClearsRegister) {
  Tree t = graph::make_path(2);
  Engine engine(t);
  EmptyPublishProgram p;
  const RunStats stats = engine.run(p);
  EXPECT_EQ(stats.rounds, 2);
}

/// A stalling program no longer aborts the run: hitting `max_rounds`
/// yields structured truncation with every survivor's T_v censored at
/// the bound.
class StallProgram final : public Program {
 public:
  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx&) override {}
};

TEST(Engine, RoundLimitTruncates) {
  Tree t = graph::make_path(3);
  Engine engine(t);
  StallProgram p;
  const RunStats stats = engine.run(p, 100);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.rounds, 100);
  EXPECT_EQ(stats.unterminated, 3);
  EXPECT_EQ(stats.worst_case, 100);
  EXPECT_DOUBLE_EQ(stats.node_averaged, 100.0);
  for (const std::int64_t t_v : stats.termination_round) {
    EXPECT_EQ(t_v, 100);
  }
  for (const auto& o : stats.output) EXPECT_EQ(o.primary, -1);
}

/// Truncation keeps everything measured before the bound: terminated
/// nodes keep their exact T_v and outputs, only survivors are censored.
TEST(Engine, TruncationKeepsPartialStats) {
  Tree t = graph::make_path(4);
  Engine engine(t);
  StaggerProgram p;  // node v terminates at round v+1
  const RunStats stats = engine.run(p, 2);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.rounds, 2);
  EXPECT_EQ(stats.unterminated, 2);
  const std::vector<std::int64_t> expected = {1, 2, 2, 2};
  EXPECT_EQ(stats.termination_round, expected);
  EXPECT_EQ(stats.output[0].primary, 0);
  EXPECT_EQ(stats.output[3].primary, -1);
  EXPECT_DOUBLE_EQ(stats.node_averaged, (1 + 2 + 2 + 2) / 4.0);
}

/// The optional RunProfile records the alive-count trajectory and the
/// exact T_v histogram, from data the engine already touches.
TEST(Engine, ProfileTrajectoryAndHistogram) {
  Tree t = graph::make_path(4);
  Engine engine(t);
  StaggerProgram p;
  local::RunProfile profile;
  const RunStats stats = engine.run(
      p, std::numeric_limits<int>::max(), &profile);
  EXPECT_EQ(stats.rounds, 4);
  const std::vector<std::int64_t> alive = {4, 3, 2, 1};
  EXPECT_EQ(profile.alive_per_round, alive);
  const std::vector<std::int64_t> hist = {0, 1, 1, 1, 1};
  EXPECT_EQ(profile.term_count, hist);
}

/// Under truncation the profile histogram matches termination_round,
/// censored survivors included.
TEST(Engine, ProfileHistogramCountsCensoredSurvivors) {
  Tree t = graph::make_path(4);
  Engine engine(t);
  StaggerProgram p;
  local::RunProfile profile;
  const RunStats stats = engine.run(p, 2, &profile);
  EXPECT_TRUE(stats.truncated);
  const std::vector<std::int64_t> alive = {4, 3};
  EXPECT_EQ(profile.alive_per_round, alive);
  const std::vector<std::int64_t> hist = {0, 1, 3};  // T = {1, 2, 2, 2}
  EXPECT_EQ(profile.term_count, hist);
}

/// Double termination is a programming error.
class DoubleTerminate final : public Program {
 public:
  void on_init(NodeCtx& ctx) override {
    ctx.terminate(0);
    ctx.terminate(1);
  }
  void on_round(NodeCtx&) override {}
};

TEST(Engine, DoubleTerminationThrows) {
  Tree t = graph::make_path(1);
  Engine engine(t);
  DoubleTerminate p;
  EXPECT_THROW(engine.run(p), std::logic_error);
}

/// A register-heavy stagger used by the workspace tests: node v
/// republishes a growing register every round and terminates at round
/// (v mod 13) + 1, so runs exercise publish, flip, compaction, growth,
/// and uneven T_v in one program.
class ChurnProgram final : public Program {
 public:
  void on_init(NodeCtx& ctx) override { ctx.publish({ctx.node()}); }
  void on_round(NodeCtx& ctx) override {
    Register r(ctx.own().begin(), ctx.own().end());
    r.push_back(ctx.round());
    ctx.publish(r);
    if (ctx.round() == (ctx.node() % 13) + 1) ctx.terminate(1);
  }
};

void expect_identical(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.worst_case, b.worst_case);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.node_averaged, b.node_averaged);  // bit-identical
  EXPECT_EQ(a.termination_round, b.termination_round);
  EXPECT_EQ(a.primaries(), b.primaries());
  EXPECT_EQ(a.secondaries(), b.secondaries());
}

/// A flood with sleepers: every seventh node sleeps until its own
/// start round, then publishes its id and terminates; every other node
/// adopts the first non-empty neighbour register it sees, or declines at
/// a per-node deadline, and sleeps in between. Every visit during a
/// sleep is a no-op, so per-node and batch runs must agree exactly.
class FloodNapProgram final : public Program {
 public:
  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx& ctx) override {
    const NodeId v = ctx.node();
    if (v % 7 == 0) {
      const std::int64_t start = 3 + v % 5;
      if (ctx.round() < start) {
        ctx.sleep_until(start);
        return;
      }
      ctx.publish({v});
      ctx.terminate(0);
      return;
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      const local::RegView reg = ctx.peek(p);
      if (!reg.empty()) {
        ctx.publish({reg[0]});
        ctx.terminate(1, static_cast<int>(reg[0]));
        return;
      }
    }
    const std::int64_t deadline = 40 + v % 11;
    if (ctx.round() >= deadline) {
      ctx.terminate(2);
      return;
    }
    ctx.sleep_until(deadline);
  }
};

TEST(EngineWorkspace, WarmRunsAreAllocationFreeAndIdentical) {
  Tree t = graph::make_random_tree(600, 4, 99);
  Engine engine(t);
  Engine::Workspace ws;
  ChurnProgram p;
  const RunStats first = engine.run(p, ws);
  const std::int64_t after_first = ws.alloc_events();
  EXPECT_GT(after_first, 0);

  // Reps after the first: identical results, zero plane allocations —
  // including in run_into, which also recycles the stats vectors.
  RunStats warm;
  for (int rep = 0; rep < 5; ++rep) {
    engine.run_into(p, ws, warm);
    expect_identical(first, warm);
  }
  EXPECT_EQ(ws.alloc_events(), after_first);
}

TEST(EngineWorkspace, ReusedAcrossDifferentSizesAndGrowth) {
  // A workspace hopping big -> small -> big must not leak stale lane
  // state between runs (the small run leaves garbage beyond its n).
  Engine::Workspace ws;
  Tree big = graph::make_path(500);
  Tree small = graph::make_path(37);
  ChurnProgram p;
  Engine big_engine(big);
  Engine small_engine(small);
  const RunStats ref_big = big_engine.run(p);
  const RunStats ref_small = small_engine.run(p);
  expect_identical(ref_big, big_engine.run(p, ws));
  expect_identical(ref_small, small_engine.run(p, ws));
  expect_identical(ref_big, big_engine.run(p, ws));
  // Capacity growth inside a shared workspace persists across runs
  // (ChurnProgram's widest register exceeds the initial capacity).
  expect_identical(ref_small, small_engine.run(p, ws));
}

/// A program that (illegally) starts a nested engine run on the same
/// workspace mid-round.
class NestedRun final : public Program {
 public:
  explicit NestedRun(Engine::Workspace& ws) : ws_(ws) {}
  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx& ctx) override {
    Tree inner = graph::make_path(3);
    Engine engine(inner);
    InstantProgram p;
    (void)engine.run(p, ws_);  // throws: ws_ is serving the outer run
    ctx.terminate(0);
  }

 private:
  Engine::Workspace& ws_;
};

TEST(EngineWorkspace, NestedUseOfOneWorkspaceThrows) {
  Tree t = graph::make_path(4);
  Engine engine(t);
  Engine::Workspace ws;
  NestedRun p(ws);
  EXPECT_THROW(engine.run(p, ws), std::logic_error);
  // The guard releases on unwind: the workspace is usable again.
  InstantProgram ok;
  EXPECT_EQ(engine.run(ok, ws).worst_case, 0);
}

TEST(EngineWorkspace, BatchDispatchWarmRunsAreAllocationFree) {
  // Init fills the reserved alive list in place (iota + stable
  // compaction); warm reps under the sleep-honouring dispatch must stay
  // allocation-free exactly like per-node dispatch, and produce
  // bit-identical results.
  Tree t = graph::make_random_tree(600, 4, 99);
  Engine pernode_engine(t, local::DispatchMode::kPerNode);
  Engine batch_engine(t, local::DispatchMode::kBatch);
  ChurnProgram p;
  const RunStats reference = pernode_engine.run(p);

  Engine::Workspace ws;
  const RunStats first = batch_engine.run(p, ws);
  expect_identical(reference, first);
  const std::int64_t after_first = ws.alloc_events();
  EXPECT_GT(after_first, 0);

  RunStats warm;
  for (int rep = 0; rep < 5; ++rep) {
    batch_engine.run_into(p, ws, warm);
    expect_identical(first, warm);
  }
  EXPECT_EQ(ws.alloc_events(), after_first);

  // Sleepers use the sleep lane, the woken list and the timer queue's
  // two link lanes of the same workspace, all sized by prepare(), so
  // warm runs stay allocation-free.
  FloodNapProgram nap;
  const RunStats nap_reference = pernode_engine.run(nap);
  const RunStats nap_first = batch_engine.run(nap, ws);
  expect_identical(nap_reference, nap_first);
  EXPECT_LT(nap_first.visits, nap_reference.visits);
  const std::int64_t after_nap = ws.alloc_events();
  for (int rep = 0; rep < 5; ++rep) {
    batch_engine.run_into(nap, ws, warm);
    expect_identical(nap_first, warm);
    EXPECT_EQ(warm.visits, nap_first.visits);
  }
  EXPECT_EQ(ws.alloc_events(), after_nap);
}

TEST(EngineWorkspace, NestedUseUnderBatchDispatchThrows) {
  // The in_use guard must fire under the sleep-honouring dispatch too:
  // the nested run here is attempted from inside on_round, against the
  // same workspace.
  Tree t = graph::make_path(4);
  Engine engine(t, local::DispatchMode::kBatch);
  Engine::Workspace ws;
  NestedRun p(ws);
  EXPECT_THROW(engine.run(p, ws), std::logic_error);
  // The guard releases on unwind: the workspace is usable again.
  InstantProgram ok;
  EXPECT_EQ(engine.run(ok, ws).worst_case, 0);
}

TEST(EngineWorkspace, TlsWorkspaceIsSticky) {
  Engine::Workspace& ws = local::tls_workspace();
  EXPECT_EQ(&ws, &local::tls_workspace());
  Tree t = graph::make_path(32);
  Engine engine(t);
  ChurnProgram p;
  const RunStats direct = engine.run(p);
  expect_identical(direct, engine.run(p, ws));
}

// ---- Dispatch ----------------------------------------------------------
// Every program is driven through its per-node hooks; the DispatchMode
// only decides whether `sleep_until` is honoured.

/// Sleeps every node until round 3, then terminates it.
class NapUntilThree final : public Program {
 public:
  void on_init(NodeCtx& ctx) override { ctx.sleep_until(3); }
  void on_round(NodeCtx& ctx) override {
    if (ctx.round() < 3) {
      ctx.sleep_until(3);
      return;
    }
    ctx.terminate(0);
  }
};

/// Runs NapUntilThree on `engine` and returns its visit count; the
/// schedule is the same under every mode.
std::int64_t nap_until_three_visits(Engine engine) {
  NapUntilThree p;
  const RunStats stats = engine.run(p);
  EXPECT_EQ(stats.total_rounds, 3 * 16);
  EXPECT_EQ(stats.rounds, 3);
  return stats.visits;
}

TEST(DispatchMode, ResolveCollapsesAutoThroughTheDefault) {
  // kAuto resolves to the sleep-honouring kBatch: 16 nodes are visited
  // once, in round 3. kPerNode visits every node in all three rounds.
  Tree t = graph::make_path(16);
  EXPECT_EQ(nap_until_three_visits(Engine(t, local::DispatchMode::kAuto)), 16);
  EXPECT_EQ(nap_until_three_visits(Engine(t, local::DispatchMode::kBatch)),
            16);
  EXPECT_EQ(nap_until_three_visits(Engine(t, local::DispatchMode::kPerNode)),
            3 * 16);
}

TEST(DispatchMode, DefaultConstructedEngineCallsTheBatchHooks) {
  // The default constructor drives the kBatch dispatch: the same visits
  // as an engine that names kBatch.
  Tree t = graph::make_path(16);
  EXPECT_EQ(nap_until_three_visits(Engine(t)),
            nap_until_three_visits(Engine(t, local::DispatchMode::kBatch)));
  EXPECT_EQ(nap_until_three_visits(Engine(t)), 16);
}

/// A program that never sleeps, exercising every NodeCtx facility:
/// register churn with growing widths, neighbor reads, staggered
/// termination.
class NeverSleeps final : public Program {
 public:
  void on_init(NodeCtx& ctx) override { ctx.publish({ctx.node()}); }
  void on_round(NodeCtx& ctx) override {
    std::int64_t sum = 0;
    for (int p = 0; p < ctx.degree(); ++p) {
      const local::RegView reg = ctx.peek(p);
      if (!reg.empty()) sum += reg[0];
      if (ctx.neighbor_terminated(p)) ++sum;
    }
    Register r(ctx.own().begin(), ctx.own().end());
    r.push_back(sum);
    ctx.publish(r);
    if (ctx.round() == (ctx.node() % 7) + 1) {
      ctx.terminate(static_cast<int>(sum % 1024), ctx.node() % 3);
    }
  }
};

TEST(EngineDispatch, NeverSleepingProgramIsBitIdenticalUnderBothModes) {
  Tree t = graph::make_random_tree(500, 4, 31);
  NeverSleeps a;
  const RunStats pernode = Engine(t, local::DispatchMode::kPerNode).run(a);
  NeverSleeps b;
  const RunStats by_default = Engine(t).run(b);
  expect_identical(pernode, by_default);
  EXPECT_EQ(pernode.visits, pernode.total_rounds);
  EXPECT_EQ(by_default.visits, pernode.visits);
}

/// Terminates every third node in init and logs round 1's visits.
class InitTerminates final : public Program {
 public:
  void on_init(NodeCtx& ctx) override {
    if (ctx.node() % 3 == 0) ctx.terminate(0);
  }
  void on_round(NodeCtx& ctx) override {
    if (ctx.round() == 1) first_round_.push_back(ctx.node());
    ctx.terminate(1);
  }

  std::vector<NodeId> first_round_;
};

TEST(EngineDispatch, InitTerminationsAreAbsentFromTheFirstRound) {
  // Nodes that terminate in init are never visited; the rest are
  // visited in id order, under either dispatch mode.
  Tree t = graph::make_path(10);
  const std::vector<NodeId> expected = {1, 2, 4, 5, 7, 8};
  InitTerminates default_p;
  const RunStats by_default = Engine(t).run(default_p);
  EXPECT_EQ(default_p.first_round_, expected);
  InitTerminates pernode_p;
  const RunStats pernode =
      Engine(t, local::DispatchMode::kPerNode).run(pernode_p);
  EXPECT_EQ(pernode_p.first_round_, expected);
  expect_identical(pernode, by_default);
}

// ---- Sleep contract ----------------------------------------------------
// Each case runs one program under per-node dispatch (which ignores the
// hint and visits every alive node every round) and batch dispatch
// (which honours it), and demands identical stats and profiles.

/// Node 0 drives: it publishes `publish_value` in `publish_round` (0 =
/// never) and terminates in `end_round`, visiting every round. Every
/// other node logs its visits and sleeps until `deadline`, terminating
/// there or once it sees node 0 terminated.
class SleepProbe final : public Program {
 public:
  struct Script {
    std::int64_t publish_round = 0;
    std::int64_t publish_value = 0;
    std::int64_t end_round = 0;
    std::int64_t deadline = NodeCtx::kNever;
  };
  explicit SleepProbe(Script script) : script_(script) {}

  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx& ctx) override {
    const std::int64_t r = ctx.round();
    if (ctx.node() == 0) {
      if (r == script_.publish_round) ctx.publish({script_.publish_value});
      if (r == script_.end_round) ctx.terminate(0);
      return;
    }
    visits_.push_back(r);
    if (ctx.neighbor_terminated(0) || r >= script_.deadline) {
      ctx.terminate(1);
      return;
    }
    ctx.sleep_until(script_.deadline);
  }

  /// Rounds in which node 1 was called.
  [[nodiscard]] const std::vector<std::int64_t>& visits() const {
    return visits_;
  }

 private:
  Script script_;
  std::vector<std::int64_t> visits_;
};

/// Runs `make()`'s program on `t` under both dispatch modes and expects
/// identical stats and profiles; returns the batch run's program.
template <typename Make>
auto run_both_modes(const Tree& t, Make make, std::int64_t max_rounds,
                    RunStats* batch_stats = nullptr) {
  auto pernode_program = make();
  auto batch_program = make();
  Engine pernode(t, local::DispatchMode::kPerNode);
  Engine batch(t, local::DispatchMode::kBatch);
  local::RunProfile pernode_profile;
  local::RunProfile batch_profile;
  const RunStats a = pernode.run(pernode_program, max_rounds,
                                 &pernode_profile);
  const RunStats b = batch.run(batch_program, max_rounds, &batch_profile);
  expect_identical(a, b);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.unterminated, b.unterminated);
  EXPECT_EQ(pernode_profile.alive_per_round, batch_profile.alive_per_round);
  EXPECT_EQ(pernode_profile.term_count, batch_profile.term_count);
  // Per-node visits every alive node every round; batch skips sleepers.
  EXPECT_EQ(a.visits, a.total_rounds);
  EXPECT_LE(b.visits, a.visits);
  if (batch_stats != nullptr) *batch_stats = b;
  return batch_program;
}

TEST(EngineSleep, NeighbourPublishWakesSleeperNextRound) {
  Tree t = graph::make_path(2);
  const SleepProbe p = run_both_modes(
      t,
      [] {
        return SleepProbe({.publish_round = 3, .publish_value = 7,
                           .end_round = 10});
      },
      100);
  // Published in round 3, visible in round 4: woken then, not in 3.
  const std::vector<std::int64_t> expected = {1, 4, 11};
  EXPECT_EQ(p.visits(), expected);
}

TEST(EngineSleep, NeighbourTerminationWakesSleeperNextRound) {
  Tree t = graph::make_path(2);
  RunStats stats;
  const SleepProbe p = run_both_modes(
      t, [] { return SleepProbe({.end_round = 5}); }, 100, &stats);
  const std::vector<std::int64_t> expected = {1, 6};
  EXPECT_EQ(p.visits(), expected);
  EXPECT_EQ(stats.termination_round[1], 6);
  EXPECT_EQ(stats.visits, 5 + 2);
}

TEST(EngineSleep, DeadlineWakesSleeperInExactlyThatRound) {
  Tree t = graph::make_path(3);  // nodes 1 and 2 both sleep
  RunStats stats;
  const SleepProbe p = run_both_modes(
      t, [] { return SleepProbe({.end_round = 20, .deadline = 9}); }, 100,
      &stats);
  const std::vector<std::int64_t> expected = {1, 1, 9, 9};  // walk order
  EXPECT_EQ(p.visits(), expected);
  EXPECT_EQ(stats.termination_round[1], 9);
  EXPECT_EQ(stats.termination_round[2], 9);
}

/// Node 0 republishes its committed register (dropped), and in another
/// round stages a different value and then the committed one again
/// (which must commit the committed value). Node 1 checks every read.
class RepublishProbe final : public Program {
 public:
  void on_init(NodeCtx& ctx) override {
    if (ctx.node() == 0) ctx.publish({5});
  }
  void on_round(NodeCtx& ctx) override {
    const std::int64_t r = ctx.round();
    if (ctx.node() == 0) {
      if (r == 2) ctx.publish({5});  // identical: dropped
      if (r == 4) {
        ctx.publish({9});
        ctx.publish({5});  // overwrites the staged 9
      }
      if (r == 6) ctx.terminate(0);
      return;
    }
    visits_.push_back(r);
    const local::RegView reg = ctx.peek(0);
    EXPECT_EQ(std::vector<std::int64_t>(reg.begin(), reg.end()),
              std::vector<std::int64_t>{5})
        << "round " << r;
    if (ctx.neighbor_terminated(0)) {
      ctx.terminate(1);
      return;
    }
    ctx.sleep_until(NodeCtx::kNever);
  }
  [[nodiscard]] const std::vector<std::int64_t>& visits() const {
    return visits_;
  }

 private:
  std::vector<std::int64_t> visits_;
};

TEST(EngineSleep, IdenticalPublishIsDroppedAndWakesNobody) {
  Tree t = graph::make_path(2);
  const RepublishProbe p =
      run_both_modes(t, [] { return RepublishProbe(); }, 100);
  // Round 2's identical publish changed nothing, so nobody woke in 3.
  const std::vector<std::int64_t>& v = p.visits();
  EXPECT_EQ(v.front(), 1);
  EXPECT_EQ(v.back(), 7);
  EXPECT_EQ(std::count(v.begin(), v.end(), 3), 0);
}

/// Every node sleeps forever from round 1 and never terminates.
class SleepForever final : public Program {
 public:
  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx& ctx) override {
    ctx.sleep_until(NodeCtx::kNever);
  }
};

TEST(EngineSleep, EveryoneAsleepTruncatesAtMaxRounds) {
  Tree t = graph::make_random_tree(40, 4, 5);
  RunStats stats;
  (void)run_both_modes(t, [] { return SleepForever(); }, 50, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.rounds, 50);
  EXPECT_EQ(stats.unterminated, 40);
  EXPECT_EQ(stats.worst_case, 50);
  for (const std::int64_t t_v : stats.termination_round) EXPECT_EQ(t_v, 50);
  for (const auto& o : stats.output) EXPECT_EQ(o.primary, -1);
  EXPECT_EQ(stats.visits, 40);  // round 1 only

  Engine batch(t, local::DispatchMode::kBatch);
  SleepForever p;
  local::RunProfile profile;
  (void)batch.run(p, 50, &profile);
  EXPECT_EQ(profile.alive_per_round,
            std::vector<std::int64_t>(50, 40));
}

/// Node v sleeps until round 10 * (v + 1) and terminates there: the
/// engine skips the idle stretches between deadlines.
class StaggeredNap final : public Program {
 public:
  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx& ctx) override {
    const std::int64_t end = 10 * (ctx.node() + 1);
    if (ctx.round() >= end) {
      ctx.terminate(0);
      return;
    }
    ctx.sleep_until(end);
  }
};

TEST(EngineSleep, RoundSkippingKeepsTheAliveTrajectory) {
  Tree t = graph::make_path(5);
  RunStats stats;
  (void)run_both_modes(t, [] { return StaggeredNap(); },
                       std::numeric_limits<int>::max(), &stats);
  EXPECT_EQ(stats.rounds, 50);
  EXPECT_EQ(stats.total_rounds, 10 + 20 + 30 + 40 + 50);
  // Round 1 and each deadline, plus one wake of node v + 1 by node v's
  // termination (a no-op visit, as the contract requires).
  EXPECT_EQ(stats.visits, 2 * 5 + 4);

  // Truncating inside a skipped stretch censors like per-node does.
  (void)run_both_modes(t, [] { return StaggeredNap(); }, 25);
}

TEST(EngineSleep, FloodWithSleepersMatchesPerNode) {
  for (const std::uint64_t seed : {3u, 8u, 21u}) {
    SCOPED_TRACE(seed);
    Tree t = graph::make_random_tree(700, 4, seed);
    RunStats stats;
    (void)run_both_modes(t, [] { return FloodNapProgram(); },
                         std::numeric_limits<int>::max(), &stats);
    EXPECT_FALSE(stats.truncated);
    EXPECT_LT(stats.visits, stats.total_rounds);
  }
}

/// Two mass deadlines and a few staggered ones: even nodes end in round
/// 5, odd ones in round 12, every tenth node in round 9..15. Each node
/// sleeps straight to its end, so rounds 5 and 12 wake most of the
/// graph at once while other timers stay pending.
class MassDeadlines final : public Program {
 public:
  static std::int64_t end(NodeId v) {
    if (v % 10 == 0) return 9 + v % 7;
    return v % 2 == 0 ? 5 : 12;
  }
  void on_init(NodeCtx& ctx) override { ctx.sleep_until(end(ctx.node())); }
  void on_round(NodeCtx& ctx) override {
    if (ctx.round() >= end(ctx.node())) {
      ctx.terminate(0);
      return;
    }
    ctx.sleep_until(end(ctx.node()));
  }
};

TEST(EngineSleep, MassDeadlinesWakeExactlyTheDueSleepers) {
  Tree t = graph::make_random_tree(400, 4, 5);
  RunStats stats;
  (void)run_both_modes(t, [] { return MassDeadlines(); },
                       std::numeric_limits<int>::max(), &stats);
  for (NodeId v = 0; v < t.size(); ++v) {
    EXPECT_EQ(stats.termination_round[static_cast<std::size_t>(v)],
              MassDeadlines::end(v))
        << "node " << v;
  }
  EXPECT_LT(stats.visits, stats.total_rounds / 2);
}

// ---- Timer queue ---------------------------------------------------------
// Deadlines live in a radix queue keyed by round. These cases move a
// sleeper between deadlines, straddle the bucket boundaries, clamp, and
// terminate with a deadline pending; each demands exact visit rounds.

/// Node 0 publishes in round 5 and terminates in `end0`. Node 1 sleeps
/// to `first` from init, so node 0's publish wakes it early in round 6;
/// it stays awake for `awake` rounds, then sleeps to `second`, and
/// terminates once that deadline has come.
class ResleepProbe final : public Program {
 public:
  struct Script {
    std::int64_t first = 0;
    std::int64_t second = 0;
    std::int64_t awake = 0;
    std::int64_t end0 = 0;
  };
  explicit ResleepProbe(Script script) : script_(script) {}

  void on_init(NodeCtx& ctx) override {
    if (ctx.node() == 1) ctx.sleep_until(script_.first);
  }
  void on_round(NodeCtx& ctx) override {
    const std::int64_t r = ctx.round();
    if (ctx.node() == 0) {
      if (r == 5) ctx.publish({1});
      if (r == script_.end0) ctx.terminate(0);
      return;
    }
    visits_.push_back(r);
    if (seen_ == 0 && !ctx.peek(0).empty()) seen_ = r;
    const std::int64_t target = seen_ == 0 ? script_.first : script_.second;
    if (r >= target) {
      ctx.terminate(1);
      return;
    }
    if (seen_ == 0 || r >= seen_ + script_.awake) ctx.sleep_until(target);
  }
  [[nodiscard]] const std::vector<std::int64_t>& visits() const {
    return visits_;
  }

 private:
  Script script_;
  std::int64_t seen_ = 0;  ///< round node 1 first saw the publish
  std::vector<std::int64_t> visits_;
};

TEST(EngineTimers, EarlyWakeThenAnEarlierDeadline) {
  Tree t = graph::make_path(2);
  RunStats stats;
  const ResleepProbe p = run_both_modes(
      t,
      [] {
        return ResleepProbe(
            {.first = 100, .second = 50, .awake = 0, .end0 = 80});
      },
      1000, &stats);
  // The pending round-100 deadline is replaced, not kept alongside.
  EXPECT_EQ(p.visits(), (std::vector<std::int64_t>{6, 50}));
  EXPECT_EQ(stats.termination_round[1], 50);
  EXPECT_EQ(stats.visits, 80 + 2);
}

TEST(EngineTimers, EarlyWakeThenALaterDeadline) {
  Tree t = graph::make_path(2);
  RunStats stats;
  const ResleepProbe p = run_both_modes(
      t,
      [] {
        return ResleepProbe(
            {.first = 50, .second = 100, .awake = 0, .end0 = 150});
      },
      1000, &stats);
  // No visit in round 50: the old deadline left the queue.
  EXPECT_EQ(p.visits(), (std::vector<std::int64_t>{6, 100}));
  EXPECT_EQ(stats.termination_round[1], 100);
}

TEST(EngineTimers, ResleepingToTheSameDeadline) {
  Tree t = graph::make_path(2);
  // Straight back to sleep in the wake round, and after three awake
  // rounds: either way the pending deadline still fires.
  for (const std::int64_t awake : {0, 3}) {
    SCOPED_TRACE(awake);
    RunStats stats;
    const ResleepProbe p = run_both_modes(
        t,
        [awake] {
          return ResleepProbe(
              {.first = 100, .second = 100, .awake = awake, .end0 = 150});
        },
        1000, &stats);
    std::vector<std::int64_t> expected;
    for (std::int64_t r = 6; r <= 6 + awake; ++r) expected.push_back(r);
    expected.push_back(100);
    EXPECT_EQ(p.visits(), expected);
    EXPECT_EQ(stats.termination_round[1], 100);
  }
}

/// A star whose leaves sleep through fixed deadline schedules: leaf i is
/// visited exactly at `schedule[i - 1]` and terminates at its last entry.
/// The centre sleeps until every leaf has terminated, so nothing but the
/// deadlines wakes a leaf.
class ScheduledLeaves final : public Program {
 public:
  explicit ScheduledLeaves(std::vector<std::vector<std::int64_t>> schedule)
      : schedule_(std::move(schedule)), visits_(schedule_.size()) {}

  void on_init(NodeCtx& ctx) override {
    if (ctx.node() == 0) {
      ctx.sleep_until(NodeCtx::kNever);
    } else {
      ctx.sleep_until(leaf(ctx).front());
    }
  }
  void on_round(NodeCtx& ctx) override {
    const std::int64_t r = ctx.round();
    if (ctx.node() == 0) {
      for (int p = 0; p < ctx.degree(); ++p) {
        if (!ctx.neighbor_terminated(p)) {
          ctx.sleep_until(NodeCtx::kNever);
          return;
        }
      }
      ctx.terminate(0);
      return;
    }
    visits_[static_cast<std::size_t>(ctx.node() - 1)].push_back(r);
    const std::vector<std::int64_t>& s = leaf(ctx);
    const auto next = std::upper_bound(s.begin(), s.end(), r);
    if (next == s.end()) {
      ctx.terminate(1);
      return;
    }
    ctx.sleep_until(*next);
  }
  [[nodiscard]] const std::vector<std::vector<std::int64_t>>& visits()
      const {
    return visits_;
  }

 private:
  const std::vector<std::int64_t>& leaf(const NodeCtx& ctx) const {
    return schedule_[static_cast<std::size_t>(ctx.node() - 1)];
  }

  std::vector<std::vector<std::int64_t>> schedule_;
  std::vector<std::vector<std::int64_t>> visits_;
};

TEST(EngineTimers, DeadlinesStraddlingPowersOfTwo) {
  const std::vector<std::vector<std::int64_t>> schedule = {
      {63},
      {64},
      {65},
      {1023},
      {1024},
      {1025},
      {62, 64},
      {63, 65},
      {61, 63, 65, 1023, 1025},
      {64, 1024},
      {65, 1023},
      {127, 129, 255, 257, 511, 513, 1023, 1025},
      {128, 256, 512, 1024},
      {126, 128, 130},
      {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
      {3, 7, 15, 31, 63, 127, 255, 511, 1023},
  };
  Tree t = graph::make_star(static_cast<NodeId>(schedule.size()));
  RunStats stats;
  const ScheduledLeaves p = run_both_modes(
      t, [&] { return ScheduledLeaves(schedule); }, 5000, &stats);
  EXPECT_EQ(p.visits(), schedule);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(stats.termination_round[i + 1], schedule[i].back());
  }
  EXPECT_EQ(stats.termination_round[0], 1026);

  // Far deadlines, default dispatch only (per-node would walk every
  // round): the top buckets, reached by skipping the idle stretches.
  const std::vector<std::vector<std::int64_t>> far = {
      {(1 << 20) - 1, (1 << 20) + 1},
      {1 << 20, 1 << 30},
      {(1 << 30) - 1},
      {(1 << 30) + 1, (std::int64_t{1} << 31) - 2},
  };
  Tree far_star = graph::make_star(static_cast<NodeId>(far.size()));
  ScheduledLeaves q(far);
  const RunStats far_stats = Engine(far_star).run(q);
  EXPECT_EQ(q.visits(), far);
  EXPECT_FALSE(far_stats.truncated);
  EXPECT_EQ(far_stats.rounds, far.back().back() + 1);
}

/// Every node sleeps to round 2^40, beyond what a timer stores; node 2
/// first naps to round 500. A visit terminates once the round reaches
/// the 32-bit clamp.
class FarSleepers final : public Program {
 public:
  static constexpr std::int64_t kClamp =
      std::numeric_limits<std::int32_t>::max();
  void on_init(NodeCtx& ctx) override {
    ctx.sleep_until(ctx.node() == 2 ? 500 : std::int64_t{1} << 40);
  }
  void on_round(NodeCtx& ctx) override {
    visits_.push_back(ctx.round());
    if (ctx.round() >= kClamp) {
      ctx.terminate(0);
      return;
    }
    ctx.sleep_until(std::int64_t{1} << 40);
  }
  [[nodiscard]] const std::vector<std::int64_t>& visits() const {
    return visits_;
  }

 private:
  std::vector<std::int64_t> visits_;
};

TEST(EngineTimers, ClampedDeadlineAndTruncationInASkippedStretch) {
  Tree t = graph::make_path(3);
  // The clamped deadline wakes everyone in round 2^31 - 1 (early for
  // 2^40, which by contract is a no-op visit), and they end there.
  FarSleepers p;
  const RunStats stats = Engine(t).run(p);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.rounds, FarSleepers::kClamp);
  for (const std::int64_t t_v : stats.termination_round) {
    EXPECT_EQ(t_v, FarSleepers::kClamp);
  }
  const std::int64_t c = FarSleepers::kClamp;
  EXPECT_EQ(p.visits(), (std::vector<std::int64_t>{500, c, c, c}));
  EXPECT_EQ(stats.visits, 4);

  // max_rounds inside the second idle stretch: censored like per-node.
  RunStats cut;
  const FarSleepers q =
      run_both_modes(t, [] { return FarSleepers(); }, 1000, &cut);
  EXPECT_TRUE(cut.truncated);
  EXPECT_EQ(cut.rounds, 1000);
  EXPECT_EQ(cut.unterminated, 3);
  EXPECT_EQ(q.visits(), (std::vector<std::int64_t>{500}));
  EXPECT_EQ(cut.visits, 1);
}

/// Node 1 stays awake until round 3, where it sleeps to 20 and then
/// terminates in the same callback. Nodes 2 and 3 sleep to 20 (the same
/// deadline) and end there; node 0 ends once it sees node 1 terminated.
class SleepThenTerminate final : public Program {
 public:
  void on_init(NodeCtx& ctx) override {
    if (ctx.node() == 0) ctx.sleep_until(NodeCtx::kNever);
    if (ctx.node() >= 2) ctx.sleep_until(20);
  }
  void on_round(NodeCtx& ctx) override {
    const std::int64_t r = ctx.round();
    visits_.push_back({ctx.node(), r});
    switch (ctx.node()) {
      case 0:
        if (ctx.neighbor_terminated(0)) {
          ctx.terminate(0);
        } else {
          ctx.sleep_until(NodeCtx::kNever);
        }
        return;
      case 1:
        if (r == 3) {
          ctx.sleep_until(20);
          ctx.terminate(1);
        }
        return;
      default:
        if (r >= 20) {
          ctx.terminate(2);
        } else {
          ctx.sleep_until(20);
        }
    }
  }
  [[nodiscard]] const std::vector<std::pair<NodeId, std::int64_t>>& visits()
      const {
    return visits_;
  }

 private:
  std::vector<std::pair<NodeId, std::int64_t>> visits_;
};

TEST(EngineTimers, SleepThenTerminateInOneCallback) {
  Tree t = graph::make_path(4);
  RunStats stats;
  const SleepThenTerminate p = run_both_modes(
      t, [] { return SleepThenTerminate(); }, 1000, &stats);
  EXPECT_EQ(stats.termination_round,
            (std::vector<std::int64_t>{4, 3, 20, 20}));
  // Termination wins over the deadline: node 1 is never visited again,
  // and round 20 still wakes the two nodes that share its deadline.
  const std::vector<std::pair<NodeId, std::int64_t>> expected = {
      {1, 1}, {1, 2}, {1, 3}, {0, 4}, {2, 4}, {2, 20}, {3, 20}};
  EXPECT_EQ(p.visits(), expected);
  EXPECT_EQ(stats.visits, 7);
}

/// Seeded random sleepers. A node acts when its deadline has come or its
/// neighbourhood (neighbour registers and visible terminations) changed
/// since it last acted; any other visit is a no-op re-sleep, so per-node
/// and default dispatch must agree. What an action does is drawn from a
/// hash of (seed, node, round) alone: publish a small value (sometimes
/// the committed one, which is dropped), terminate (sometimes right
/// after a `sleep_until` in the same callback), and pick the next
/// deadline — stay awake, a short or long nap, the pending deadline
/// again, one next to a multiple of a power of two, or kNever. From
/// round kLastAct every action terminates.
class RandomSleepers final : public Program {
 public:
  static constexpr std::int64_t kLastAct = 3000;

  RandomSleepers(std::uint64_t seed, NodeId n)
      : seed_(seed),
        deadline_(static_cast<std::size_t>(n), 0),
        seen_(static_cast<std::size_t>(n), 0) {}

  void on_init(NodeCtx& ctx) override { act(ctx); }
  void on_round(NodeCtx& ctx) override {
    const auto v = static_cast<std::size_t>(ctx.node());
    if (ctx.round() < deadline_[v] && digest(ctx) == seen_[v]) {
      ctx.sleep_until(deadline_[v]);
      return;
    }
    act(ctx);
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  static std::uint64_t digest(const NodeCtx& ctx) {
    std::uint64_t h = 1;
    for (int p = 0; p < ctx.degree(); ++p) {
      h = mix(h + (ctx.neighbor_terminated(p) ? 1 : 2));
      for (const std::int64_t w : ctx.peek(p)) {
        h = mix(h + static_cast<std::uint64_t>(w));
      }
    }
    return h;
  }

  /// Whether a neighbour that never sleeps to kNever (id divisible by 4)
  /// is still alive, so a kNever sleeper is sure to be woken again.
  static bool has_waker(const NodeCtx& ctx) {
    for (int p = 0; p < ctx.degree(); ++p) {
      if (!ctx.neighbor_terminated(p) && ctx.peek(p).size() == 2 &&
          ctx.peek(p)[1] % 4 == 0) {
        return true;
      }
    }
    return false;
  }

  std::int64_t next_deadline(const NodeCtx& ctx, std::uint64_t y) const {
    const std::int64_t r = ctx.round();
    const auto v = static_cast<std::size_t>(ctx.node());
    const auto span = static_cast<std::int64_t>(y >> 3);
    switch (y % 8) {
      case 0:
        return r + 1;  // stays awake
      case 1:
      case 2:
        return r + 2 + span % 6;
      case 3:
        return r + 2 + span % 1100;
      case 4: {
        const std::int64_t p = std::int64_t{64} << (span % 5);  // 64..1024
        return std::max(r + 2, (r / p + 1) * p - 1 + (span >> 3) % 3);
      }
      case 5:  // the pending deadline, if it is a round
        return deadline_[v] >= r + 2 && deadline_[v] != NodeCtx::kNever
                   ? deadline_[v]
                   : r + 2 + span % 6;
      default:
        if (ctx.node() % 4 != 0 && has_waker(ctx)) return NodeCtx::kNever;
        return r + 2 + span % 40;
    }
  }

  void act(NodeCtx& ctx) {
    const NodeId v = ctx.node();
    const auto i = static_cast<std::size_t>(v);
    const std::int64_t r = ctx.round();
    const std::uint64_t x =
        mix(seed_ ^ mix(static_cast<std::uint64_t>(v) << 32 ^
                        static_cast<std::uint64_t>(r)));
    if (r == 0 || x % 3 == 0) {
      ctx.publish({static_cast<std::int64_t>((x >> 8) % 4), v});
    }
    if (r >= kLastAct || (r > 0 && (x >> 16) % 30 == 0)) {
      if ((x >> 20) % 2 == 0) {
        ctx.sleep_until(r + 2 + static_cast<std::int64_t>((x >> 24) % 100));
      }
      ctx.terminate(static_cast<int>(x % 5));
      return;
    }
    deadline_[i] = next_deadline(ctx, x >> 32);
    seen_[i] = digest(ctx);
    ctx.sleep_until(deadline_[i]);
  }

  std::uint64_t seed_;
  std::vector<std::int64_t> deadline_;
  std::vector<std::uint64_t> seen_;
};

TEST(EngineTimers, RandomSleepersMatchPerNodeAndPinnedCounts) {
  struct Pinned {
    std::uint64_t seed;
    std::int64_t visits;
    std::int64_t total_rounds;
    std::int64_t rounds;
  };
  // Pinned: any change to which rounds wake which sleepers moves them.
  for (const Pinned& pin : {Pinned{1, 7065, 421090, 3844},
                            Pinned{2, 6511, 378749, 4039}}) {
    SCOPED_TRACE(pin.seed);
    Tree t = graph::make_random_tree(300, 4, pin.seed);
    RandomSleepers pernode_program(pin.seed, t.size());
    RandomSleepers default_program(pin.seed, t.size());
    local::RunProfile pernode_profile;
    local::RunProfile default_profile;
    const RunStats pernode =
        Engine(t, local::DispatchMode::kPerNode)
            .run(pernode_program, 100000, &pernode_profile);
    const RunStats by_default =
        Engine(t).run(default_program, 100000, &default_profile);
    expect_identical(pernode, by_default);
    EXPECT_EQ(pernode_profile.alive_per_round,
              default_profile.alive_per_round);
    EXPECT_FALSE(by_default.truncated);
    EXPECT_EQ(pernode.visits, pernode.total_rounds);
    EXPECT_EQ(by_default.visits, pin.visits);
    EXPECT_EQ(by_default.total_rounds, pin.total_rounds);
    EXPECT_EQ(by_default.rounds, pin.rounds);
  }
}

// ---------------------------------------------------------------------------
// Sharded rounds: walks of at least Engine::kShardMin nodes are cut into
// chunks that a BatchRunner's idle workers walk too. Every run below is
// large enough to shard and is compared with the same run on a 1-worker
// runner (no helper, so never sharded) and in an engine-owned workspace.
// ---------------------------------------------------------------------------

/// One engine run and its profile.
struct ProfiledRun {
  RunStats stats;
  local::RunProfile profile;
};

/// Runs `make()`'s program on `tree` as the only job of a `threads`-worker
/// runner, in that worker's workspace — where the runner's other workers
/// help. `threads == 0` runs it in an engine-owned workspace instead.
template <typename Make>
ProfiledRun run_with_helpers(const Tree& tree, int threads,
                             local::DispatchMode mode, Make make) {
  constexpr std::int64_t max_rounds = 100000;
  ProfiledRun out;
  const auto run = [&] {
    auto program = make();
    Engine engine(tree, mode);
    if (threads == 0) {
      out.stats = engine.run(*program, max_rounds, &out.profile);
    } else {
      out.stats = engine.run(*program, local::tls_workspace(), max_rounds,
                             &out.profile);
    }
  };
  if (threads == 0) {
    run();
    return out;
  }
  core::BatchJob job;
  job.run = [&run](std::uint64_t) {
    run();
    core::MeasuredRun r;
    r.status = core::RunStatus::kOk;
    return r;
  };
  const std::vector<core::MeasuredRun> results =
      core::run_batch({job}, threads);
  EXPECT_TRUE(results[0].ok()) << results[0].check_reason;
  return out;
}

/// Everything a run measures, `visits` and the profile included; only
/// `sharded_rounds` may differ.
void expect_same_run(const ProfiledRun& a, const ProfiledRun& b) {
  expect_identical(a.stats, b.stats);
  EXPECT_EQ(a.stats.visits, b.stats.visits);
  EXPECT_EQ(a.stats.truncated, b.stats.truncated);
  EXPECT_EQ(a.stats.unterminated, b.stats.unterminated);
  EXPECT_EQ(a.profile.alive_per_round, b.profile.alive_per_round);
  EXPECT_EQ(a.profile.term_count, b.profile.term_count);
}

/// Runs `make()` serially, on a 1-worker and on a 4-worker runner, in
/// both dispatch modes (or only the default): all agree, the 4-worker
/// runs shard and the others do not. Returns the default-dispatch
/// 4-worker run.
template <typename Make>
ProfiledRun expect_shard_invariant(const Tree& tree, Make make,
                                   bool per_node_too = true) {
  ProfiledRun sharded;
  for (const auto mode :
       {local::DispatchMode::kPerNode, local::DispatchMode::kAuto}) {
    if (mode == local::DispatchMode::kPerNode && !per_node_too) continue;
    SCOPED_TRACE(mode == local::DispatchMode::kPerNode ? "per-node"
                                                       : "default");
    const ProfiledRun serial = run_with_helpers(tree, 0, mode, make);
    const ProfiledRun one = run_with_helpers(tree, 1, mode, make);
    const ProfiledRun four = run_with_helpers(tree, 4, mode, make);
    expect_same_run(serial, one);
    expect_same_run(serial, four);
    EXPECT_EQ(serial.stats.sharded_rounds, 0);
    EXPECT_EQ(one.stats.sharded_rounds, 0);
    EXPECT_GT(four.stats.sharded_rounds, 0);
    if (mode == local::DispatchMode::kAuto) sharded = four;
  }
  return sharded;
}

/// Exercises each deferred effect of a sharded walk on a path, whose
/// walks are all of 0..n-1 for the first rounds, so chunk c holds ids
/// [512c, 512c + 512). Round 1 publishes registers wider than the
/// initial capacity (a plane growth inside the walk): some are then
/// superseded by a narrower publish in the same callback, some by a
/// second wide one, some follow a narrow one. Round 2 reads them all
/// back; about every seventh node sleeps and terminates in one callback;
/// the first node of each chunk sleeps with no deadline until its left
/// neighbour, the last node of the previous chunk, publishes in round 3.
class ShardProbe final : public Program {
 public:
  static constexpr std::size_t kChunk = 512;

  explicit ShardProbe(const Tree& tree)
      : tree_(tree), bad_(static_cast<std::size_t>(tree.size()), 0) {}

  void on_init(NodeCtx& ctx) override { ctx.publish({ctx.node()}); }

  void on_round(NodeCtx& ctx) override {
    const NodeId v = ctx.node();
    const std::int64_t r = ctx.round();
    const auto i = static_cast<std::size_t>(v);
    if (r == 1) {
      switch (v % 4) {
        case 0:
          ctx.publish(wide(v, 1));
          break;
        case 1:
          ctx.publish(wide(v, 1));
          ctx.publish({v, 1});
          break;
        case 2:
          ctx.publish({v, 1});
          ctx.publish(wide(v, 2));
          break;
        default:
          ctx.publish(wide(v, 1));
          ctx.publish(wide(v, 3));
      }
      return;
    }
    if (r == 2) {
      if (!same(ctx.own(), expected(v))) ++bad_[i];
      const auto nb = tree_.neighbors(v);
      for (std::size_t p = 0; p < nb.size(); ++p) {
        if (!same(ctx.peek(static_cast<int>(p)), expected(nb[p]))) {
          ++bad_[i];
        }
      }
      if (sleeps_and_ends(i)) {
        ctx.sleep_until(50);
        ctx.terminate(1);
        return;
      }
    }
    if (r == 3 && i % kChunk == kChunk - 1) ctx.publish({v, 3});
    if (i % kChunk == 0 && v > 0) {
      // Waits for the left neighbour's round-3 publish.
      for (int p = 0; p < ctx.degree(); ++p) {
        if (same(ctx.peek(p), {v - 1, 3})) {
          ctx.terminate(static_cast<int>(r));
          return;
        }
      }
      ctx.sleep_until(NodeCtx::kNever);
      return;
    }
    if (r >= 5) ctx.terminate(2);
  }

  [[nodiscard]] const std::vector<int>& bad() const { return bad_; }
  /// Whether node i sleeps and terminates in round 2 (never the last
  /// node of a chunk, which has a publish to make in round 3).
  static bool sleeps_and_ends(std::size_t i) {
    return i % 7 == 3 && i % kChunk != kChunk - 1;
  }

 private:
  static Register wide(NodeId v, std::int64_t tag) {
    Register reg(9);
    for (std::size_t w = 0; w < reg.size(); ++w) {
      reg[w] = v * 16 + tag * static_cast<std::int64_t>(w);
    }
    return reg;
  }
  static Register expected(NodeId u) {
    switch (u % 4) {
      case 0:
        return wide(u, 1);
      case 1:
        return {u, 1};
      case 2:
        return wide(u, 2);
      default:
        return wide(u, 3);
    }
  }
  static bool same(local::RegView got, const Register& want) {
    return std::equal(got.begin(), got.end(), want.begin(), want.end());
  }

  const Tree& tree_;
  std::vector<int> bad_;
};

TEST(EngineShard, GrowthSleepTerminateAndChunkBoundaryWakes) {
  const Tree t = graph::make_path(5000);
  ASSERT_EQ(ShardProbe::kChunk, Engine::kShardChunk);
  const ProfiledRun run = expect_shard_invariant(
      t, [&] { return std::make_unique<ShardProbe>(t); });
  for (std::size_t v = 0; v < 5000; ++v) {
    const std::int64_t tv = run.stats.termination_round[v];
    if (ShardProbe::sleeps_and_ends(v)) {
      EXPECT_EQ(tv, 2) << v;
    } else if (v % ShardProbe::kChunk == 0 && v > 0) {
      EXPECT_EQ(tv, 4) << v;  // woken across the chunk boundary
    } else {
      EXPECT_EQ(tv, 5) << v;
    }
  }
}

TEST(EngineShard, WideRegistersSurviveAShardedGrowth) {
  const Tree t = graph::make_path(5000);
  for (const int threads : {1, 4}) {
    std::vector<int> bad;
    core::BatchJob job;
    job.run = [&](std::uint64_t) {
      ShardProbe p(t);
      Engine engine(t);
      const RunStats stats = engine.run(p, local::tls_workspace());
      EXPECT_EQ(stats.sharded_rounds > 0, threads > 1);
      bad = p.bad();
      core::MeasuredRun r;
      r.status = core::RunStatus::kOk;
      return r;
    };
    (void)core::run_batch({job}, threads);
    EXPECT_EQ(std::count(bad.begin(), bad.end(), 0), 5000)
        << "nodes that read a wrong register at " << threads << " workers";
  }
}

TEST(EngineShard, RandomSleepersMatchAcrossRunners) {
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(seed);
    // The per-node reference is RandomSleepersMatchPerNodeAndPinnedCounts;
    // here the default dispatch's wakes, relinks and terminations meet
    // chunk boundaries.
    const Tree t = graph::make_random_tree(6000, 4, seed);
    (void)expect_shard_invariant(
        t, [&] { return std::make_unique<RandomSleepers>(seed, t.size()); },
        /*per_node_too=*/false);
  }
}

TEST(EngineShard, EveryRegisteredSolverMatchesAcrossRunners) {
  for (const algo::SolverSpec& spec : algo::registry()) {
    SCOPED_TRACE(spec.name);
    std::string family;
    for (const char* name : {"random_attach", "prufer", "path"}) {
      const graph::Family* f = graph::find_family(name);
      if (f != nullptr && spec.compatible(*f)) {
        family = name;
        break;
      }
    }
    ASSERT_FALSE(family.empty());
    Tree t = graph::make_family_instance(family, /*n=*/4000, /*seed=*/5);
    algo::prepare_instance(t, spec.needs, 5);
    algo::SolverConfig cfg;
    cfg.seed = 5;
    cfg.validate(spec);
    const ProfiledRun run =
        expect_shard_invariant(t, [&] { return spec.factory(t, cfg); });
    EXPECT_TRUE(
        spec.certify(t, *spec.factory(t, cfg), run.stats, cfg).ok);
  }
}

/// Node `thrower` throws in round 1; the exception must reach the run's
/// caller from whichever thread walked that node's chunk.
class ThrowsInRoundOne final : public Program {
 public:
  explicit ThrowsInRoundOne(NodeId thrower) : thrower_(thrower) {}
  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx& ctx) override {
    if (ctx.node() == thrower_) {
      ctx.terminate(0);
      ctx.terminate(1);
    }
    if (ctx.round() == 3) ctx.terminate(0);
  }

 private:
  NodeId thrower_;
};

TEST(EngineShard, ACallbackExceptionReachesTheOwner) {
  const Tree t = graph::make_path(5000);
  for (const int threads : {1, 4}) {
    core::BatchJob job;
    job.run = [&](std::uint64_t) -> core::MeasuredRun {
      ThrowsInRoundOne p(4321);
      Engine engine(t);
      (void)engine.run(p, local::tls_workspace());
      ADD_FAILURE() << "the run did not throw";
      return {};
    };
    const auto results = core::run_batch({job}, threads);
    EXPECT_EQ(results[0].status, core::RunStatus::kException);
    EXPECT_NE(results[0].check_reason.find("double termination"),
              std::string::npos)
        << results[0].check_reason;
  }
  // The workspace is usable again afterwards: a clean run on the same
  // runner shape shards and completes.
  const ProfiledRun clean = run_with_helpers(
      t, 4, local::DispatchMode::kAuto,
      [] { return std::make_unique<ThrowsInRoundOne>(-1); });
  EXPECT_EQ(clean.stats.worst_case, 3);
  EXPECT_GT(clean.stats.sharded_rounds, 0);
}

TEST(AlignedPlaneContract, PaddingAlignmentAndAllocAccounting) {
  using local::AlignedPlane;
  AlignedPlane<std::int64_t> plane;
  EXPECT_EQ(AlignedPlane<std::int64_t>::padded(0), 0u);
  EXPECT_EQ(AlignedPlane<std::int64_t>::padded(1), 8u);
  EXPECT_EQ(AlignedPlane<std::int64_t>::padded(8), 8u);
  EXPECT_EQ(AlignedPlane<std::int64_t>::padded(9), 16u);
  EXPECT_EQ(AlignedPlane<std::uint8_t>::padded(1), 64u);

  EXPECT_TRUE(plane.assign(100, 7));  // first sizing allocates
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(plane.data()) % 64, 0u);
  // The fill covers the padded extent, not just the requested count.
  for (std::size_t i = 0; i < AlignedPlane<std::int64_t>::padded(100);
       ++i) {
    EXPECT_EQ(plane.data()[i], 7);
  }
  EXPECT_FALSE(plane.assign(50, 1));   // shrinking reuses
  EXPECT_FALSE(plane.assign(104, 2));  // fits the padded capacity
  EXPECT_TRUE(plane.assign(105, 3));   // genuine growth reallocates
}

TEST(PackedEntry, RoundTripsAtTheBoundaries) {
  using local::entry_target;
  using local::entry_value;
  using local::pack_entry;
  constexpr NodeId kMaxNode = std::numeric_limits<NodeId>::max();
  constexpr std::int32_t kMaxValue = std::numeric_limits<std::int32_t>::max();
  for (const NodeId target : {NodeId{0}, NodeId{1}, kMaxNode}) {
    for (const std::int32_t value : {0, 1, kMaxValue}) {
      const std::int64_t word = pack_entry(target, value);
      EXPECT_EQ(entry_target(word), target) << target << "," << value;
      EXPECT_EQ(entry_value(word), value) << target << "," << value;
      // A real entry is never the empty word.
      EXPECT_NE(word, -1);
    }
  }
  EXPECT_EQ(pack_entry(0, 0), 0);
  EXPECT_EQ(pack_entry(kMaxNode, kMaxValue), 0x7FFFFFFF7FFFFFFF);
  // The empty entry decodes to no node at all, so no reader mistakes it
  // for an entry addressed to it.
  EXPECT_EQ(entry_target(-1), graph::kInvalidNode);
  EXPECT_LT(entry_target(-1), 0);
  static_assert(entry_target(pack_entry(kMaxNode, -1)) == kMaxNode);
}

}  // namespace
}  // namespace lcl
