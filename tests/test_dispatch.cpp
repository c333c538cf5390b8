// Batched dispatch: the DispatchMode an engine is constructed with
// (which hooks each mode drives, and that the default is batch), the
// BatchCtx contract (lane views, bulk writers, synchronous visibility
// masking), and the guarantee the whole
// refactor rests on — a program with only per-node hooks runs
// bit-identically under batch dispatch through the default span loops,
// and a program with real batch kernels matches its per-node twin.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "graph/builders.hpp"
#include "local/engine.hpp"

namespace lcl {
namespace {

using graph::NodeId;
using graph::Tree;
using local::BatchCtx;
using local::DispatchMode;
using local::Engine;
using local::NodeCtx;
using local::NodeSpan;
using local::Program;
using local::RunStats;

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

/// Counts which hooks an engine run drives; the batch hooks forward to
/// the default span loops, so both modes run the same schedule.
class HookCounter final : public Program {
 public:
  void on_init(NodeCtx&) override { ++node_calls; }
  void on_round(NodeCtx& ctx) override {
    ++node_calls;
    if (ctx.round() == 2) ctx.terminate(0);
  }
  void on_init_batch(BatchCtx& batch, NodeSpan nodes) override {
    ++batch_calls;
    Program::on_init_batch(batch, nodes);
  }
  void on_round_batch(BatchCtx& batch, NodeSpan nodes) override {
    ++batch_calls;
    Program::on_round_batch(batch, nodes);
  }

  int node_calls = 0;
  int batch_calls = 0;
};

TEST(DispatchMode, ResolveCollapsesAutoThroughTheDefault) {
  // Each mode drives exactly its own hooks: one batch call per phase
  // (init + 2 rounds) under kBatch, none under kPerNode. kAuto collapses
  // to batch: with the default hooks batch replays the per-node
  // schedule, so it never loses.
  Tree t = graph::make_path(16);
  const auto run = [&t](DispatchMode mode) {
    HookCounter p;
    Engine(t, mode).run(p);
    EXPECT_EQ(p.node_calls, 3 * 16);
    return p.batch_calls;
  };
  EXPECT_EQ(run(DispatchMode::kPerNode), 0);
  EXPECT_EQ(run(DispatchMode::kBatch), 3);
  EXPECT_EQ(run(DispatchMode::kAuto), 3);
}

TEST(DispatchMode, DefaultConstructedEngineCallsTheBatchHooks) {
  Tree t = graph::make_path(16);
  HookCounter p;
  Engine engine(t);
  engine.run(p);
  EXPECT_EQ(engine.dispatch(), DispatchMode::kAuto);
  EXPECT_EQ(p.batch_calls, 3);
}

/// A per-node-only program exercising every NodeCtx facility: register
/// churn with growing widths, neighbor reads, staggered termination.
class PerNodeOnly final : public Program {
 public:
  void on_init(NodeCtx& ctx) override { ctx.publish({ctx.node()}); }
  void on_round(NodeCtx& ctx) override {
    std::int64_t sum = 0;
    for (int p = 0; p < ctx.degree(); ++p) {
      const local::RegView reg = ctx.peek(p);
      if (!reg.empty()) sum += reg[0];
      if (ctx.neighbor_terminated(p)) ++sum;
    }
    local::Register r(ctx.own().begin(), ctx.own().end());
    r.push_back(sum);
    ctx.publish(r);
    if (ctx.round() == (ctx.node() % 7) + 1) {
      ctx.terminate(static_cast<int>(sum % 1024), ctx.node() % 3);
    }
  }
};

TEST(BatchDispatch, DefaultHooksAreBitIdenticalToPerNode) {
  // No batch overrides: kBatch drives the default span loops, which
  // must reproduce the per-node schedule exactly — this is what lets
  // auto resolve to batch for arbitrary programs.
  Tree t = graph::make_random_tree(500, 4, 31);
  PerNodeOnly a;
  Engine pernode(t, DispatchMode::kPerNode);
  const RunStats ref = pernode.run(a);
  PerNodeOnly b;
  Engine batch(t, DispatchMode::kBatch);
  expect_identical(ref, batch.run(b));
  EXPECT_EQ(batch.dispatch(), DispatchMode::kBatch);
  EXPECT_EQ(pernode.dispatch(), DispatchMode::kPerNode);
}

/// A twin-path program: per-node hooks and hand-written batch kernels
/// computing the same protocol (sum neighbor ids, terminate once the
/// round count exceeds the node's threshold) through the lane-level
/// BatchCtx API — bulk publish_lane staging and terminate_lane tails.
class TwinPaths final : public Program {
 public:
  explicit TwinPaths(const Tree& tree)
      : scratch_(static_cast<std::size_t>(tree.size())) {}

  void on_init(NodeCtx& ctx) override { ctx.publish({ctx.node() + 1}); }
  void on_round(NodeCtx& ctx) override {
    if (ctx.round() > 9) {
      ctx.terminate(-1);
      return;
    }
    std::int64_t sum = 0;
    for (int p = 0; p < ctx.degree(); ++p) {
      const local::RegView reg = ctx.peek(p);
      sum += reg.empty() ? 0 : reg[0];
    }
    ctx.publish({sum});
    if (ctx.round() == (ctx.node() % 5) + 3) {
      ctx.terminate(static_cast<int>(sum % 4096));
    }
  }

  void on_init_batch(BatchCtx& batch, NodeSpan nodes) override {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      scratch_[i] = nodes[i] + 1;
    }
    batch.publish_lane(nodes, scratch_.data(), 1);
  }
  void on_round_batch(BatchCtx& batch, NodeSpan nodes) override {
    const std::int64_t round = batch.round();
    if (round > 9) {
      batch.terminate_lane(nodes, local::Output{-1, -1});
      return;
    }
    const std::int32_t* off = batch.offsets();
    const NodeId* adj = batch.adjacency();
    for (const NodeId v : nodes) {
      const auto vi = static_cast<std::size_t>(v);
      std::int64_t sum = 0;
      for (std::int32_t p = off[vi]; p < off[vi + 1]; ++p) {
        const local::RegView reg = batch.reg(adj[p]);
        sum += reg.empty() ? 0 : reg[0];
      }
      batch.publish(v, local::RegView(&sum, 1));
      if (round == (v % 5) + 3) {
        batch.terminate(v, static_cast<int>(sum % 4096));
      }
    }
  }

 private:
  std::vector<std::int64_t> scratch_;
};

TEST(BatchDispatch, HandWrittenKernelsMatchTheirPerNodeTwin) {
  Tree t = graph::make_random_tree(400, 4, 77);
  TwinPaths a(t);
  Engine pernode(t, DispatchMode::kPerNode);
  const RunStats ref = pernode.run(a);
  TwinPaths b(t);
  Engine batch(t, DispatchMode::kBatch);
  expect_identical(ref, batch.run(b));
}

/// Observes neighbor terminations through the raw lanes: node 0
/// terminates at round 1; every other node terminates the first round
/// it *sees* a visibly-terminated neighbor, recording the round. On a
/// path this produces a wave — and proves the termination lanes carry
/// the same one-round visibility delay NodeCtx::neighbor_terminated
/// has (the raw `terminated_lane` includes same-round terminations;
/// masking with term_round < round is the documented contract).
class VisibilityWave final : public Program {
 public:
  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx&) override { FAIL() << "batch-only program"; }
  void on_init_batch(BatchCtx&, NodeSpan) override {}
  void on_round_batch(BatchCtx& batch, NodeSpan nodes) override {
    const std::int32_t* off = batch.offsets();
    const NodeId* adj = batch.adjacency();
    const std::uint8_t* term = batch.terminated_lane().data();
    const std::int64_t* term_round = batch.term_round_lane().data();
    const std::int64_t round = batch.round();
    for (const NodeId v : nodes) {
      if (v == 0) {
        batch.terminate(v, 0);
        continue;
      }
      const auto vi = static_cast<std::size_t>(v);
      bool saw = false;
      for (std::int32_t p = off[vi]; p < off[vi + 1]; ++p) {
        const auto u = static_cast<std::size_t>(adj[p]);
        const bool masked = term[u] != 0 && term_round[u] < round;
        EXPECT_EQ(masked, batch.terminated_visible(adj[p]));
        saw = saw || masked;
      }
      if (saw) batch.terminate(v, static_cast<int>(round));
    }
  }
};

TEST(BatchDispatch, TerminationLanesCarrySynchronousVisibility) {
  Tree t = graph::make_path(6);
  VisibilityWave p;
  Engine engine(t, DispatchMode::kBatch);
  const RunStats stats = engine.run(p);
  // Node 0 terminates in round 1; node i only observes node i-1's
  // termination in round i+1 — the wave advances one hop per round
  // even though the batch walk covers every node every round.
  for (NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(stats.termination_round[static_cast<std::size_t>(v)], v + 1)
        << "node " << v;
  }
}

/// terminate_lane with per-node outputs, driven from a bulk decision.
class LaneOutputs final : public Program {
 public:
  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx&) override { FAIL() << "batch-only program"; }
  void on_init_batch(BatchCtx&, NodeSpan) override {}
  void on_round_batch(BatchCtx& batch, NodeSpan nodes) override {
    std::vector<local::Output> outs(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      outs[i] = {static_cast<int>(nodes[i]) * 2,
                 static_cast<int>(nodes[i]) % 5};
    }
    batch.terminate_lane(nodes, outs.data());
  }
};

TEST(BatchDispatch, TerminateLaneRecordsPerNodeOutputs) {
  Tree t = graph::make_star(7);
  LaneOutputs p;
  Engine engine(t, DispatchMode::kBatch);
  const RunStats stats = engine.run(p);
  for (NodeId v = 0; v < 8; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    EXPECT_EQ(stats.termination_round[vi], 1);
    EXPECT_EQ(stats.output[vi].primary, v * 2);
    EXPECT_EQ(stats.output[vi].secondary, v % 5);
  }
}

/// Terminating the same span twice in one round must throw, exactly
/// like a per-node double ctx.terminate().
class DoubleTerminate final : public Program {
 public:
  void on_init(NodeCtx&) override {}
  void on_round(NodeCtx&) override {}
  void on_round_batch(BatchCtx& batch, NodeSpan nodes) override {
    batch.terminate_lane(nodes, local::Output{1, -1});
    batch.terminate_lane(nodes, local::Output{2, -1});
  }
};

TEST(BatchDispatch, DoubleTerminationThrows) {
  Tree t = graph::make_path(4);
  DoubleTerminate p;
  Engine engine(t, DispatchMode::kBatch);
  EXPECT_THROW(engine.run(p), std::logic_error);
}

/// Batch init terminating a subset at T_v == 0: the compacted alive
/// span handed to the first on_round_batch must exclude exactly those
/// nodes, in stable id order (the same order per-node init produces).
class InitTerminates final : public Program {
 public:
  void on_init(NodeCtx& ctx) override {
    if (ctx.node() % 3 == 0) ctx.terminate(0);
  }
  void on_round(NodeCtx& ctx) override { ctx.terminate(1); }
  void on_init_batch(BatchCtx& batch, NodeSpan nodes) override {
    for (const NodeId v : nodes) {
      if (v % 3 == 0) batch.terminate(v, 0);
    }
  }
  void on_round_batch(BatchCtx& batch, NodeSpan nodes) override {
    first_round_span_.assign(nodes.begin(), nodes.end());
    for (const NodeId v : nodes) batch.terminate(v, 1);
  }

  std::vector<NodeId> first_round_span_;
};

TEST(BatchDispatch, InitTerminationsCompactTheFirstSpan) {
  Tree t = graph::make_path(10);
  InitTerminates batch_p;
  Engine batch(t, DispatchMode::kBatch);
  const RunStats batch_stats = batch.run(batch_p);
  const std::vector<NodeId> expected = {1, 2, 4, 5, 7, 8};
  EXPECT_EQ(batch_p.first_round_span_, expected);

  InitTerminates pernode_p;
  Engine pernode(t, DispatchMode::kPerNode);
  expect_identical(pernode.run(pernode_p), batch_stats);
}

}  // namespace
}  // namespace lcl
