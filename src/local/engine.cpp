#include "local/engine.hpp"

#include <algorithm>
#include <cstring>
#include <string>

namespace lcl::local {

Output NodeCtx::neighbor_output(int port) const {
  if (!neighbor_terminated(port)) {
    throw std::logic_error("NodeCtx: neighbor output not yet visible");
  }
  return engine_.outputs_[static_cast<std::size_t>(neighbor(port))];
}

void NodeCtx::terminate(Output out) {
  const auto v = static_cast<std::size_t>(v_);
  if (engine_.term_[v] != 0) {
    throw std::logic_error("NodeCtx: double termination");
  }
  engine_.term_[v] = 1;
  engine_.outputs_[v] = out;
  engine_.term_round_[v] = engine_.round_;
}

// Default batch hooks: replay the per-node schedule over the span, so a
// program that never heard of batching behaves bit-identically under
// either dispatch mode.

void Program::on_init_batch(BatchCtx& batch, NodeSpan nodes) {
  for (const NodeId v : nodes) {
    NodeCtx ctx = batch.node_ctx(v);
    on_init(ctx);
  }
}

void Program::on_round_batch(BatchCtx& batch, NodeSpan nodes) {
  for (const NodeId v : nodes) {
    NodeCtx ctx = batch.node_ctx(v);
    on_round(ctx);
  }
}

void BatchCtx::terminate(NodeId v, Output out) {
  NodeCtx ctx(engine_, v);
  ctx.terminate(out);
}

void BatchCtx::terminate_lane(NodeSpan nodes, Output out) {
  Engine& e = engine_;
  for (const NodeId v : nodes) {
    const auto i = static_cast<std::size_t>(v);
    if (e.term_[i] != 0) {
      throw std::logic_error("BatchCtx: double termination");
    }
    e.term_[i] = 1;
    e.outputs_[i] = out;
    e.term_round_[i] = e.round_;
  }
}

void BatchCtx::terminate_lane(NodeSpan nodes, const Output* outputs) {
  Engine& e = engine_;
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    const auto i = static_cast<std::size_t>(nodes[j]);
    if (e.term_[i] != 0) {
      throw std::logic_error("BatchCtx: double termination");
    }
    e.term_[i] = 1;
    e.outputs_[i] = outputs[j];
    e.term_round_[i] = e.round_;
  }
}

void BatchCtx::publish_lane(NodeSpan nodes, const std::int64_t* words,
                            std::size_t width) {
  Engine& e = engine_;
  // One capacity check for the whole lane; the per-node body below is
  // NodeCtx::publish with the grow branch hoisted out.
  if (static_cast<std::int64_t>(width) > e.cap_) {
    e.grow(static_cast<std::int64_t>(width));
  }
  const std::int64_t* src = words;
  for (const NodeId v : nodes) {
    const auto i = static_cast<std::size_t>(v);
    const int staging = e.cur_[i] ^ 1;
    if (width != 0) {
      std::memcpy(e.words_[staging] + i * static_cast<std::size_t>(e.cap_),
                  src, width * sizeof(std::int64_t));
    }
    e.len_[staging][i] = static_cast<std::int32_t>(width);
    if (e.pub_[i] == 0) {
      e.pub_[i] = 1;
      e.ws_->published.push_back(v);
    }
    src += width;
  }
}

Engine::Workspace& tls_workspace() {
  thread_local Engine::Workspace ws;
  return ws;
}

void Engine::Workspace::prepare(std::int64_t n) {
  const auto count = static_cast<std::size_t>(n);
  if (cap < kInitialCap) cap = kInitialCap;
  std::int64_t allocs = 0;
  // Word planes keep their contents: register reads are length-bounded
  // and every len resets to 0 below, so stale words are unreachable —
  // skipping the 2*n*cap clear is a large part of the warm-run win.
  for (auto& plane : words) {
    allocs += plane.ensure(count * static_cast<std::size_t>(cap)) ? 1 : 0;
  }
  // Bookkeeping lanes ARE cleared: a workspace hops between runs of
  // different n, and every run reads these lanes before writing them.
  for (auto& plane : len) allocs += plane.assign(count, 0) ? 1 : 0;
  allocs += cur.assign(count, 0) ? 1 : 0;
  allocs += pub.assign(count, 0) ? 1 : 0;
  allocs += terminated.assign(count, 0) ? 1 : 0;
  allocs += term_round.assign(count, 0) ? 1 : 0;
  if (outputs.capacity() < count) ++allocs;
  outputs.assign(count, Output{});
  if (alive.capacity() < count) {
    ++allocs;
    alive.reserve(count);
  }
  alive.clear();
  if (published.capacity() < count) {
    ++allocs;
    published.reserve(count);
  }
  published.clear();
  retired.clear();
  alloc_events_ += allocs;
}

void Engine::bind(Workspace& ws) {
  ws_ = &ws;
  cap_ = ws.cap;
  for (int p = 0; p < 2; ++p) {
    words_[p] = ws.words[p].data();
    len_[p] = ws.len[p].data();
  }
  cur_ = ws.cur.data();
  pub_ = ws.pub.data();
  term_ = ws.terminated.data();
  term_round_ = ws.term_round.data();
  outputs_ = ws.outputs.data();
}

void Engine::grow(std::int64_t width) {
  std::int64_t new_cap = cap_;
  while (new_cap < width) new_cap *= 2;
  const auto n = static_cast<std::size_t>(tree_.size());
  for (int p = 0; p < 2; ++p) {
    AlignedPlane<std::int64_t> grown;
    grown.ensure(n * static_cast<std::size_t>(new_cap));
    ++ws_->alloc_events_;
    for (std::size_t v = 0; v < n; ++v) {
      const std::int32_t l = len_[p][v];
      if (l != 0) {
        std::memcpy(grown.data() + v * static_cast<std::size_t>(new_cap),
                    words_[p] + v * static_cast<std::size_t>(cap_),
                    static_cast<std::size_t>(l) * sizeof(std::int64_t));
      }
    }
    // Keep the outgoing plane alive until the end of the round: the
    // program may still hold RegViews into it, and committed registers
    // are immutable for the rest of the round, so those views stay
    // correct.
    ws_->retired.push_back(std::move(ws_->words[p]));
    ws_->words[p] = std::move(grown);
    words_[p] = ws_->words[p].data();
  }
  cap_ = new_cap;
  ws_->cap = new_cap;
}

void Engine::commit_publishes() {
  // Toggle the owners' parity bits via the publisher list; silent and
  // terminated nodes cost nothing.
  std::vector<NodeId>& published = ws_->published;
  for (const NodeId v : published) {
    cur_[static_cast<std::size_t>(v)] ^= 1;
    pub_[static_cast<std::size_t>(v)] = 0;
  }
  published.clear();
  ws_->retired.clear();
}

void Engine::compact_alive() {
  // Stable in-place removal of the terminated ids: survivors keep their
  // relative order, so the alive list stays strictly increasing.
  std::vector<NodeId>& alive = ws_->alive;
  std::size_t w = 0;
  for (const NodeId v : alive) {
    if (term_[static_cast<std::size_t>(v)] == 0) alive[w++] = v;
  }
  alive.resize(w);
}

RunStats Engine::run(Program& program, std::int64_t max_rounds,
                     RunProfile* profile) {
  return run(program, own_ws_, max_rounds, profile);
}

RunStats Engine::run(Program& program, Workspace& ws,
                     std::int64_t max_rounds, RunProfile* profile) {
  RunStats stats;
  run_into(program, ws, stats, max_rounds, profile);
  return stats;
}

void Engine::run_into(Program& program, Workspace& ws, RunStats& stats,
                      std::int64_t max_rounds, RunProfile* profile) {
  if (ws.in_use) {
    throw std::logic_error(
        "local::Engine: workspace already serving a run in flight "
        "(one workspace per concurrent run; see tls_workspace())");
  }
  ws.in_use = true;
  struct Release {
    bool* flag;
    ~Release() { *flag = false; }
  } release{&ws.in_use};

  const auto n = static_cast<std::size_t>(tree_.size());
  round_ = 0;
  batch_ = dispatch_ != DispatchMode::kPerNode;

  // The only adjacency "setup": borrow the Tree's native CSR pointers.
  // Nothing is copied or rebuilt per run.
  off_ = tree_.offsets().data();
  adj_ = tree_.adjacency().data();

  ws.prepare(tree_.size());
  bind(ws);

  // Init phase (round 0): registers published here are visible in round 1.
  std::vector<NodeId>& alive = ws.alive;
  BatchCtx bctx(*this);
  if (batch_) {
    // One span-level call over every node, then a stable compaction of
    // the init-terminated ones — the same surviving order the per-node
    // push_back filter produces. `alive` was reserved for n by
    // prepare(), so the resize never allocates on a warm run.
    alive.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      alive[i] = static_cast<NodeId>(i);
    }
    program.on_init_batch(bctx, NodeSpan(alive.data(), alive.size()));
    compact_alive();
  } else {
    for (NodeId v = 0; v < tree_.size(); ++v) {
      NodeCtx ctx(*this, v);
      program.on_init(ctx);
      if (term_[static_cast<std::size_t>(v)] == 0) alive.push_back(v);
    }
  }
  commit_publishes();
  if (profile != nullptr) {
    profile->alive_per_round.clear();
    profile->term_count.clear();
  }

  // Reset every scalar field: the stats object may be recycled from a
  // previous run (run_into contract).
  stats.truncated = false;
  stats.unterminated = 0;
  while (!alive.empty()) {
    if (round_ >= max_rounds) {
      // Structured truncation: keep everything measured so far and censor
      // the survivors' T_v at the executed round count (a lower bound on
      // their true termination time). Their outputs stay {-1, -1}.
      stats.truncated = true;
      stats.unterminated = static_cast<std::int64_t>(alive.size());
      for (const NodeId v : alive) {
        term_round_[static_cast<std::size_t>(v)] = round_;
      }
      break;
    }
    ++round_;
    if (profile != nullptr) {
      profile->alive_per_round.push_back(
          static_cast<std::int64_t>(alive.size()));
    }
    if (batch_) {
      program.on_round_batch(bctx, NodeSpan(alive.data(), alive.size()));
    } else {
      for (const NodeId v : alive) {
        NodeCtx ctx(*this, v);
        program.on_round(ctx);
      }
    }
    commit_publishes();
    compact_alive();
  }

  stats.n = tree_.size();
  stats.rounds = round_;
  stats.termination_round.assign(term_round_, term_round_ + n);
  stats.output.assign(outputs_, outputs_ + n);
  // Exact integer sum and max of T_v (T_v >= 0, so 0 seeds the max).
  std::int64_t sum = 0;
  std::int64_t worst = 0;
  for (std::size_t v = 0; v < n; ++v) {
    sum += term_round_[v];
    worst = std::max(worst, term_round_[v]);
  }
  stats.worst_case = worst;
  stats.total_rounds = sum;
  stats.node_averaged =
      stats.n == 0 ? 0.0
                   : static_cast<double>(stats.total_rounds) /
                         static_cast<double>(stats.n);
  if (profile != nullptr) {
    profile->term_count.assign(
        static_cast<std::size_t>(stats.worst_case) + 1, 0);
    for (std::size_t v = 0; v < n; ++v) {
      ++profile->term_count[static_cast<std::size_t>(term_round_[v])];
    }
  }
}

}  // namespace lcl::local
