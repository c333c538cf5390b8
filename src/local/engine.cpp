#include "local/engine.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <exception>
#include <numeric>
#include <string>
#include <utility>

namespace lcl::local {

void* map_plane(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_plane(void* p, std::size_t bytes) noexcept { ::munmap(p, bytes); }

Output NodeCtx::neighbor_output(int port) const {
  if (!neighbor_terminated(port)) {
    throw std::logic_error("NodeCtx: neighbor output not yet visible");
  }
  return engine_.outputs_[static_cast<std::size_t>(neighbor(port))];
}

void NodeCtx::terminate(Output out) {
  const auto v = static_cast<std::size_t>(v_);
  // Marked in the node's own sleep byte, which no other visit reads:
  // the `terminated` lane, which neighbours read, changes only when the
  // compaction makes the termination visible. A pending deadline shares
  // the term_round slot; termination wins, and the compaction unlinks
  // the node from the timer queue.
  std::uint8_t& state = engine_.sleep_[v];
  if (state == Engine::kEnding) {
    throw std::logic_error("NodeCtx: double termination");
  }
  state = Engine::kEnding;
  engine_.outputs_[v] = out;
  engine_.term_round_[v] = engine_.round_;
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
  allocs += sleep.assign(count, 0) ? 1 : 0;
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
  if (woken.capacity() < count) {
    ++allocs;
    woken.reserve(count);
  }
  woken.clear();
  // The timer queue's links: one slot per node, then one sentinel per
  // bucket, each an empty circular list. `timer_prev` is only read for
  // queued nodes and sentinels, so it needs no fill.
  const std::size_t links = count + kTimerBuckets;
  allocs += timer_next.assign(links, kUnqueued) ? 1 : 0;
  allocs += timer_prev.ensure(links) ? 1 : 0;
  for (std::size_t head = count; head < links; ++head) {
    timer_next.data()[head] = static_cast<std::int32_t>(head);
    timer_prev.data()[head] = static_cast<std::int32_t>(head);
  }
  timer_base = 0;
  wide.clear();
  wide_words.clear();
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
  sleep_ = ws.sleep.data();
  timer_next_ = ws.timer_next.data();
  timer_prev_ = ws.timer_prev.data();
  timer_heads_ = static_cast<std::size_t>(tree_.size());
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
    ws_->words[p] = std::move(grown);
    words_[p] = ws_->words[p].data();
  }
  cap_ = new_cap;
  ws_->cap = new_cap;
}

void Engine::stage_wide(NodeId v, RegView reg) {
  pub_[static_cast<std::size_t>(v)] = kStagedWide;
  Workspace& ws = *ws_;
  const std::lock_guard<std::mutex> lock(ws.wide_mu);
  ws.wide.push_back({v, ws.wide_words.size(),
                     static_cast<std::int64_t>(reg.size())});
  ws.wide_words.insert(ws.wide_words.end(), reg.begin(), reg.end());
}

void Engine::flush_wide() {
  std::vector<Workspace::WidePublish>& wide = ws_->wide;
  if (wide.empty()) return;
  // One node's records all come from its own visit, in call order, and
  // the stable sort keeps that order, so the last one wins as in a
  // direct write. A record whose node staged a narrower register after
  // it is void (`pub` is no longer kStagedWide).
  std::stable_sort(wide.begin(), wide.end(),
                   [](const Workspace::WidePublish& a,
                      const Workspace::WidePublish& b) {
                     return a.node < b.node;
                   });
  std::int64_t widest = 0;
  for (const Workspace::WidePublish& w : wide) {
    widest = std::max(widest, w.width);
  }
  grow(widest);
  for (const Workspace::WidePublish& w : wide) {
    const auto i = static_cast<std::size_t>(w.node);
    if (pub_[i] != kStagedWide) continue;
    const int staging = cur_[i] ^ 1;
    std::memcpy(words_[staging] + i * static_cast<std::size_t>(cap_),
                ws_->wide_words.data() + w.offset,
                static_cast<std::size_t>(w.width) * sizeof(std::int64_t));
    len_[staging][i] = static_cast<std::int32_t>(w.width);
  }
  for (const Workspace::WidePublish& w : wide) {
    pub_[static_cast<std::size_t>(w.node)] = kStaged;
  }
  wide.clear();
  ws_->wide_words.clear();
}

/// A walk cut into `kShardChunk`-node chunks, claimed in increasing order
/// by the owner and any helper that joins. Lives on the owner's stack for
/// one walk.
class Engine::ShardedWalk final : public RoundHelpers::Task {
 public:
  ShardedWalk(Engine& engine, Program& program, bool init,
              const std::vector<NodeId>& list)
      : engine_(engine),
        program_(program),
        init_(init),
        list_(list.data()),
        size_(list.size()),
        chunks_((list.size() + kShardChunk - 1) / kShardChunk) {}

  void help() override {
    for (;;) {
      const std::size_t c = next_.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks_) return;
      const NodeId* first = list_ + c * kShardChunk;
      const NodeId* last = list_ + std::min(size_, (c + 1) * kShardChunk);
      try {
        engine_.walk_range(program_, init_, first, last);
      } catch (...) {
        // Keep the exception of the lowest chunk, the one a serial walk
        // would have met first, and hand out no more chunks.
        const std::lock_guard<std::mutex> lock(error_mu_);
        if (c < error_chunk_) {
          error_chunk_ = c;
          error_ = std::current_exception();
        }
        next_.store(chunks_, std::memory_order_relaxed);
      }
    }
  }

  /// After `retract`: rethrows the kept exception, if any.
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  Engine& engine_;
  Program& program_;
  const bool init_;
  const NodeId* const list_;
  const std::size_t size_;
  const std::size_t chunks_;
  std::atomic<std::size_t> next_{0};
  std::mutex error_mu_;
  std::size_t error_chunk_ = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error_;
};

void Engine::walk_range(Program& program, bool init, const NodeId* first,
                        const NodeId* last) {
  if (init) {
    for (; first != last; ++first) {
      NodeCtx ctx(*this, *first);
      program.on_init(ctx);
    }
    return;
  }
  for (; first != last; ++first) {
    NodeCtx ctx(*this, *first);
    program.on_round(ctx);
  }
}

void Engine::walk(Program& program, bool init, RunStats& stats) {
  const std::vector<NodeId>& alive = ws_->alive;
  RoundHelpers* helpers = ws_->helpers_;
  if (alive.size() < kShardMin || helpers == nullptr ||
      helpers->helpers() == 0) {
    walk_range(program, init, alive.data(), alive.data() + alive.size());
  } else {
    ++stats.sharded_rounds;
    ShardedWalk task(*this, program, init, alive);
    helpers->post(task);
    task.help();
    helpers->retract(task);
    task.rethrow();
  }
  flush_wide();
}

void Engine::commit_publishes() {
  // Toggle the owners' parity bits via the publisher list; silent and
  // terminated nodes cost nothing. When sleep is honoured the list also
  // holds the round's silent terminators (nothing staged, nothing to
  // flip), and every entry wakes its sleeping neighbours for the next
  // round.
  std::vector<NodeId>& published = ws_->published;
  for (const NodeId v : published) {
    const auto i = static_cast<std::size_t>(v);
    if (pub_[i] != kUnstaged) {
      cur_[i] ^= 1;
      pub_[i] = kUnstaged;
    }
    if (honour_sleep_) {
      for (std::int32_t p = off_[i]; p < off_[i + 1]; ++p) {
        wake(adj_[static_cast<std::size_t>(p)]);
      }
    }
  }
  published.clear();
}

std::int64_t Engine::compact_alive() {
  // Stable in-place removal of the terminated ids (and the sleepers):
  // survivors keep their relative order, so the alive list stays
  // strictly increasing. Each node's deferred effects are applied here,
  // in id order, which is the order a serial walk made them in.
  std::vector<NodeId>& alive = ws_->alive;
  std::vector<NodeId>& published = ws_->published;
  std::size_t w = 0;
  std::int64_t ended = 0;
  for (const NodeId v : alive) {
    const auto i = static_cast<std::size_t>(v);
    const std::uint8_t state = sleep_[i];
    if (state == kEnding) {
      // The round is over: the termination becomes visible, and a
      // pending deadline leaves the queue (termination wins). When sleep
      // is honoured a silent terminator joins the publisher list too,
      // so the flip wakes its neighbours.
      term_[i] = kEnded;
      sleep_[i] = kAwake;
      dequeue(i);
      ++ended;
      if (honour_sleep_ || pub_[i] != kUnstaged) published.push_back(v);
      continue;
    }
    if (pub_[i] != kUnstaged) published.push_back(v);
    if (state == kAwake) {
      alive[w++] = v;
    } else if (state == kRelink) {
      // Asleep under a new deadline (kept in its term_round slot).
      sleep_[i] = kAsleep;
      dequeue(i);
      if (term_round_[i] != NodeCtx::kNever) enqueue(i, term_round_[i]);
    }
  }
  alive.resize(w);
  return ended;
}

namespace {

/// The bucket of a deadline above the queue's base: the highest bit in
/// which the two differ.
int timer_bucket(std::int64_t round, std::int64_t base) {
  return std::bit_width(static_cast<std::uint64_t>(round ^ base)) - 1;
}

}  // namespace

void Engine::enqueue(std::size_t v, std::int64_t round) {
  Workspace& ws = *ws_;
  const int b = timer_bucket(round, ws.timer_base);
  const std::size_t head = timer_heads_ + static_cast<std::size_t>(b);
  const std::int32_t first = timer_next_[head];
  std::int64_t& low = ws.timer_floor[static_cast<std::size_t>(b)];
  low = static_cast<std::size_t>(first) == head ? round : std::min(low, round);
  timer_next_[v] = first;
  timer_prev_[v] = static_cast<std::int32_t>(head);
  timer_prev_[static_cast<std::size_t>(first)] = static_cast<std::int32_t>(v);
  timer_next_[head] = static_cast<std::int32_t>(v);
}

void Engine::dequeue(std::size_t v) {
  const std::int32_t next = timer_next_[v];
  if (next == kUnqueued) return;
  const std::int32_t prev = timer_prev_[v];
  timer_next_[static_cast<std::size_t>(prev)] = next;
  timer_prev_[static_cast<std::size_t>(next)] = prev;
  timer_next_[v] = kUnqueued;
}

void Engine::sleep(NodeId v, std::int64_t round) {
  if (round != NodeCtx::kNever) {
    // A clamped deadline that is no longer in the future is no sleep.
    round = std::min(round, kMaxTimerRound);
    if (round <= round_ + 1) return;
  }
  const auto i = static_cast<std::size_t>(v);
  std::uint8_t& state = sleep_[i];
  if (state == kEnding) return;
  // The deadline lives in the node's (still unused) term_round slot. An
  // equal deadline there means the node is still queued under it, or
  // already set to be relinked under it.
  if (term_round_[i] == round) {
    if (state != kRelink) state = kAsleep;
    return;
  }
  term_round_[i] = round;
  state = kRelink;
}

void Engine::wake(NodeId u) {
  const auto i = static_cast<std::size_t>(u);
  if (sleep_[i] != kAsleep) return;
  sleep_[i] = kWoken;
  ws_->woken.push_back(u);
}

std::size_t Engine::lowest_timer_bucket() const {
  std::size_t b = 0;
  while (b < kTimerBuckets &&
         static_cast<std::size_t>(timer_next_[timer_heads_ + b]) ==
             timer_heads_ + b) {
    ++b;
  }
  return b;
}

void Engine::wake_due() {
  // Every queued deadline is >= round_, so the due ones all equal round_
  // and sit in the lowest non-empty bucket. Its floor rules them out in
  // O(buckets); otherwise the queue is rebased on round_ (which lies
  // between the old base and that bucket's keys, so no other bucket
  // changes) and the bucket is emptied: its due nodes leave the queue
  // and wake, the others are re-filed under the new base, into this
  // bucket or a lower one, with exact floors.
  Workspace& ws = *ws_;
  const std::size_t low = lowest_timer_bucket();
  if (low < kTimerBuckets && ws.timer_floor[low] <= round_) {
    const std::size_t head = timer_heads_ + low;
    std::int32_t v = timer_next_[head];
    timer_next_[head] = static_cast<std::int32_t>(head);
    timer_prev_[head] = static_cast<std::int32_t>(head);
    ws.timer_base = round_;
    while (static_cast<std::size_t>(v) != head) {
      const auto i = static_cast<std::size_t>(v);
      v = timer_next_[i];
      const std::int64_t due = term_round_[i];
      if (due > round_) {
        enqueue(i, due);
        continue;
      }
      if (due < round_) {
        throw std::logic_error("local::Engine: a queued deadline passed");
      }
      timer_next_[i] = kUnqueued;
      wake(static_cast<NodeId>(i));
    }
  }
  std::vector<NodeId>& woken = ws.woken;
  if (woken.empty()) return;
  for (const NodeId v : woken) sleep_[static_cast<std::size_t>(v)] = kAwake;
  std::vector<NodeId>& alive = ws.alive;
  const auto n = static_cast<std::size_t>(tree_.size());
  if (woken.size() * kDenseWake > n) {
    // Most of the graph woke: rebuilding the list from the lanes (awake
    // and not terminated, in id order) beats sorting the woken ids.
    alive.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (term_[i] == kLive && sleep_[i] == kAwake) {
        alive.push_back(static_cast<NodeId>(i));
      }
    }
    woken.clear();
    return;
  }
  std::sort(woken.begin(), woken.end());
  // Merge from the back: compaction already dropped every woken node
  // from `alive` (they were asleep), so the two lists are disjoint, and
  // the merged size is at most the reserved n.
  std::size_t a = alive.size();
  std::size_t b = woken.size();
  alive.resize(a + b);
  for (std::size_t out = a + b; b > 0;) {
    if (a > 0 && alive[a - 1] > woken[b - 1]) {
      alive[--out] = alive[--a];
    } else {
      alive[--out] = woken[--b];
    }
  }
  woken.clear();
}

void Engine::skip_idle(std::int64_t max_rounds, std::int64_t live,
                       RunProfile* profile) {
  // Nobody is awake, so only live sleepers are queued, and the lowest
  // bucket's floor is at most the earliest deadline: jump to the round
  // before it. If that deadline has left the queue since, the floor is
  // lower; the round reached then wakes nobody and rebases the bucket,
  // and the next jump is exact.
  const std::size_t b = lowest_timer_bucket();
  const std::int64_t next =
      b < kTimerBuckets ? ws_->timer_floor[b] : NodeCtx::kNever;
  const std::int64_t last_idle =
      next == NodeCtx::kNever ? max_rounds : std::min(next - 1, max_rounds);
  if (last_idle <= round_) return;
  if (profile != nullptr) {
    const auto skipped = static_cast<std::size_t>(last_idle - round_);
    profile->alive_per_round.insert(profile->alive_per_round.end(), skipped,
                                    live);
  }
  round_ = last_idle;
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
  honour_sleep_ = dispatch_ != DispatchMode::kPerNode;

  // The only adjacency "setup": borrow the Tree's native CSR pointers.
  // Nothing is copied or rebuilt per run.
  off_ = tree_.offsets().data();
  adj_ = tree_.adjacency().data();

  ws.prepare(tree_.size());
  bind(ws);

  // Reset every scalar field: the stats object may be recycled from a
  // previous run (run_into contract).
  stats.truncated = false;
  stats.unterminated = 0;
  stats.visits = 0;
  stats.sharded_rounds = 0;

  // Init phase (round 0): registers published here are visible in round 1.
  // Every node is called, then a stable compaction drops the
  // init-terminated ones. `alive` was reserved for n by prepare(), so
  // the resize never allocates on a warm run.
  std::vector<NodeId>& alive = ws.alive;
  alive.resize(n);
  std::iota(alive.begin(), alive.end(), NodeId{0});
  walk(program, /*init=*/true, stats);
  // Alive nodes, sleepers included.
  std::int64_t live = tree_.size() - compact_alive();
  commit_publishes();
  if (profile != nullptr) {
    profile->alive_per_round.clear();
    profile->term_count.clear();
  }

  while (live > 0) {
    // Only an engine that honours sleep can have every live node asleep.
    if (alive.empty() && ws.woken.empty()) {
      skip_idle(max_rounds, live, profile);
    }
    if (round_ >= max_rounds) {
      // Structured truncation: keep everything measured so far and censor
      // the survivors' T_v at the executed round count (a lower bound on
      // their true termination time). Their outputs stay {-1, -1}. The
      // scan also covers sleepers, which are not in the alive list.
      stats.truncated = true;
      stats.unterminated = live;
      for (std::size_t v = 0; v < n; ++v) {
        if (term_[v] == kLive) term_round_[v] = round_;
      }
      break;
    }
    ++round_;
    if (honour_sleep_) wake_due();
    if (profile != nullptr) profile->alive_per_round.push_back(live);
    stats.visits += static_cast<std::int64_t>(alive.size());
    walk(program, /*init=*/false, stats);
    // Compact before the flip: sleepers leave the alive list first, so
    // the flip's wake-ups never re-add a node that is still in it.
    live -= compact_alive();
    commit_publishes();
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
