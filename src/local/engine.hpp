// Synchronous LOCAL-model simulator.
//
// Model. Computation proceeds in synchronous rounds over a fixed
// bounded-degree graph. Every node holds a *published register* (a small
// vector of words) that all neighbors can read. In round r each
// non-terminated node (a) reads its neighbors' registers as of the end of
// round r-1, (b) updates its own register, and (c) may *terminate* by
// fixing its output. A terminated node stops computing, but its final
// register stays readable — the standard termination semantics under which
// node-averaged complexity is defined (Section 2 of the paper).
//
// The engine records T_v = the round in which v terminated; the
// node-averaged complexity of a run is (1/n) * sum_v T_v, and the
// worst-case complexity is max_v T_v.
//
// Storage layout (structure-of-arrays). Register words live in two flat
// *planes* — a pair of fixed-capacity word buffers where node v's words
// in plane p occupy [p.data() + v*cap, ... + len[p][v]), with `cap` a
// uniform capacity that doubles on demand (a publish wider than `cap`
// triggers a rare O(n*cap) plane rebuild; steady state never
// reallocates). `cap` starts at 4 words, the widest in-tree register:
// every node that publishes makes its slots' pages resident, so each
// spare word costs 16 bytes per node. Registers that address a
// neighbour keep the (neighbour, value) pair in one word (`pack_entry`).
// A per-node parity byte (`cur`) names the committed plane; the other
// plane is the staging side. All per-node bookkeeping
// is split into separate 64-byte-aligned lanes, each padded to a whole
// number of 64-byte blocks: the `cur`/`pub`/`terminated`/`sleep` byte
// lanes, the per-plane `len` lanes, the `term_round` lane, and the two
// timer-queue link lanes (see Sleep). The three bulk passes — the
// end-of-round publish-flip, the alive-list compaction, and the final
// T_v reduction — are plain loops over those lanes. Reads (`peek`/`own`) return views of the committed plane; a
// `publish` writes the staging side; the synchronous flip at the end of
// the round toggles the parity of the publishers by a scatter over the
// publisher list, so no register is ever copied. Adjacency is NOT
// snapshotted: `graph::Tree` is CSR-native and frozen (see
// graph/tree.hpp and DESIGN.md), so the engine borrows the tree's own
// offset/neighbor arrays at the start of each run and a `peek` is two
// array indexations into contiguous memory with zero per-run adjacency
// work.
//
// Workspace. All of that per-run state lives in a reusable
// `Engine::Workspace` (the ACL `decompression_context` idiom): the first
// run sizes the planes, every later run of compatible size just
// re-clears them, so steady-state sweeps are allocation-free
// (`Workspace::alloc_events()` counts plane (re)allocations and is
// asserted flat by tests and the engine_micro warm-run metric).
// `run(program)` uses an engine-owned workspace; `run(program, ws)`
// runs in a caller-owned one — `core::BatchRunner` jobs and the solver
// registry share one workspace per worker thread via `tls_workspace()`
// — and `run_into` additionally recycles the result vectors. A
// workspace serves one run at a time (enforced), and must not be
// touched while a run on it is in flight.
//
// Cost model. The engine keeps a compacted list of awake nodes (compacted
// in place after each round, so terminated nodes cost nothing — not even a
// branch). Per round the work is one program callback per awake node plus
// one O(register width) write per publish; the end-of-round compaction
// collects the publishers, so the flip is O(#published). A terminated
// node's committed words are simply never touched again, so its final
// register stays readable for free.
//
// Sharded rounds. Within a round a node reads only what was committed at
// the end of the previous round and writes only its own staging slots and
// lanes, so the order of the visits cannot be observed. A walk of at
// least `kShardMin` nodes (init's all-node walk included) is therefore
// cut into `kShardChunk`-node chunks, and when the workspace has
// `RoundHelpers` (a `core::BatchRunner` lends its idle workers to the
// runs on its workers' `tls_workspace()`) any of those threads may claim
// chunks next to the owning thread. Everything a visit does to shared
// state is deferred to the serial end of the walk and applied in id
// order: the compaction builds the publisher list and links and unlinks
// timer-queue entries, and a publish wider than `cap` is buffered and
// applied after one plane growth. So every lane, list and queue ends the
// round as a serial walk leaves it, and results do not depend on how
// many threads joined (DESIGN.md, "Sharded rounds").
//
// Sleep. A node with nothing to do until a later round says so with
// `NodeCtx::sleep_until(r)`: "visit me again in round r, or in the round
// after a neighbour's committed register or visible termination
// changes". A sleeping node is alive — its T_v accrues, its register
// stays readable, and it counts in `RunProfile::alive_per_round` — it is
// only not called. The default dispatch honours the hint: after each
// round the walked list drops its sleepers, the flip wakes the sleeping
// neighbours of every publisher and terminator for the next round, a
// radix queue of deadlines (intrusive bucket lists keyed by the highest
// bit in which a deadline differs from the queue's base round) wakes the
// due sleepers, and when nobody is awake the engine jumps over the idle
// rounds to the next deadline. A publish equal to the committed register is
// dropped (no reader can tell), so re-sending a register wakes nobody.
// Total simulation cost is therefore
// O(visits + publishes * Delta), with visits <= sum_v T_v — the quantity
// the paper's theorems bound, and usually far less. Per-node dispatch
// ignores the hint and calls every alive node every round, which is why
// the contract makes every visit during a sleep a no-op: the per-node
// path stays the reference, and the dispatch differentials prove the
// hint changes no result.
//
// Dispatch. Every program is one pair of per-node hooks, `on_init` and
// `on_round`, called once per awake node per round (see `Program` for
// the order). The `DispatchMode`, chosen once where the engine is
// constructed, only decides whether `sleep_until` is honoured: the
// default skips sleepers, `kPerNode` calls every alive node every round
// and is the reference the differential suites compare the default
// against.
//
// Algorithms implement `Program`. Independent runs (one engine per
// instance) share nothing and can execute concurrently; see
// `core/batch.hpp` for the thread-pooled sweep runner.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/tree.hpp"

namespace lcl::local {

using graph::NodeId;
using graph::Tree;

/// A published register value: a small vector of words. Used to *construct*
/// register contents; reads return the non-owning `RegView`.
using Register = std::vector<std::int64_t>;

/// Read-only view of a published register. Views point into the engine's
/// word planes (the owner's committed side) and stay valid for the
/// duration of the current round callback; copy the words out to retain
/// them across rounds.
using RegView = std::span<const std::int64_t>;

/// One register word holding a (target node, small value) pair, for
/// registers that address a neighbour: `target << 32 | uint32(value)`.
/// The empty entry, the word -1, decodes to target -1, which is no node.
[[nodiscard]] constexpr std::int64_t pack_entry(NodeId target,
                                                std::int32_t value) {
  return static_cast<std::int64_t>(
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(target)) << 32 |
      static_cast<std::uint32_t>(value));
}
[[nodiscard]] constexpr NodeId entry_target(std::int64_t word) {
  return static_cast<NodeId>(word >> 32);
}
[[nodiscard]] constexpr std::int32_t entry_value(std::int64_t word) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(word));
}

/// Per-node output of an LCL algorithm: a primary label and an optional
/// secondary label (used by the weighted problems of Definition 22).
struct Output {
  int primary = -1;
  int secondary = -1;
};

/// Whether an engine run honours `NodeCtx::sleep_until`.
///   kPerNode — no: every alive node is called every round (the
///              reference path).
///   kBatch   — yes: sleepers are skipped until a deadline or a
///              neighbour change wakes them.
///   kAuto    — kBatch (the default).
enum class DispatchMode { kPerNode = 0, kBatch = 1, kAuto = 2 };

/// Accepted by one `Engine` constructor and ignored: the engine has one
/// kernel per pass, and callers that still name a mode keep compiling.
enum class KernelMode { kScalar, kSimd, kAuto };

/// Storage of `AlignedPlane`, mapped from the kernel (page aligned) and
/// unmapped when freed, never taken from malloc. glibc raises its mmap
/// threshold to the size of each large block freed to it (and its trim
/// threshold to twice that). Planes are the largest blocks a run makes
/// (23 MB per word plane on a 734k-node job), so once a worker freed
/// its planes to malloc, later allocations of every thread up to that
/// size came from arena heaps whose free tops `malloc_trim` never
/// returns for threads other than the main one, and which exited worker
/// kept such a 24-40 MB top resident depended on thread timing
/// (DESIGN.md, "Engine planes bypass malloc").
[[nodiscard]] void* map_plane(std::size_t bytes);
void unmap_plane(void* p, std::size_t bytes) noexcept;

/// A 64-byte-aligned lane of trivially-copyable elements, padded to a
/// whole number of 64-byte blocks. Capacity only grows (`ensure`/`assign`
/// return true exactly when they had to allocate — the workspace's
/// allocation accounting), and `assign` fills the padding too.
template <typename T>
class AlignedPlane {
 public:
  static constexpr std::size_t kAlign = 64;

  /// `count` rounded up to a whole number of 64-byte blocks, in
  /// elements. (Element sizes divide 64 for every lane type used here.)
  [[nodiscard]] static std::size_t padded(std::size_t count) {
    const std::size_t per = kAlign / sizeof(T);
    return (count + per - 1) / per * per;
  }

  AlignedPlane() = default;
  AlignedPlane(AlignedPlane&&) noexcept = default;
  AlignedPlane& operator=(AlignedPlane&&) noexcept = default;

  /// Guarantees capacity for `count` elements (plus block padding).
  /// Existing contents are NOT preserved across a reallocation. Returns
  /// true iff an allocation happened.
  bool ensure(std::size_t count) {
    const std::size_t need = padded(count);
    if (need <= cap_) return false;
    buf_.reset();
    const std::size_t bytes = need * sizeof(T);
    buf_ = std::unique_ptr<T, Free>(static_cast<T*>(map_plane(bytes)),
                                    Free{bytes});
    cap_ = need;
    return true;
  }

  /// Sizes the plane for `count` elements and fills every element —
  /// including the block padding — with `value`. Returns true iff an
  /// allocation happened.
  bool assign(std::size_t count, T value) {
    const bool grew = ensure(count);
    std::fill_n(buf_.get(), padded(count), value);
    return grew;
  }

  [[nodiscard]] T* data() { return buf_.get(); }
  [[nodiscard]] const T* data() const { return buf_.get(); }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

 private:
  struct Free {
    std::size_t bytes = 0;
    void operator()(T* p) const { unmap_plane(p, bytes); }
  };
  std::unique_ptr<T, Free> buf_;
  std::size_t cap_ = 0;
};

class Engine;

/// Node-local view handed to `Program` callbacks. All information reachable
/// through a `NodeCtx` is information the node legitimately has in the
/// LOCAL model: its own identifiers/state and its neighbors' registers.
class NodeCtx {
 public:
  NodeCtx(Engine& engine, NodeId v) : engine_(engine), v_(v) {}

  [[nodiscard]] NodeId node() const { return v_; }
  [[nodiscard]] int degree() const;
  [[nodiscard]] std::int64_t local_id() const;
  [[nodiscard]] int input() const;
  /// Number of nodes in the graph (global knowledge, standard in LOCAL).
  [[nodiscard]] std::int64_t n() const;
  /// Current round number (1-based; 0 during on_init).
  [[nodiscard]] std::int64_t round() const;

  /// Neighbor's register as of the end of the previous round.
  [[nodiscard]] RegView peek(int port) const;
  /// Whether the neighbor on `port` has terminated. Like registers,
  /// terminations become visible one round after they happen (a node
  /// terminating in round r is observed from round r+1) — synchronous
  /// semantics with no same-round information leaks.
  [[nodiscard]] bool neighbor_terminated(int port) const;
  /// Neighbor's fixed output; only valid if `neighbor_terminated(port)`.
  [[nodiscard]] Output neighbor_output(int port) const;

  /// Overwrites this node's register (visible to neighbors next round).
  void publish(RegView reg);
  void publish(std::initializer_list<std::int64_t> words) {
    publish(RegView(words.begin(), words.size()));
  }
  /// Reads this node's own current register (as published).
  [[nodiscard]] RegView own() const;

  /// Terminates this node with the given output; `T_v` = current round.
  void terminate(Output out);
  void terminate(int primary, int secondary = -1) {
    terminate(Output{primary, secondary});
  }

  /// `sleep_until` deadline meaning "only a neighbour change wakes me".
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();
  /// Declares that this node has nothing to do before round `round`
  /// unless a neighbour's committed register or visible termination
  /// changes; the default dispatch then skips its callbacks until one
  /// of those happens. The node stays alive (T_v accrues). Contract: any visit
  /// during the sleep must be a no-op — no state change, no changed
  /// publish, no termination — because per-node dispatch ignores the
  /// hint and visits anyway. A deadline at or before the next round is
  /// no sleep at all.
  void sleep_until(std::int64_t round);

 private:
  /// Resolves a port to the neighbor's dense index via the tree's CSR.
  [[nodiscard]] NodeId neighbor(int port) const;

  Engine& engine_;
  NodeId v_;
};

/// A distributed algorithm. One `Program` instance serves the whole run;
/// per-node state must live in engine registers or in program-owned
/// per-node arrays (indexed by NodeId) that a callback only writes, and
/// only reads, for the node passed to it. Program state shared by all
/// nodes is read-only during a run. The engine relies on this: the
/// callbacks of one round may run in any order and on several threads
/// at once (see "Sharded rounds"), so a callback that read another
/// node's per-node state, or wrote shared state, would see a walk order
/// or race. State another node wrote in an earlier round is fine.
///
/// A program that waits calls `NodeCtx::sleep_until` at the wait, so the
/// default dispatch skips its idle rounds; it must keep every visit
/// during a sleep a no-op, so both dispatch modes give bit-identical
/// `RunStats` apart from `visits`.
class Program {
 public:
  virtual ~Program() = default;
  /// Called once per node before round 1 (round() == 0). May publish and
  /// may terminate (yielding T_v = 0, i.e., constant-time termination).
  virtual void on_init(NodeCtx& ctx) = 0;
  /// Called once per round for each non-terminated node that is not
  /// asleep (`DispatchMode::kPerNode` calls the sleepers too; see
  /// `sleep_until`). A serial walk goes in increasing id order; a
  /// sharded one walks id-ordered chunks concurrently.
  virtual void on_round(NodeCtx& ctx) = 0;
};

/// Threads lent to an engine run for its large walks ("Sharded rounds").
/// `core::BatchRunner` implements it with its idle workers.
class RoundHelpers {
 public:
  /// One walk, cut into chunks that any joined thread may claim.
  class Task {
   public:
    /// Claims and walks chunks until none is left, then returns. Never
    /// throws: a callback's exception is kept for the owner.
    virtual void help() = 0;

   protected:
    ~Task() = default;
  };

  /// Threads besides the caller that may join a task; 0 means a walk is
  /// never sharded. Fixed for the helpers' lifetime, so whether a walk
  /// is sharded depends only on its size.
  [[nodiscard]] virtual int helpers() const = 0;
  /// Makes `task` joinable and returns at once.
  virtual void post(Task& task) = 0;
  /// Makes `task` unjoinable, then returns once every thread that joined
  /// it has returned from `help()`.
  virtual void retract(Task& task) = 0;

 protected:
  ~RoundHelpers() = default;
};

/// Result of a run.
///
/// Truncation. A run that hits `max_rounds` with nodes still alive is not
/// an error: the engine returns the partial measurement with
/// `truncated == true`. Every node that never terminated has its T_v
/// *censored* at `rounds` (the executed round count) — a lower bound on
/// its true termination time — its `output` stays `{-1, -1}`, and
/// `unterminated` counts such nodes. For a truncated run `node_averaged`,
/// `worst_case`, and `total_rounds` are therefore lower bounds.
struct RunStats {
  std::int64_t n = 0;
  std::int64_t rounds = 0;  ///< rounds executed
  double node_averaged = 0.0;
  std::int64_t worst_case = 0;
  std::int64_t total_rounds = 0;  ///< sum_v T_v
  /// `on_round` callbacks made. Per-node dispatch visits every alive
  /// node every round, so there it equals `total_rounds`; the default
  /// dispatch skips sleepers, so <=.
  std::int64_t visits = 0;
  /// Walks (init included) cut into chunks for `RoundHelpers`. It depends
  /// only on the walk sizes and on whether the workspace has helpers,
  /// not on how many joined; every other field is the same either way.
  std::int64_t sharded_rounds = 0;
  bool truncated = false;         ///< hit `max_rounds` with nodes alive
  std::int64_t unterminated = 0;  ///< nodes whose T_v is censored
  std::vector<std::int64_t> termination_round;  ///< T_v per node
  std::vector<Output> output;                   ///< fixed outputs per node

  [[nodiscard]] std::vector<int> primaries() const {
    std::vector<int> p;
    p.reserve(output.size());
    for (const Output& o : output) p.push_back(o.primary);
    return p;
  }
  [[nodiscard]] std::vector<int> secondaries() const {
    std::vector<int> s;
    s.reserve(output.size());
    for (const Output& o : output) s.push_back(o.secondary);
    return s;
  }
};

/// Optional per-run measurement profile, filled by `Engine::run` when the
/// caller passes one. Collection is O(sum_v T_v) on top of the
/// simulation: the alive trajectory is one append per executed round
/// (rounds <= sum T_v once anything survives init) and the histogram is
/// one counting pass over data the engine already owns.
struct RunProfile {
  /// `alive_per_round[r]` = nodes alive in round r+1, sleepers included
  /// (so index 0 counts round 1). Length == `RunStats::rounds`.
  std::vector<std::int64_t> alive_per_round;
  /// `term_count[t]` = number of nodes with T_v == t, matching
  /// `RunStats::termination_round` exactly — for truncated runs this
  /// includes the survivors censored at `rounds`.
  std::vector<std::int64_t> term_count;
};

/// The synchronous engine. Construct with a graph (frozen by
/// construction — every `Tree` is) and optionally a dispatch mode, `run`
/// a program; the engine enforces the synchronous schedule and records
/// termination rounds.
class Engine {
 public:
  /// Reusable per-run state (the ACL decompression_context idiom): all
  /// register planes, bookkeeping lanes, and scratch lists of a run.
  /// The first run allocates; later runs of any size that fits just
  /// re-clear, so a workspace amortizes setup across a whole sweep.
  /// One workspace serves one run at a time (nested use throws); share
  /// across threads only via one-workspace-per-thread
  /// (`tls_workspace()`).
  struct Workspace {
    /// Initial uniform register capacity (words): the widest in-tree
    /// register (the generic algorithm's packed wave register). Doubles
    /// on demand for wider registers, and the grown capacity is kept
    /// across runs.
    static constexpr std::int64_t kInitialCap = 4;

    /// Plane (re)allocations since construction, including mid-run
    /// capacity growth. Flat across reps == the steady state is
    /// allocation-free.
    [[nodiscard]] std::int64_t alloc_events() const {
      return alloc_events_;
    }

    /// Lends `helpers` (nullptr: none) to every later run in this
    /// workspace; they join its walks of at least `kShardMin` nodes.
    /// The helpers must outlive those runs.
    void set_helpers(RoundHelpers* helpers) { helpers_ = helpers; }

   private:
    friend class Engine;
    friend class NodeCtx;

    /// Sizes every lane for an n-node run and resets run state. Word
    /// planes are NOT cleared: register reads are length-bounded and
    /// lengths reset to 0, so stale words are unreachable.
    void prepare(std::int64_t n);

    /// A publish wider than `cap`, buffered until the end of the walk:
    /// `width` words of `wide_words` from `offset` on.
    struct WidePublish {
      NodeId node;
      std::size_t offset;
      std::int64_t width;
    };

    AlignedPlane<std::int64_t> words[2];  ///< word planes, v at v*cap
    AlignedPlane<std::int32_t> len[2];    ///< per-plane register widths
    AlignedPlane<std::uint8_t> cur;       ///< committed-plane parity
    /// kUnstaged / kStaged / kStagedWide (see `Engine`).
    AlignedPlane<std::uint8_t> pub;
    AlignedPlane<std::uint8_t> terminated;  ///< kLive / kEnded
    /// T_v once terminated. While a node is alive and asleep its slot
    /// holds its sleep deadline instead: every reader masks the lane
    /// with `terminated`, so the slot is free until termination, and
    /// reusing it keeps sleep from costing a lane of its own.
    AlignedPlane<std::int64_t> term_round;
    /// kAwake / kAsleep / kWoken between walks; during a walk a visit
    /// may also set kRelink or kEnding (see `Engine`). Only the visited
    /// node touches its byte during a walk.
    AlignedPlane<std::uint8_t> sleep;
    /// The sleep-timer queue, a radix queue keyed by deadline round.
    /// Bucket b holds the sleepers whose deadline first differs from
    /// `timer_base` at bit b (deadlines are 32-bit, and only ever above
    /// the base, so 32 buckets cover them). Buckets are circular doubly
    /// linked lists threaded through these two lanes: slot v links node
    /// v, slot n + b is bucket b's sentinel, and `timer_next[v] ==
    /// kUnqueued` for a node in no bucket. A node's key is the deadline
    /// in its `term_round` slot, so a node is queued at most once and a
    /// re-sleep moves it in O(1).
    static constexpr std::size_t kTimerBuckets = 32;
    AlignedPlane<std::int32_t> timer_next;
    AlignedPlane<std::int32_t> timer_prev;
    /// At most the current round, so every later deadline is above it.
    std::int64_t timer_base = 0;
    /// A lower bound on each non-empty bucket's deadlines (exact right
    /// after a rebase refills the bucket).
    std::int64_t timer_floor[kTimerBuckets] = {};
    std::vector<Output> outputs;
    std::vector<NodeId> alive;      ///< compacted in place every round
    /// Publishers of the current round, collected by the end-of-walk
    /// compaction in id order; when sleep is honoured the silent
    /// terminators join them, so the flip wakes the neighbours of both.
    std::vector<NodeId> published;
    std::vector<NodeId> woken;  ///< sleepers woken for the next round
    /// The walk's wide publishes, in call order per node. Empty unless a
    /// register outgrows `cap`, which is rare, so these allocate.
    std::vector<WidePublish> wide;
    std::vector<std::int64_t> wide_words;
    std::mutex wide_mu;  ///< guards the two above during a sharded walk
    std::int64_t cap = kInitialCap;
    std::int64_t alloc_events_ = 0;
    RoundHelpers* helpers_ = nullptr;
    bool in_use = false;
  };

  /// Walks of at least `kShardMin` nodes are cut into chunks of
  /// `kShardChunk` nodes when the workspace has helpers. Chunk bounds
  /// depend only on the walked list. See DESIGN.md, "Sharded rounds",
  /// for how the two were chosen.
  static constexpr std::size_t kShardChunk = 512;
  static constexpr std::size_t kShardMin = 2 * kShardChunk;

  explicit Engine(const Tree& tree,
                  DispatchMode dispatch = DispatchMode::kAuto)
      : tree_(tree), dispatch_(dispatch) {}
  /// The kernel mode is ignored (see `KernelMode`).
  Engine(const Tree& tree, KernelMode,
         DispatchMode dispatch = DispatchMode::kAuto)
      : Engine(tree, dispatch) {}

  /// Runs `program` to completion, or until `max_rounds` rounds have
  /// executed — in which case the returned stats carry
  /// `truncated == true` and censored partials (see `RunStats`) instead
  /// of the run being thrown away. Pass `profile` to additionally collect
  /// the per-round alive trajectory and the T_v histogram. This overload
  /// uses the engine's own workspace (reused across its runs).
  RunStats run(Program& program,
               std::int64_t max_rounds = std::numeric_limits<int>::max(),
               RunProfile* profile = nullptr);

  /// Same, in a caller-owned workspace — the sweep-loop form: keep one
  /// `Workspace` per worker thread and every run after the first is
  /// allocation-free.
  RunStats run(Program& program, Workspace& ws,
               std::int64_t max_rounds = std::numeric_limits<int>::max(),
               RunProfile* profile = nullptr);

  /// Lowest-overhead form: writes the result into caller-owned stats,
  /// recycling its vectors' capacity (a warm run performs zero heap
  /// allocations in engine, workspace, or result).
  void run_into(Program& program, Workspace& ws, RunStats& stats,
                std::int64_t max_rounds = std::numeric_limits<int>::max(),
                RunProfile* profile = nullptr);

  [[nodiscard]] const Tree& tree() const { return tree_; }

 private:
  friend class NodeCtx;

  class ShardedWalk;

  /// Stages v's next register (the body of every publish that fits
  /// `cap`). Drops a publish that equals the committed register when
  /// nothing is staged yet.
  void stage(NodeId v, const std::int64_t* words, std::int64_t width);
  /// Buffers a publish wider than `cap` for `flush_wide`.
  void stage_wide(NodeId v, RegView reg);
  /// Grows the word planes so a register of `width` words fits. Only
  /// called between walks, when no `RegView` is outstanding.
  void grow(std::int64_t width);
  /// Applies the walk's wide publishes after one growth.
  void flush_wide();
  /// Calls the hook of every node in the alive list: serially, or in
  /// chunks shared with the workspace's helpers (counted in `stats`).
  /// Then applies the deferred wide publishes.
  void walk(Program& program, bool init, RunStats& stats);
  /// The serial walk of [first, last).
  void walk_range(Program& program, bool init, const NodeId* first,
                  const NodeId* last);
  /// Commits this round's publishes (parity toggles) and wakes the
  /// neighbours of every listed node. Called at the end of init and of
  /// every round.
  void commit_publishes();
  /// Ends a walk: drops the terminated (and, when sleep is honoured, the
  /// sleeping) ids from the alive list, in place and stable; collects
  /// the publishers; makes the walk's terminations visible; and applies
  /// its timer-queue changes, all in id order. Returns the number of
  /// terminations.
  std::int64_t compact_alive();
  /// Points the hot-path mirrors at `ws`'s (re)prepared lanes.
  void bind(Workspace& ws);

  // States of the `terminated` lane. A termination is marked in the
  // node's `sleep` byte during its walk and becomes kEnded (visible) at
  // the end-of-walk compaction.
  static constexpr std::uint8_t kLive = 0;
  static constexpr std::uint8_t kEnded = 1;

  // States of the `pub` lane.
  static constexpr std::uint8_t kUnstaged = 0;
  static constexpr std::uint8_t kStaged = 1;
  static constexpr std::uint8_t kStagedWide = 2;  ///< in `Workspace::wide`

  // States of the `sleep` lane. Between walks a node is kAwake, kAsleep
  // or kWoken (woken for the next round). A visit may set kAsleep (asleep
  // under the deadline it is already queued with), kRelink (asleep under
  // a new deadline) or kEnding (terminated); the compaction resolves the
  // last two.
  static constexpr std::uint8_t kAwake = 0;
  static constexpr std::uint8_t kAsleep = 1;
  static constexpr std::uint8_t kWoken = 2;
  static constexpr std::uint8_t kRelink = 3;
  static constexpr std::uint8_t kEnding = 4;
  /// Timer rounds are stored in 32 bits; a later deadline is clamped,
  /// which only wakes the node early (a no-op visit by contract).
  static constexpr std::int64_t kMaxTimerRound =
      std::numeric_limits<std::int32_t>::max();
  static constexpr std::size_t kTimerBuckets = Workspace::kTimerBuckets;
  /// `timer_next` of a node in no timer bucket.
  static constexpr std::int32_t kUnqueued = -1;

  /// Puts v to sleep until `round` (> the next round) or kNever. A
  /// deadline that clamping brings to the next round or before is no
  /// sleep, and a node that terminated in this visit stays terminated.
  /// Touches only v's own lanes; the compaction relinks.
  void sleep(NodeId v, std::int64_t round);
  /// Marks u woken for the next round if it is asleep.
  void wake(NodeId u);
  /// Links v into the timer bucket of `round` (> the queue's base).
  void enqueue(std::size_t v, std::int64_t round);
  /// Unlinks v from its timer bucket, if it is in one.
  void dequeue(std::size_t v);
  /// The lowest non-empty timer bucket, or kTimerBuckets if none.
  [[nodiscard]] std::size_t lowest_timer_bucket() const;
  /// Woken lists longer than n / kDenseWake rebuild the alive list by a
  /// lane scan instead of sort + merge.
  static constexpr std::size_t kDenseWake = 8;
  /// Wakes the sleepers whose deadline is the current round — found in
  /// the lowest non-empty timer bucket, which is rebased on the round
  /// only if its floor says it may hold one — then merges every woken
  /// node into the alive list (both sorted), so the walk stays in
  /// increasing id order.
  void wake_due();
  /// Nobody is awake: advances `round_` over the rounds before the
  /// lowest timer bucket's floor (or to `max_rounds`), counting `live`
  /// nodes alive in each skipped round.
  void skip_idle(std::int64_t max_rounds, std::int64_t live,
                 RunProfile* profile);

  const Tree& tree_;
  DispatchMode dispatch_;
  bool honour_sleep_ = false;  ///< resolved from `dispatch_` per run
  std::int64_t round_ = 0;

  // Borrowed views of the tree's native CSR, captured at the top of each
  // run() (so reassigning the referenced Tree between runs stays safe,
  // as it was under the per-run snapshot): neighbors of v are
  // adj_[off_[v] + port]. The arrays never move during a run — topology
  // is frozen and attribute setters touch separate storage.
  const std::int32_t* off_ = nullptr;
  const NodeId* adj_ = nullptr;

  // Hot-path mirrors into the bound workspace's lanes (refreshed by
  // bind() and grow()); raw pointers so the inline NodeCtx accessors
  // are single indexations.
  Workspace* ws_ = nullptr;
  std::int64_t cap_ = Workspace::kInitialCap;
  std::int64_t* words_[2] = {nullptr, nullptr};
  std::int32_t* len_[2] = {nullptr, nullptr};
  std::uint8_t* cur_ = nullptr;
  std::uint8_t* pub_ = nullptr;
  std::uint8_t* term_ = nullptr;
  std::int64_t* term_round_ = nullptr;
  std::uint8_t* sleep_ = nullptr;
  std::int32_t* timer_next_ = nullptr;
  std::int32_t* timer_prev_ = nullptr;
  std::size_t timer_heads_ = 0;  ///< slot of bucket 0's sentinel (n)
  Output* outputs_ = nullptr;

  Workspace own_ws_;  ///< backs the workspace-less run() overload
};

/// This thread's shared workspace: one per thread, reused by every
/// engine run routed through it (`core::BatchRunner` jobs, the solver
/// registry's `run_registered`). Do not run two engines on it at once —
/// the engine throws if a run is already in flight.
[[nodiscard]] Engine::Workspace& tls_workspace();

// NodeCtx accessors are on the per-node-per-round hot path; they are
// defined inline here so simulation loops don't pay a cross-TU call per
// register read.

inline int NodeCtx::degree() const {
  return static_cast<int>(engine_.off_[static_cast<std::size_t>(v_) + 1] -
                          engine_.off_[static_cast<std::size_t>(v_)]);
}

inline std::int64_t NodeCtx::local_id() const {
  return engine_.tree_.local_id(v_);
}

inline int NodeCtx::input() const { return engine_.tree_.input(v_); }

inline std::int64_t NodeCtx::n() const { return engine_.tree_.size(); }

inline std::int64_t NodeCtx::round() const { return engine_.round_; }

inline NodeId NodeCtx::neighbor(int port) const {
  return engine_.adj_[static_cast<std::size_t>(
                          engine_.off_[static_cast<std::size_t>(v_)]) +
                      static_cast<std::size_t>(port)];
}

inline RegView NodeCtx::peek(int port) const {
  const auto u = static_cast<std::size_t>(neighbor(port));
  const int plane = engine_.cur_[u];
  return {engine_.words_[plane] + u * static_cast<std::size_t>(engine_.cap_),
          static_cast<std::size_t>(engine_.len_[plane][u])};
}

inline bool NodeCtx::neighbor_terminated(int port) const {
  const auto u = static_cast<std::size_t>(neighbor(port));
  // Terminations become visible one round after they happen (synchronous
  // semantics): a node terminating in round r is observed from round r+1,
  // once the end-of-round compaction has marked it kEnded.
  return engine_.term_[u] == Engine::kEnded;
}

inline RegView NodeCtx::own() const {
  const auto v = static_cast<std::size_t>(v_);
  const int plane = engine_.cur_[v];
  return {engine_.words_[plane] + v * static_cast<std::size_t>(engine_.cap_),
          static_cast<std::size_t>(engine_.len_[plane][v])};
}

inline void NodeCtx::publish(RegView reg) {
  Engine& e = engine_;
  const std::int64_t width = static_cast<std::int64_t>(reg.size());
  if (width > e.cap_) {
    e.stage_wide(v_, reg);
    return;
  }
  e.stage(v_, reg.data(), width);
}

inline void NodeCtx::sleep_until(std::int64_t round) {
  if (engine_.honour_sleep_ && round > engine_.round_ + 1) {
    engine_.sleep(v_, round);
  }
}

inline void Engine::stage(NodeId v, const std::int64_t* words,
                          std::int64_t width) {
  const auto i = static_cast<std::size_t>(v);
  const std::size_t at = i * static_cast<std::size_t>(cap_);
  if (pub_[i] == kUnstaged) {
    // Nothing staged yet: a register equal to the committed one changes
    // nothing any reader can see, so drop it — re-sending a register
    // must not count as a change that wakes sleeping neighbours.
    const int plane = cur_[i];
    if (len_[plane][i] == width &&
        std::equal(words, words + width, words_[plane] + at)) {
      return;
    }
  }
  // Also supersedes a wide publish buffered earlier in this visit.
  pub_[i] = kStaged;
  const int staging = cur_[i] ^ 1;
  if (width != 0) {
    std::memcpy(words_[staging] + at, words,
                static_cast<std::size_t>(width) * sizeof(std::int64_t));
  }
  len_[staging][i] = static_cast<std::int32_t>(width);
}

}  // namespace lcl::local
