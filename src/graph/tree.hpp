// Bounded-degree tree/forest substrate for the LOCAL simulator.
//
// All LCL instances in this library live on (forests of) trees with a
// constant maximum degree. Nodes are dense indices [0, n); every node
// additionally carries a distinct LOCAL-model identifier (ID) that
// algorithms may use for symmetry breaking, and an input label drawn from
// the instance's finite input alphabet (stored as a small integer).
//
// Storage. `Tree` is CSR-native and topologically immutable: adjacency is
// one flat neighbor array plus an (n+1)-entry offset array, so
// `neighbors(v)` is an O(1) span into contiguous memory and the whole
// structure is three large allocations instead of n small ones. The
// simulator and every solver/checker read this CSR directly — nothing
// snapshots or re-walks adjacency per run. Construction goes through
// `TreeBuilder`, a reusable arena that records edges and emits a frozen
// `Tree` from `finalize()`; per-node IDs and input labels remain settable
// on the finished `Tree` (they are instance attributes, not topology).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace lcl::graph {

/// Dense node index, 0-based. Distinct from the LOCAL-model identifier.
using NodeId = std::int32_t;

/// LOCAL-model identifier; algorithms may only compare/inspect these.
using LocalId = std::int64_t;

constexpr NodeId kInvalidNode = -1;

class TreeBuilder;

/// An undirected bounded-degree forest in frozen CSR form, with per-node
/// LOCAL IDs and per-node small-integer input labels.
///
/// Topology is immutable from birth: instances come from
/// `TreeBuilder::finalize()` (or the isolated-nodes constructor), and the
/// neighbor order of `v` — its port numbering — is the order in which
/// `v`'s edges were added to the builder.
class Tree {
 public:
  /// The empty graph.
  Tree() = default;

  /// `n` isolated nodes, IDs preset to 0..n-1.
  explicit Tree(NodeId n) {
    if (n < 0) throw std::invalid_argument("Tree: negative node count");
    offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
    ids_.resize(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) ids_[static_cast<std::size_t>(v)] = v;
    inputs_.assign(static_cast<std::size_t>(n), 0);
  }

  /// Number of nodes.
  [[nodiscard]] NodeId size() const {
    return static_cast<NodeId>(ids_.size());
  }

  /// Neighbors of `v` (stable order; order is part of the port numbering).
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    check_node(v);
    const std::size_t lo =
        static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
    const std::size_t hi =
        static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
    return {neighbors_.data() + lo, hi - lo};
  }

  /// Degree of `v`. O(1).
  [[nodiscard]] int degree(NodeId v) const {
    check_node(v);
    return static_cast<int>(offsets_[static_cast<std::size_t>(v) + 1] -
                            offsets_[static_cast<std::size_t>(v)]);
  }

  /// The raw CSR offset array (n+1 entries; neighbors of `v` occupy
  /// [offsets()[v], offsets()[v+1]) of `adjacency()`). Consumers on hot
  /// paths (the engine, bw's EdgeIndex) index these directly.
  [[nodiscard]] std::span<const std::int32_t> offsets() const {
    return offsets_;
  }

  /// The flat neighbor array (2m entries, port-ordered per node).
  [[nodiscard]] std::span<const NodeId> adjacency() const {
    return neighbors_;
  }

  /// LOCAL identifier of `v`.
  [[nodiscard]] LocalId local_id(NodeId v) const {
    check_node(v);
    return ids_[static_cast<std::size_t>(v)];
  }

  /// Overrides the LOCAL identifier of `v` (IDs must stay distinct;
  /// enforced by `validate_ids`).
  void set_local_id(NodeId v, LocalId id) {
    check_node(v);
    ids_[static_cast<std::size_t>(v)] = id;
  }

  /// Small-integer input label of `v` (meaning defined by the LCL).
  [[nodiscard]] int input(NodeId v) const {
    check_node(v);
    return inputs_[static_cast<std::size_t>(v)];
  }

  /// Sets the input label of `v`.
  void set_input(NodeId v, int label) {
    check_node(v);
    inputs_[static_cast<std::size_t>(v)] = label;
  }

  /// Maximum degree over all nodes (0 for the empty graph). O(1):
  /// precomputed at finalize time.
  [[nodiscard]] int max_degree() const { return max_degree_; }

  /// Number of undirected edges. O(1).
  [[nodiscard]] std::int64_t edge_count() const {
    return static_cast<std::int64_t>(neighbors_.size()) / 2;
  }

  /// True unless the instance was built with
  /// `TreeBuilder::finalize_graph`, which skips the acyclicity proof.
  /// Cycle instances (checker edge-case tests) report false here — the
  /// explicit "not necessarily a tree" flag.
  [[nodiscard]] bool forest_checked() const { return forest_checked_; }

  /// Throws unless all LOCAL IDs are pairwise distinct.
  void validate_ids() const;

  /// True iff the graph is acyclic (a forest). O(n).
  [[nodiscard]] bool is_forest() const;

  /// True iff the graph is connected and acyclic. O(n).
  [[nodiscard]] bool is_tree() const;

 private:
  friend class TreeBuilder;

  void check_node(NodeId v) const {
    if (v < 0 || v >= size()) {
      throw std::out_of_range("Tree: node index " + std::to_string(v));
    }
  }

  std::vector<std::int32_t> offsets_;  ///< n+1 entries (empty when n == 0)
  std::vector<NodeId> neighbors_;     ///< flat, 2m entries
  std::vector<LocalId> ids_;
  std::vector<int> inputs_;
  int max_degree_ = 0;
  bool forest_checked_ = true;
};

/// Mutable construction arena for `Tree`.
///
/// Records nodes, edges, IDs, and inputs, then `finalize()` validates the
/// instance (node ranges, no self-loops, no duplicate edges, optional
/// degree cap, acyclicity via union-find) and emits a frozen CSR `Tree` in
/// one O(n + m) pass. The builder's buffers — edge lists and all
/// validation scratch — survive `reset()`, so a reused builder performs no
/// heap allocation in steady state; only the emitted `Tree`'s own
/// exact-size arrays are allocated per build. `tls_build_arena()` hands
/// every thread one such reusable builder, which is what the instance
/// builders and the sweep engine route through.
class TreeBuilder {
 public:
  TreeBuilder() = default;
  explicit TreeBuilder(NodeId n) { reset(n); }

  /// Clears and re-creates `n` isolated nodes with identity IDs and zero
  /// inputs. Keeps buffer capacity.
  void reset(NodeId n) {
    if (n < 0) throw std::invalid_argument("TreeBuilder: negative node count");
    n_ = n;
    edge_u_.clear();
    edge_v_.clear();
    ids_.resize(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) ids_[static_cast<std::size_t>(v)] = v;
    inputs_.assign(static_cast<std::size_t>(n), 0);
  }

  /// Number of nodes so far.
  [[nodiscard]] NodeId size() const { return n_; }

  /// Appends a fresh isolated node and returns its index.
  NodeId add_node() {
    ids_.push_back(static_cast<LocalId>(n_));
    inputs_.push_back(0);
    return n_++;
  }

  /// Records an undirected edge. Validates node ranges and rejects
  /// self-loops immediately; duplicate edges are caught at `finalize()`.
  void add_edge(NodeId u, NodeId v) {
    check_node(u);
    check_node(v);
    if (u == v) throw std::invalid_argument("TreeBuilder: self-loop");
    edge_u_.push_back(u);
    edge_v_.push_back(v);
  }

  /// Sets the LOCAL identifier carried into the finished `Tree`.
  void set_local_id(NodeId v, LocalId id) {
    check_node(v);
    ids_[static_cast<std::size_t>(v)] = id;
  }

  /// Sets the input label carried into the finished `Tree`.
  void set_input(NodeId v, int label) {
    check_node(v);
    inputs_[static_cast<std::size_t>(v)] = label;
  }

  /// Input label of `v` as currently recorded.
  [[nodiscard]] int input(NodeId v) const {
    check_node(v);
    return inputs_[static_cast<std::size_t>(v)];
  }

  /// Validates and emits a frozen forest. Throws on duplicate edges, on a
  /// cycle, and (when `max_degree` > 0) on any node exceeding the cap.
  /// The builder keeps its buffers and can be `reset()` for the next
  /// build.
  [[nodiscard]] Tree finalize(int max_degree = 0) {
    return build(max_degree, /*forest_flag=*/true, /*verify=*/true);
  }

  /// Like `finalize` but permits cycles: the emitted instance reports
  /// `forest_checked() == false`. For checker edge-case graphs
  /// (`make_cycle`) only; every tree family goes through `finalize`.
  [[nodiscard]] Tree finalize_graph(int max_degree = 0) {
    return build(max_degree, /*forest_flag=*/false, /*verify=*/true);
  }

  /// For callers that can prove structurally that the recorded edges are
  /// a duplicate-free forest — e.g. `induced_subgraph` of a verified
  /// forest, whose edges are a subset of the parent's. Emits with
  /// `forest_checked() == true` but skips the duplicate-edge and
  /// acyclicity passes. Prefer `finalize()` everywhere else.
  [[nodiscard]] Tree finalize_known_forest(int max_degree = 0) {
    return build(max_degree, /*forest_flag=*/true, /*verify=*/false);
  }

 private:
  void check_node(NodeId v) const {
    if (v < 0 || v >= n_) {
      throw std::out_of_range("TreeBuilder: node index " +
                              std::to_string(v));
    }
  }

  Tree build(int max_degree, bool forest_flag, bool verify);

  NodeId n_ = 0;
  std::vector<NodeId> edge_u_;
  std::vector<NodeId> edge_v_;
  std::vector<LocalId> ids_;
  std::vector<int> inputs_;
  // finalize() scratch, reused across builds: the duplicate-edge stamps,
  // then the union-find parents.
  std::vector<NodeId> scratch_;
};

/// The calling thread's reusable build arena. All `make_*` instance
/// builders and the family registry route construction through this, so
/// batched sweeps (one builder per worker thread) stop reallocating
/// adjacency scaffolding between jobs. Direct users must not call other
/// arena-building helpers mid-build; library code goes through
/// `ArenaLease`, which detects that mistake.
[[nodiscard]] TreeBuilder& tls_build_arena();

/// RAII checkout of `tls_build_arena()`, reset to `n` nodes. Two live
/// leases on one thread mean a nested build is about to clobber the
/// outer builder's recorded state — the constructor throws
/// `std::logic_error` instead of corrupting silently. Every library
/// builder (`make_*`, `induced_subgraph`, the family registry) acquires
/// one for exactly the duration of its construction.
class ArenaLease {
 public:
  explicit ArenaLease(NodeId n);
  ~ArenaLease();
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  [[nodiscard]] TreeBuilder& operator*() const { return b_; }
  [[nodiscard]] TreeBuilder* operator->() const { return &b_; }

 private:
  TreeBuilder& b_;
};

/// The subgraph induced by {v : keep[v] != 0}, renumbered densely in
/// increasing node order. Input labels are copied from the parent; LOCAL
/// IDs are reset to the dense index (callers deriving LOCAL-visible
/// sub-instances re-assign as needed). `from_sub`/`to_sub`, when non-null,
/// receive the sub->parent and parent->sub (kInvalidNode when dropped)
/// index maps. Built through the thread's arena.
[[nodiscard]] Tree induced_subgraph(const Tree& t,
                                    const std::vector<char>& keep,
                                    std::vector<NodeId>* from_sub = nullptr,
                                    std::vector<NodeId>* to_sub = nullptr);

/// Breadth-first distances from `source`; unreachable nodes get -1.
[[nodiscard]] std::vector<int> bfs_distances(const Tree& t,
                                             NodeId source);

/// Collects all nodes within distance `radius` of `v` (including `v`).
[[nodiscard]] std::vector<NodeId> ball(const Tree& t, NodeId v, int radius);

/// Connected components: returns (component index per node, #components).
[[nodiscard]] std::pair<std::vector<int>, int> components(const Tree& t);

}  // namespace lcl::graph
