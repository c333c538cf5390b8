// Random LCL generator: seeded families of black-white tree problems.
//
// The paper's landscape is a statement about *all* LCLs on trees, but
// every scenario through PR 4 ran a hand-picked problem. This module
// makes the problem itself a sweepable axis: a `BwTable` is an explicit,
// color-symmetric constraint table over a small alphabet and degree
// bound — exactly the finite object the decidability line of work
// (Chang; Balliu et al., "Efficient Classification of Local Problems in
// Regular Trees") mechanically classifies — and `sample_table(seed)` is
// a pure function from a 64-bit seed to such a table, drawn from two
// generator families:
//
//   * explicit random tables: every multiset of <= max_degree incident
//     edge labels is allowed with a seed-derived density (degree-1 and
//     degree-2 rows are kept nonempty so the samples aren't dominated by
//     trivially unsolvable tables);
//   * structured mutations of the paper's named witnesses (the free
//     problem, proper edge coloring, weak matching, an incident-label
//     covering, and a path-2-coloring flavor), with a few allowed-set
//     bits flipped.
//
// Tables are deduplicated *up to label permutation*: `canonical_key`
// minimizes the table's encoding over all relabelings, and
// `sample_problems` keeps one representative per key. Classification
// (problems/classify.hpp) also canonicalizes first, so predicted classes
// are invariant under relabeling by construction.
//
// Tables restrict constraints to color-symmetric ones (the same allowed
// multisets for white and black nodes). This is what lets the path-form
// machinery in src/bw/ — whose PathLcl carries a single symmetric
// adjacency relation — classify the induced compress problems without an
// alternating-automaton generalization; the paper's symmetric witnesses
// (edge coloring, matching, free) live here natively.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace lcl::problems {

/// Hard caps of the table representation: every degree-d row is a
/// bitmask over the <= C(kMaxAlphabet + kMaxDegree - 1, kMaxDegree) = 35
/// sorted multisets, so a row always fits one 64-bit word.
inline constexpr int kMaxAlphabet = 4;
inline constexpr int kMaxTableDegree = 4;

/// An explicit color-symmetric black-white tree LCL (Definition 70
/// restricted to tables): `allowed[d-1]` is a bitmask over the sorted
/// multisets of d labels (see `multisets`), bit i allowing multiset i as
/// the incident-label multiset of a degree-d node. Degrees above
/// `max_degree` are forbidden outright; the empty multiset (an isolated
/// node) is always allowed.
struct BwTable {
  int alphabet = 2;    ///< in [1, kMaxAlphabet]
  int max_degree = 3;  ///< in [1, kMaxTableDegree]
  std::uint64_t seed = 0;  ///< generator seed that produced it (0 = handmade)
  std::string name;
  std::array<std::uint64_t, kMaxTableDegree> allowed{};

  /// Whether the sorted multiset of incident labels is permitted.
  [[nodiscard]] bool allows(const std::vector<int>& sorted_labels) const;

  /// Multi-line human-readable dump (used by the property tests to pin
  /// shrunk counterexamples).
  [[nodiscard]] std::string describe() const;

  [[nodiscard]] bool operator==(const BwTable& o) const {
    return alphabet == o.alphabet && max_degree == o.max_degree &&
           allowed == o.allowed;
  }
};

/// All sorted multisets of `degree` labels from [0, alphabet), in
/// lexicographic order. Cached; the returned reference is stable.
[[nodiscard]] const std::vector<std::vector<int>>& multisets(int alphabet,
                                                             int degree);

/// Index of a sorted multiset within `multisets(alphabet, degree)`.
[[nodiscard]] int multiset_index(int alphabet,
                                 const std::vector<int>& sorted_labels);

/// Relabels the table: label a becomes perm[a]. `perm` must be a
/// permutation of [0, alphabet).
[[nodiscard]] BwTable permute_table(const BwTable& t,
                                    const std::vector<int>& perm);

/// Pads the alphabet with `extra` labels that appear in no allowed
/// multiset. Semantically inert: the padded labels can never be used.
[[nodiscard]] BwTable pad_table(const BwTable& t, int extra);

/// Removes every label that appears in no allowed multiset (the inverse
/// of `pad_table`, and more: interior unused labels are compacted too).
/// Semantically inert for the same reason padding is. Classification
/// strips before canonicalizing — otherwise an inert label shifts which
/// relabeling wins canonicalization, and the label-order-dependent
/// rectangle tie-breaks downstream can flip the predicted class (found
/// by the padding-invariance fuzz test and pinned there). A table with
/// no used labels at all degenerates to an all-empty alphabet-1 table.
[[nodiscard]] BwTable strip_unused_labels(const BwTable& t);

/// Canonical encoding of the table's label-permutation isomorphism
/// class: the lexicographically smallest per-degree mask encoding over
/// all relabelings. Equal keys == same problem up to relabeling.
[[nodiscard]] std::string canonical_key(const BwTable& t);

/// The representative table achieving `canonical_key` (name/seed kept).
[[nodiscard]] BwTable canonical_table(const BwTable& t);

/// Builds a table by tabulating a multiset predicate up to max_degree.
[[nodiscard]] BwTable table_from_predicate(
    int alphabet, int max_degree, std::string name,
    const std::function<bool(const std::vector<int>&)>& pred);

// Named witness tables (color-symmetric paper problems).
[[nodiscard]] BwTable free_table(int alphabet, int max_degree);
[[nodiscard]] BwTable edge_coloring_table(int colors, int max_degree);
[[nodiscard]] BwTable weak_matching_table(int max_degree);
/// Every node of degree >= 2 needs at least one incident 1 (the
/// color-symmetric covering cousin of sinkless orientation).
[[nodiscard]] BwTable covering_table(int max_degree);
/// Degree-2 nodes need their two incident labels distinct, other degrees
/// are free: the path restriction is exactly 2-coloring (parity-rigid).
[[nodiscard]] BwTable two_coloring_table(int max_degree);

/// Deterministic 53-bit sub-seed for attempt `i` of a sweep seeded with
/// `base`. 53 bits so the seed survives a round-trip through the JSON
/// snapshot's doubles exactly.
[[nodiscard]] std::uint64_t problem_sub_seed(std::uint64_t base, int attempt);

/// Pure function seed -> table. Seed 0 is reserved for the benign
/// default (the free table at alphabet 2, max degree 4) so a registered
/// solver with an unset `problem_seed` option is always well-behaved.
[[nodiscard]] BwTable sample_table(std::uint64_t seed);

/// Samples until `count` problems distinct up to label permutation are
/// collected (or `40 * count` attempts are exhausted — the actual size
/// of the returned vector is the ground truth). Deterministic in
/// `base_seed`; every returned table's own `seed` regenerates it via
/// `sample_table`.
[[nodiscard]] std::vector<BwTable> sample_problems(std::uint64_t base_seed,
                                                   int count);

}  // namespace lcl::problems
