// Label-sets, classes, and the bounded testing procedure
// (Definitions 73-74, Algorithm 1 of Section 11.6), specialized to the
// path-shaped subgraphs on which the solver actually uses them.
//
// For a path H whose two outgoing edges must carry labels completable
// against the incoming constraints, the *maximal class* projects to the
// set of feasible (left-label, right-label) pairs; an *independent class*
// is a sub-rectangle A x B of that set (any mix of choices remains
// completable — exactly Definition 73's independence). The function
// f_Pi maps the maximal class to a canonical maximal rectangle.
//
// The fixed-point exploration mirrors Algorithm 1's rake/compress steps
// on paths: starting from the boundary label-sets, repeatedly apply the
// one-node extension (rake) and the long-path rectangle restriction
// (compress), recording every label-set produced. The tested function is
// *good* iff no empty label-set ever arises.
//
// `choose` and `up_set` are the one-node steps on trees, over any
// predicate `allowed(sorted_multiset)`: the tree solvers and the
// classifier's rake closure both pass a table's `allows`.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "bw/path_lcl.hpp"

namespace lcl::bw {

/// Feasible (left, right) output pairs for a path of `len` nodes between
/// two constrained ends: pair (a, b) is in the class iff some labeling
/// l_1..l_len with l_1 = a, l_len = b satisfies all adjacency
/// constraints. For len == 1 the pair is (a, a).
[[nodiscard]] std::vector<std::pair<int, int>> maximal_class_pairs(
    const PathLcl& lcl, int len);

/// Feasible pairs for *every* length >= `min_len` simultaneously is what
/// long compress paths need; this computes pairs feasible for both some
/// even and some odd length in [min_len, min_len + 2*alphabet] (walk
/// pumping makes that equivalent to "all large lengths").
[[nodiscard]] std::vector<std::pair<int, int>> flexible_class_pairs(
    const PathLcl& lcl, int min_len);

/// The canonical independent restriction: the maximal-area rectangle
/// A x B contained in `pairs` (ties broken lexicographically). Returns
/// {0, 0} if `pairs` is empty.
struct Rectangle {
  LabelSet left = 0;
  LabelSet right = 0;
  [[nodiscard]] bool empty() const { return left == 0 || right == 0; }
};
[[nodiscard]] Rectangle independent_rectangle(
    const std::vector<std::pair<int, int>>& pairs, int alphabet);

/// One-node extension (the rake step of Definition 74): the labels a
/// node may commit to on its outgoing edge given that its single
/// incoming edge carries a label-set S.
[[nodiscard]] LabelSet rake_step(const PathLcl& lcl, LabelSet incoming);

/// Does some choice l_i in sets[i] make sorted(fixed + l) allowed? The
/// search is depth-first with labels ascending, so `pick` (when
/// non-null) receives the first witness in that order. Exact when the
/// sets come from disjoint subtrees: any combination of achievable
/// labels is then achievable at once. Exponential in |sets| but degrees
/// are constant; a combination cap guards misuse.
template <typename Allowed>
[[nodiscard]] bool choose(int alphabet, std::span<const int> fixed,
                          std::span<const LabelSet> sets,
                          const Allowed& allowed,
                          std::vector<int>* pick = nullptr) {
  std::int64_t combos = 1;
  for (const LabelSet s : sets) {
    combos *= std::max(1, std::popcount(s));
    if (combos > 2'000'000) {
      throw std::runtime_error("tree_bw: combination explosion");
    }
  }
  std::vector<int> label(sets.size(), -1);
  std::vector<int> multiset;
  multiset.reserve(fixed.size() + sets.size());
  std::size_t depth = 0;
  while (true) {
    if (depth == sets.size()) {
      multiset.assign(fixed.begin(), fixed.end());
      multiset.insert(multiset.end(), label.begin(), label.end());
      std::sort(multiset.begin(), multiset.end());
      if (allowed(multiset)) {
        if (pick != nullptr) *pick = label;
        return true;
      }
      if (depth == 0) return false;
      --depth;
    }
    // Advance the label at `depth` to the next member of its set.
    int l = label[depth] + 1;
    while (l < alphabet && !((sets[depth] >> l) & 1u)) ++l;
    if (l < alphabet) {
      label[depth] = l;
      if (++depth < sets.size()) label[depth] = -1;
    } else {
      label[depth] = -1;
      if (depth == 0) return false;
      --depth;
    }
  }
}

/// The up-set of Definition 74's g(v): the labels o of a node's outgoing
/// edge for which some choice from the incoming `sets` completes it.
template <typename Allowed>
[[nodiscard]] LabelSet up_set(int alphabet, std::span<const LabelSet> sets,
                              const Allowed& allowed) {
  LabelSet g = 0;
  for (int o = 0; o < alphabet; ++o) {
    if (choose(alphabet, std::span<const int>(&o, 1), sets, allowed)) {
      g |= 1u << o;
    }
  }
  return g;
}

/// Outcome of the bounded testing procedure.
struct TestingOutcome {
  bool good = true;          ///< no empty label-set produced
  std::set<LabelSet> seen;   ///< all label-sets reached
  int iterations = 0;
};

/// Runs the rake/compress fixed point from the boundary label-sets.
/// `compress_len` is the minimum compress-path length (ell).
[[nodiscard]] TestingOutcome testing_procedure(const PathLcl& lcl,
                                               int compress_len = 4);

}  // namespace lcl::bw
