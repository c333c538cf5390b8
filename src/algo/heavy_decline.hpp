// The heavy-child Decline rule shared by Algorithm A's A* assignment
// (Lemma 37) and the Lemma-52 pruning C(v) -> C'(v).
#pragma once

#include <cstddef>
#include <vector>

namespace lcl::algo {

/// Entries 0..m-1 form a rooted tree in BFS order: `parent[i] < i` for
/// i >= 1 (parent[0] is ignored). Entry 0 is kept; every kept entry i
/// Declines its min(budget[i], #children) heaviest child subtrees
/// (budget[i] >= 0) and keeps the other children. Children are ranked by
/// std::sort on descending subtree size over their ascending entry order,
/// so ties break the same way on every call. Returns keep[i] per entry.
[[nodiscard]] std::vector<char> heavy_child_decline(
    const std::vector<std::size_t>& parent, const std::vector<int>& budget);

}  // namespace lcl::algo
