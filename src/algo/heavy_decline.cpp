#include "algo/heavy_decline.hpp"

#include <algorithm>
#include <cstdint>

namespace lcl::algo {

std::vector<char> heavy_child_decline(const std::vector<std::size_t>& parent,
                                      const std::vector<int>& budget) {
  const std::size_t m = parent.size();
  std::vector<char> keep(m, 0);
  if (m == 0) return keep;
  // CSR children by counting sort on the parent index. Placing entries
  // from the back leaves each parent's children in ascending order, and
  // start[p] at the beginning of p's range.
  std::vector<std::size_t> start(m + 1, 0);
  for (std::size_t i = 1; i < m; ++i) ++start[parent[i]];
  for (std::size_t p = 1; p <= m; ++p) start[p] += start[p - 1];
  std::vector<std::size_t> kids(m - 1);
  for (std::size_t i = m; i-- > 1;) kids[--start[parent[i]]] = i;
  // Subtree sizes (children come later in BFS order).
  std::vector<std::int64_t> subtree(m, 1);
  for (std::size_t i = m; i-- > 1;) subtree[parent[i]] += subtree[i];

  // A parent precedes its children, so keep[i] is final when i is read.
  keep[0] = 1;
  for (std::size_t i = 0; i < m; ++i) {
    if (!keep[i]) continue;
    const auto first = kids.begin() + static_cast<std::ptrdiff_t>(start[i]);
    const auto last = kids.begin() + static_cast<std::ptrdiff_t>(start[i + 1]);
    std::sort(first, last, [&](std::size_t a, std::size_t b) {
      return subtree[a] > subtree[b];
    });
    const auto declined = std::min<std::ptrdiff_t>(budget[i], last - first);
    for (auto c = first + declined; c != last; ++c) keep[*c] = 1;
  }
  return keep;
}

}  // namespace lcl::algo
