#include "problems/lclgen.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace lcl::problems {

namespace {

/// splitmix64: the repo's standard seed-mixing primitive.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Tiny deterministic RNG over a splitmix chain.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return state_ = splitmix64(state_); }
  /// Uniform in [0, m).
  std::uint64_t below(std::uint64_t m) { return next() % m; }

 private:
  std::uint64_t state_;
};

/// Packed key of a sorted multiset (labels < kMaxAlphabet, size <=
/// kMaxTableDegree): base-(kMaxAlphabet+1) digits, so keys fit well
/// under 5^4 = 625 and index an O(1) lookup table.
int pack_key(const std::vector<int>& sorted_labels) {
  int key = 0;
  for (const int l : sorted_labels) key = key * (kMaxAlphabet + 1) + l + 1;
  return key;
}

constexpr int kKeySpace = 5 * 5 * 5 * 5 * 5;  // (kMaxAlphabet+1)^kMaxTableDegree+

struct MultisetCache {
  std::vector<std::vector<int>> sets;
  std::array<int, kKeySpace> index_by_key{};
};

MultisetCache build_cache(int alphabet, int degree) {
  MultisetCache c;
  c.index_by_key.fill(-1);
  std::vector<int> cur(static_cast<std::size_t>(degree), 0);
  // Enumerate nondecreasing tuples in lexicographic order.
  for (;;) {
    c.index_by_key[static_cast<std::size_t>(pack_key(cur))] =
        static_cast<int>(c.sets.size());
    c.sets.push_back(cur);
    int i = degree - 1;
    while (i >= 0 && cur[static_cast<std::size_t>(i)] == alphabet - 1) --i;
    if (i < 0) break;
    const int v = cur[static_cast<std::size_t>(i)] + 1;
    for (int j = i; j < degree; ++j) cur[static_cast<std::size_t>(j)] = v;
  }
  return c;
}

const MultisetCache& cache_for(int alphabet, int degree) {
  if (alphabet < 1 || alphabet > kMaxAlphabet || degree < 1 ||
      degree > kMaxTableDegree) {
    throw std::invalid_argument("lclgen: alphabet/degree out of range");
  }
  // Every (alphabet, degree) table is built once, inside the static's
  // initialisation, which C++ makes thread-safe: lcld classifies on
  // several worker threads at once, so the tables are never filled
  // lazily.
  static const std::vector<MultisetCache> caches = [] {
    std::vector<MultisetCache> all;
    all.reserve(static_cast<std::size_t>(kMaxAlphabet * kMaxTableDegree));
    for (int a = 1; a <= kMaxAlphabet; ++a) {
      for (int d = 1; d <= kMaxTableDegree; ++d) {
        all.push_back(build_cache(a, d));
      }
    }
    return all;
  }();
  return caches[static_cast<std::size_t>((alphabet - 1) * kMaxTableDegree +
                                         degree - 1)];
}

}  // namespace

const std::vector<std::vector<int>>& multisets(int alphabet, int degree) {
  return cache_for(alphabet, degree).sets;
}

int multiset_index(int alphabet, const std::vector<int>& sorted_labels) {
  const MultisetCache& c =
      cache_for(alphabet, static_cast<int>(sorted_labels.size()));
  const int idx =
      c.index_by_key[static_cast<std::size_t>(pack_key(sorted_labels))];
  if (idx < 0) {
    throw std::invalid_argument("lclgen: labels not sorted or out of range");
  }
  return idx;
}

bool BwTable::allows(const std::vector<int>& sorted_labels) const {
  const int d = static_cast<int>(sorted_labels.size());
  if (d == 0) return true;
  if (d > max_degree) return false;
  for (const int l : sorted_labels) {
    if (l < 0 || l >= alphabet) return false;
  }
  const int idx = multiset_index(alphabet, sorted_labels);
  return (allowed[static_cast<std::size_t>(d - 1)] >> idx) & 1u;
}

std::string BwTable::describe() const {
  std::string out = "BwTable{" + name + ", alphabet=" +
                    std::to_string(alphabet) +
                    ", max_degree=" + std::to_string(max_degree) +
                    ", seed=" + std::to_string(seed) + "}\n";
  for (int d = 1; d <= max_degree; ++d) {
    out += "  degree " + std::to_string(d) + ":";
    const auto& sets = multisets(alphabet, d);
    bool any = false;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (!((allowed[static_cast<std::size_t>(d - 1)] >> i) & 1u)) continue;
      any = true;
      out += " {";
      for (std::size_t j = 0; j < sets[i].size(); ++j) {
        out += (j ? "," : "") + std::to_string(sets[i][j]);
      }
      out += "}";
    }
    out += any ? "\n" : " (empty)\n";
  }
  return out;
}

BwTable permute_table(const BwTable& t, const std::vector<int>& perm) {
  if (static_cast<int>(perm.size()) != t.alphabet) {
    throw std::invalid_argument("permute_table: |perm| != alphabet");
  }
  BwTable out = t;
  out.allowed.fill(0);
  std::vector<int> mapped;
  for (int d = 1; d <= t.max_degree; ++d) {
    const auto& sets = multisets(t.alphabet, d);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (!((t.allowed[static_cast<std::size_t>(d - 1)] >> i) & 1u)) {
        continue;
      }
      mapped = sets[i];
      for (int& l : mapped) l = perm[static_cast<std::size_t>(l)];
      std::sort(mapped.begin(), mapped.end());
      out.allowed[static_cast<std::size_t>(d - 1)] |=
          std::uint64_t{1} << multiset_index(t.alphabet, mapped);
    }
  }
  return out;
}

BwTable pad_table(const BwTable& t, int extra) {
  if (t.alphabet + extra > kMaxAlphabet) {
    throw std::invalid_argument("pad_table: alphabet cap exceeded");
  }
  BwTable out = t;
  out.alphabet = t.alphabet + extra;
  out.allowed.fill(0);
  // Re-index every allowed multiset within the larger alphabet; the new
  // labels participate in nothing.
  for (int d = 1; d <= t.max_degree; ++d) {
    const auto& sets = multisets(t.alphabet, d);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (!((t.allowed[static_cast<std::size_t>(d - 1)] >> i) & 1u)) {
        continue;
      }
      out.allowed[static_cast<std::size_t>(d - 1)] |=
          std::uint64_t{1} << multiset_index(out.alphabet, sets[i]);
    }
  }
  return out;
}

BwTable strip_unused_labels(const BwTable& t) {
  std::vector<char> used(static_cast<std::size_t>(t.alphabet), 0);
  for (int d = 1; d <= t.max_degree; ++d) {
    const auto& sets = multisets(t.alphabet, d);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (!((t.allowed[static_cast<std::size_t>(d - 1)] >> i) & 1u)) {
        continue;
      }
      for (const int l : sets[i]) used[static_cast<std::size_t>(l)] = 1;
    }
  }
  std::vector<int> remap(static_cast<std::size_t>(t.alphabet), -1);
  int next = 0;
  for (int l = 0; l < t.alphabet; ++l) {
    if (used[static_cast<std::size_t>(l)]) {
      remap[static_cast<std::size_t>(l)] = next++;
    }
  }
  if (next == t.alphabet) return t;

  BwTable out = t;
  out.alphabet = std::max(next, 1);  // an all-empty table keeps one label
  out.allowed.fill(0);
  std::vector<int> mapped;
  for (int d = 1; d <= t.max_degree; ++d) {
    const auto& sets = multisets(t.alphabet, d);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (!((t.allowed[static_cast<std::size_t>(d - 1)] >> i) & 1u)) {
        continue;
      }
      mapped = sets[i];
      for (int& l : mapped) l = remap[static_cast<std::size_t>(l)];
      out.allowed[static_cast<std::size_t>(d - 1)] |=
          std::uint64_t{1} << multiset_index(out.alphabet, mapped);
    }
  }
  return out;
}

namespace {

std::string encode_masks(const BwTable& t) {
  std::string key = "a" + std::to_string(t.alphabet) + "d" +
                    std::to_string(t.max_degree);
  for (int d = 1; d <= t.max_degree; ++d) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), ":%llx",
                  static_cast<unsigned long long>(
                      t.allowed[static_cast<std::size_t>(d - 1)]));
    key += buf;
  }
  return key;
}

/// Applies `fn` to every permutation of [0, alphabet).
template <typename Fn>
void for_each_permutation(int alphabet, Fn fn) {
  std::vector<int> perm(static_cast<std::size_t>(alphabet));
  std::iota(perm.begin(), perm.end(), 0);
  do {
    fn(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

}  // namespace

std::string canonical_key(const BwTable& t) {
  std::string best;
  for_each_permutation(t.alphabet, [&](const std::vector<int>& perm) {
    const std::string key = encode_masks(permute_table(t, perm));
    if (best.empty() || key < best) best = key;
  });
  return best;
}

BwTable canonical_table(const BwTable& t) {
  BwTable best = t;
  std::string best_key;
  for_each_permutation(t.alphabet, [&](const std::vector<int>& perm) {
    BwTable cand = permute_table(t, perm);
    const std::string key = encode_masks(cand);
    if (best_key.empty() || key < best_key) {
      best_key = key;
      best = std::move(cand);
    }
  });
  return best;
}

BwTable table_from_predicate(
    int alphabet, int max_degree, std::string name,
    const std::function<bool(const std::vector<int>&)>& pred) {
  BwTable t;
  t.alphabet = alphabet;
  t.max_degree = max_degree;
  t.name = std::move(name);
  for (int d = 1; d <= max_degree; ++d) {
    const auto& sets = multisets(alphabet, d);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (pred(sets[i])) {
        t.allowed[static_cast<std::size_t>(d - 1)] |= std::uint64_t{1} << i;
      }
    }
  }
  return t;
}

BwTable free_table(int alphabet, int max_degree) {
  return table_from_predicate(alphabet, max_degree,
                              "bw-free-" + std::to_string(alphabet),
                              [](const std::vector<int>&) { return true; });
}

BwTable edge_coloring_table(int colors, int max_degree) {
  return table_from_predicate(
      colors, max_degree, "edge-coloring-" + std::to_string(colors),
      [](const std::vector<int>& labels) {
        for (std::size_t i = 1; i < labels.size(); ++i) {
          if (labels[i] == labels[i - 1]) return false;
        }
        return true;
      });
}

BwTable weak_matching_table(int max_degree) {
  return table_from_predicate(2, max_degree, "weak-matching",
                              [](const std::vector<int>& labels) {
                                int ones = 0;
                                for (const int l : labels) ones += (l == 1);
                                return ones <= 1;
                              });
}

BwTable covering_table(int max_degree) {
  return table_from_predicate(2, max_degree, "covering",
                              [](const std::vector<int>& labels) {
                                if (labels.size() <= 1) return true;
                                for (const int l : labels) {
                                  if (l == 1) return true;
                                }
                                return false;
                              });
}

BwTable two_coloring_table(int max_degree) {
  return table_from_predicate(2, max_degree, "path-2-coloring",
                              [](const std::vector<int>& labels) {
                                if (labels.size() != 2) return true;
                                return labels[0] != labels[1];
                              });
}

std::uint64_t problem_sub_seed(std::uint64_t base, int attempt) {
  const std::uint64_t mixed = splitmix64(
      splitmix64(base ^ 0xb1ac4817e7ab1e55ULL) +
      static_cast<std::uint64_t>(attempt));
  // 53 bits: exactly representable as a JSON double, and nonzero (0 is
  // the reserved default-table seed).
  const std::uint64_t s = mixed >> 11;
  return s == 0 ? 1 : s;
}

BwTable sample_table(std::uint64_t seed) {
  if (seed == 0) {
    BwTable t = free_table(2, kMaxTableDegree);
    t.name = "bw-free-default";
    return t;
  }
  Rng rng(seed);
  BwTable t;
  t.seed = seed;

  char hex[24];
  std::snprintf(hex, sizeof(hex), "%llx",
                static_cast<unsigned long long>(seed));

  const int mode = static_cast<int>(rng.below(3));
  if (mode < 2) {
    // Explicit random table.
    t.alphabet = 2 + static_cast<int>(rng.below(2));
    t.max_degree = 3;
    t.name = std::string("rnd-a") + std::to_string(t.alphabet) + "-" + hex;
    const int density = 350 + static_cast<int>(rng.below(600));  // per mille
    for (int d = 1; d <= t.max_degree; ++d) {
      const auto count = multisets(t.alphabet, d).size();
      for (std::size_t i = 0; i < count; ++i) {
        if (static_cast<int>(rng.below(1000)) < density) {
          t.allowed[static_cast<std::size_t>(d - 1)] |= std::uint64_t{1}
                                                        << i;
        }
      }
    }
  } else {
    // Structured mutation of a named witness.
    const int which = static_cast<int>(rng.below(5));
    switch (which) {
      case 0: t = free_table(3, 3); break;
      case 1: t = edge_coloring_table(3, 3); break;
      case 2: t = weak_matching_table(3); break;
      case 3: t = covering_table(3); break;
      default: t = two_coloring_table(3); break;
    }
    t.seed = seed;
    t.name = "mut-" + t.name + "-" + hex;
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      const int d = 1 + static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(t.max_degree)));
      const auto count = multisets(t.alphabet, d).size();
      const auto bit = rng.below(count);
      t.allowed[static_cast<std::size_t>(d - 1)] ^= std::uint64_t{1} << bit;
    }
  }

  // Keep the degree-1 and degree-2 rows nonempty: an empty leaf or chain
  // row makes every tree instance trivially unsolvable, which would
  // swamp the sample with one uninteresting class.
  for (int d = 1; d <= 2; ++d) {
    if (t.allowed[static_cast<std::size_t>(d - 1)] == 0) {
      const auto count = multisets(t.alphabet, d).size();
      t.allowed[static_cast<std::size_t>(d - 1)] |= std::uint64_t{1}
                                                    << rng.below(count);
    }
  }
  return t;
}

std::vector<BwTable> sample_problems(std::uint64_t base_seed, int count) {
  std::vector<BwTable> out;
  std::vector<std::string> keys;
  const int max_attempts = 40 * std::max(count, 1);
  for (int i = 0; i < max_attempts && static_cast<int>(out.size()) < count;
       ++i) {
    BwTable t = sample_table(problem_sub_seed(base_seed, i));
    std::string key = canonical_key(t);
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    keys.push_back(std::move(key));
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace lcl::problems
