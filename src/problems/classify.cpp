#include "problems/classify.hpp"

#include <algorithm>
#include <vector>

#include "bw/label_sets.hpp"

namespace lcl::problems {

namespace {

using bw::LabelSet;

std::string set_to_string(LabelSet s, int alphabet) {
  std::string out = "{";
  bool first = true;
  for (int l = 0; l < alphabet; ++l) {
    if (!((s >> l) & 1u)) continue;
    out += (first ? "" : ",") + std::to_string(l);
    first = false;
  }
  return out + "}";
}

std::string combo_to_string(const std::vector<LabelSet>& sets,
                            int alphabet) {
  std::string out;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    out += (i ? " x " : "") + set_to_string(sets[i], alphabet);
  }
  return out;
}

/// Enumerates every multiset of `size` sets (with repetition) from
/// `seen` and applies `fn`; `fn` returning false stops the sweep.
template <typename Fn>
bool for_each_combo(const std::vector<LabelSet>& seen, int size, Fn fn) {
  std::vector<std::size_t> idx(static_cast<std::size_t>(size), 0);
  std::vector<LabelSet> combo(static_cast<std::size_t>(size));
  for (;;) {
    for (int i = 0; i < size; ++i) {
      combo[static_cast<std::size_t>(i)] =
          seen[idx[static_cast<std::size_t>(i)]];
    }
    if (!fn(combo)) return false;
    // Next nondecreasing index tuple.
    int i = size - 1;
    while (i >= 0 && idx[static_cast<std::size_t>(i)] == seen.size() - 1) {
      --i;
    }
    if (i < 0) return true;
    const std::size_t v = idx[static_cast<std::size_t>(i)] + 1;
    for (int j = i; j < size; ++j) idx[static_cast<std::size_t>(j)] = v;
  }
}

}  // namespace

std::string to_string(ProblemClass c) {
  switch (c) {
    case ProblemClass::kConstant: return "O(1)";
    case ProblemClass::kLogStar: return "log*-range";
    case ProblemClass::kGenericLogN: return "Theta(log n)";
    case ProblemClass::kUnsolvable: return "unsolvable";
  }
  return "?";
}

namespace {

/// Recipe realizing one reachable label-set: a node whose children are
/// the subtrees realizing the listed (earlier) sets; a leaf for the
/// initial set. Recipes form a DAG over `seen` indices; witness
/// expansion duplicates shared sub-recipes into an actual tree.
using Recipe = std::vector<std::size_t>;

constexpr graph::NodeId kWitnessCap = 200000;

/// Expands recipe `idx` under `parent` (kInvalidNode for a root).
/// Returns false when the node cap is exceeded.
bool expand_recipe(const std::vector<Recipe>& recipes, std::size_t idx,
                   graph::TreeBuilder& builder, graph::NodeId parent) {
  if (builder.size() >= kWitnessCap) return false;
  const graph::NodeId v = builder.add_node();
  if (parent != graph::kInvalidNode) builder.add_edge(parent, v);
  for (const std::size_t child : recipes[idx]) {
    if (!expand_recipe(recipes, child, builder, v)) return false;
  }
  return true;
}

/// Builds the witness tree: an (optional) extra parent node over a node
/// whose children realize `combo` — the configuration the closure found
/// uncompletable.
void build_witness(TreeTesting& out, const std::vector<Recipe>& recipes,
                   const std::vector<std::size_t>& combo_recipes,
                   bool with_parent) {
  graph::TreeBuilder builder;
  graph::NodeId top = graph::kInvalidNode;
  if (with_parent) top = builder.add_node();
  const graph::NodeId v = builder.add_node();
  if (with_parent) builder.add_edge(top, v);
  for (const std::size_t child : combo_recipes) {
    if (!expand_recipe(recipes, child, builder, v)) return;
  }
  out.witness = builder.finalize();
  out.has_witness = true;
}

}  // namespace

TreeTesting tree_testing(const BwTable& table) {
  TreeTesting out;

  LabelSet leaf = 0;
  for (int l = 0; l < table.alphabet; ++l) {
    if (table.allows({l})) leaf |= (1u << l);
  }
  if (leaf == 0) {
    out.good = false;
    out.failure = "no label allowed at a leaf";
    // Witness: a single edge — both endpoints are leaves and neither
    // can label its one incident edge. (A 1-node tree is still fine:
    // the empty multiset is always allowed.)
    graph::TreeBuilder builder;
    const graph::NodeId a = builder.add_node();
    builder.add_edge(a, builder.add_node());
    out.witness = builder.finalize();
    out.has_witness = true;
    return out;
  }

  // Fixed point of the one-node extension: a node with m child subtrees
  // whose up-sets are S_1..S_m can commit label o on its outgoing edge
  // iff some choice completes its multiset constraint — exact, because
  // the subtrees are disjoint. `recipes[i]` records how seen[i] is
  // realized, for witness construction.
  const auto allows = [&table](const std::vector<int>& sorted) {
    return table.allows(sorted);
  };
  std::vector<LabelSet> seen{leaf};
  std::vector<Recipe> recipes{{}};
  // Maps a snapshot combo back to seen indices (sets are unique in
  // `seen`, so value lookup is unambiguous).
  const auto index_of = [&seen](LabelSet s) {
    return static_cast<std::size_t>(
        std::find(seen.begin(), seen.end(), s) - seen.begin());
  };
  const auto combo_indices =
      [&index_of](const std::vector<LabelSet>& combo) {
        std::vector<std::size_t> idx;
        idx.reserve(combo.size());
        for (const LabelSet s : combo) idx.push_back(index_of(s));
        return idx;
      };
  bool grew = true;
  while (grew && out.good) {
    grew = false;
    const std::vector<LabelSet> snapshot = seen;
    for (int m = 1; m < table.max_degree && out.good; ++m) {
      for_each_combo(snapshot, m, [&](const std::vector<LabelSet>& combo) {
        const LabelSet g = bw::up_set(table.alphabet, combo, allows);
        if (g == 0) {
          out.good = false;
          out.failure = "empty up-set at a degree-" + std::to_string(m + 1) +
                        " node over child classes " +
                        combo_to_string(combo, table.alphabet);
          // The node cannot complete for *any* outgoing label, so
          // attaching any parent yields an infeasible tree.
          build_witness(out, recipes, combo_indices(combo),
                        /*with_parent=*/true);
          return false;
        }
        if (std::find(seen.begin(), seen.end(), g) == seen.end()) {
          seen.push_back(g);
          recipes.push_back(combo_indices(combo));
          grew = true;
        }
        return true;
      });
    }
  }

  // Root closure: a component's last node has 1..max_degree child
  // subtrees and no outgoing edge; every reachable combination must
  // complete. (Every set in `seen` is realized by a concrete subtree —
  // inductively from a single leaf — so a failing combination is a
  // witness tree with no valid labeling.)
  for (int m = 1; m <= table.max_degree && out.good; ++m) {
    for_each_combo(seen, m, [&](const std::vector<LabelSet>& combo) {
      if (!bw::choose(table.alphabet, {}, combo, allows)) {
        out.good = false;
        out.failure = "no completion at a degree-" + std::to_string(m) +
                      " root over child classes " +
                      combo_to_string(combo, table.alphabet);
        build_witness(out, recipes, combo_indices(combo),
                      /*with_parent=*/false);
        return false;
      }
      return true;
    });
  }

  out.reachable_sets = static_cast<int>(seen.size());
  return out;
}

bw::PathLcl path_restriction(const BwTable& table) {
  bw::PathLcl p;
  p.alphabet = table.alphabet;
  p.name = table.name + "/path";
  p.adjacent.assign(static_cast<std::size_t>(table.alphabet), 0);
  for (int a = 0; a < table.alphabet; ++a) {
    for (int b = a; b < table.alphabet; ++b) {
      if (table.allows({a, b})) {
        p.adjacent[static_cast<std::size_t>(a)] |= (1u << b);
        p.adjacent[static_cast<std::size_t>(b)] |= (1u << a);
      }
    }
    if (table.allows({a})) {
      p.left_boundary |= (1u << a);
      p.right_boundary |= (1u << a);
    }
  }
  return p;
}

core::LandscapeRegion landscape_region(ProblemClass c) {
  static const std::vector<core::LandscapeRegion> rows =
      core::landscape(/*after=*/true);
  switch (c) {
    case ProblemClass::kConstant: {
      const core::LandscapeRegion* r = core::find_region(rows, "O(1)");
      if (r != nullptr) return *r;
      break;
    }
    case ProblemClass::kLogStar: {
      const core::LandscapeRegion* r =
          core::find_region(rows, "(log* n)^{Omega(1)}");
      if (r != nullptr) return *r;
      break;
    }
    case ProblemClass::kGenericLogN:
      return {"O(log n) (generic decomposition schedule)",
              core::RegionKind::kClass, core::Provenance::kThisPaper,
              "Lemma 72 depth + exact chain DP",
              "compress-rigid sampled tables"};
    case ProblemClass::kUnsolvable:
      return {"unsolvable by the generic procedure", core::RegionKind::kGap,
              core::Provenance::kThisPaper,
              "Definition 74 testing procedure (exact rake closure)", "-"};
  }
  return {"?", core::RegionKind::kGap, core::Provenance::kThisPaper, "?",
          "-"};
}

Classification classify_table(const BwTable& table) {
  // Strip inert labels, then canonicalize: the rectangle tie-breaks
  // downstream are label-order dependent, and both an alternative
  // relabeling and an unused padding label would otherwise shift which
  // representative they run on — the prediction must not depend on
  // either (pinned by the property fuzz tests).
  const BwTable canon = canonical_table(strip_unused_labels(table));
  Classification c;

  const TreeTesting tt = tree_testing(canon);
  c.tree_good = tt.good;
  const bw::PathLcl path = path_restriction(canon);
  c.path_class = bw::classify(path);

  if (!tt.good) {
    c.predicted = ProblemClass::kUnsolvable;
    c.rationale = tt.failure;
    c.region = landscape_region(c.predicted);
    return c;
  }
  if (c.path_class == bw::PathComplexity::kUnsolvable) {
    // Defensive: a clean closure should preclude this (paths are trees).
    c.predicted = ProblemClass::kUnsolvable;
    c.rationale = "path restriction unsolvable on long chains";
    c.region = landscape_region(c.predicted);
    return c;
  }
  if (c.path_class == bw::PathComplexity::kLinear) {
    c.predicted = ProblemClass::kGenericLogN;
    c.rationale = "chains are parity-rigid (path class Theta(n)); only "
                  "the exact decomposition schedule applies";
    c.region = landscape_region(c.predicted);
    return c;
  }

  const bw::ConstantGoodVerdict v = bw::decide_constant_good(path);
  c.testing_good = v.solvable;
  c.constant_good = v.constant_good;
  if (!v.solvable) {
    c.predicted = ProblemClass::kGenericLogN;
    c.rationale = "canonical rectangles empty in the testing procedure; "
                  "flexible commit unavailable";
  } else if (v.constant_good) {
    c.predicted = ProblemClass::kConstant;
    c.rationale = "constant-good function exists (Theorem 7)";
  } else if (v.worst_compress == bw::PathComplexity::kLogStar) {
    c.predicted = ProblemClass::kLogStar;
    c.rationale = "compress problems need splitting (worst compress "
                  "class Theta(log* n))";
  } else {
    c.predicted = ProblemClass::kGenericLogN;
    c.rationale = "some compress problem is rigid (" +
                  bw::to_string(v.worst_compress) +
                  "); flexible commit unavailable";
  }
  c.region = landscape_region(c.predicted);
  return c;
}

ProblemClass classify_empirical(const EmpiricalSignal& s) {
  if (s.any_infeasible) return ProblemClass::kUnsolvable;
  const double growth =
      s.na_small > 1e-12 ? s.na_large / s.na_small : 1e9;
  if (growth >= kLogNGrowthThreshold && s.na_large >= kLogNMinNa) {
    return ProblemClass::kGenericLogN;
  }
  if (s.na_large >= kSplitNaThreshold) return ProblemClass::kLogStar;
  return ProblemClass::kConstant;
}

}  // namespace lcl::problems
