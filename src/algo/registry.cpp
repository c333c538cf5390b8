#include "algo/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "algo/apoly.hpp"
#include "algo/bw_generic.hpp"
#include "algo/cole_vishkin.hpp"
#include "algo/decomp_program.hpp"
#include "algo/dfree_logn.hpp"
#include "algo/generic_hier.hpp"
#include "algo/hier_labeling.hpp"
#include "algo/level_program.hpp"
#include "algo/pi35.hpp"
#include "algo/randomized.hpp"
#include "algo/weight_aug.hpp"
#include "bw/tree_problem.hpp"
#include "decomp/rake_compress.hpp"
#include "graph/builders.hpp"
#include "problems/labels.hpp"
#include "problems/lclgen.hpp"
#include "problems/levels.hpp"

namespace lcl::algo {

namespace {

using graph::NodeId;
using graph::Tree;
using problems::CheckResult;
using problems::Variant;

// ---------------------------------------------------------------------------
// Shared option-building helpers.
// ---------------------------------------------------------------------------

constexpr std::int64_t kBig = std::numeric_limits<std::int64_t>::max() / 4;

OptionSpec opt_k(int max_k, std::int64_t def = 2) {
  return {"k", "hierarchy depth", def, 1, max_k, false};
}

OptionSpec opt_gammas() {
  return {"gammas",
          "phase thresholds gamma_1..gamma_{k-1} (default: theory profile)",
          0, 2, kBig, true};
}

OptionSpec opt_id_space() {
  return {"id_space", "Cole-Vishkin palette size (0 = number of nodes)", 0,
          0, kBig, false};
}

OptionSpec opt_symmetry_pad() {
  return {"symmetry_pad", "virtual-log* target Lambda (0 = real log*)", 0,
          0, 1 << 26, false};
}

/// Resolves the `gammas` list option, falling back to the 2.5-regime
/// theory profile (Lemma 14 analog, base n).
std::vector<std::int64_t> gammas_or_25(const SolverConfig& cfg,
                                       const Tree& tree, int k) {
  if (cfg.has("gammas")) return cfg.list("gammas");
  return gammas_for_25(std::max<std::int64_t>(tree.size(), 2), k);
}

/// Resolves `gammas` for the 3.5 regime: base is the virtual-log*
/// target Lambda when padded, else the natural Cole-Vishkin round cost.
std::vector<std::int64_t> gammas_or_35(const SolverConfig& cfg,
                                       const Tree& tree, int k,
                                       std::int64_t symmetry_pad) {
  if (cfg.has("gammas")) return cfg.list("gammas");
  const std::int64_t lambda =
      symmetry_pad > 0
          ? symmetry_pad
          : cv_total_rounds(std::max<std::int64_t>(tree.size(), 2));
  return gammas_for_35(lambda, k);
}

void require_gamma_count(const std::string& solver,
                         const std::vector<std::int64_t>& gammas, int k) {
  if (static_cast<int>(gammas.size()) != k - 1) {
    throw std::invalid_argument(
        solver + ": gammas must have k-1 = " + std::to_string(k - 1) +
        " entries, got " + std::to_string(gammas.size()));
  }
}

std::vector<int> levels_of(const Tree& tree, int k) {
  return problems::compute_levels(tree, k);
}

bool tree_only(const graph::Family& f) { return f.is_tree; }

/// Effective random-coloring palette: 0 means max degree + 1. Resolved
/// in one place so the factory and the certifier can never diverge.
int resolve_colors(const Tree& tree, const SolverConfig& cfg) {
  const int colors = static_cast<int>(cfg.get("colors"));
  return colors != 0 ? colors : tree.max_degree() + 1;
}

// ---------------------------------------------------------------------------
// Engine wrappers for the centralized view-based solvers. The rules are
// functions of a bounded-radius view, so the computation happens in the
// constructor and every node is charged the locality-equivalent round
// count (see DESIGN.md, Simulator design).
// ---------------------------------------------------------------------------

/// Algorithm A for the d-free weight problem (Section 7), standalone:
/// participants are all nodes, input-A nodes carry DFreeInput::kA. Every
/// node is charged the view radius.
class DFreeAProgram final : public local::Program {
 public:
  DFreeAProgram(const Tree& tree, int d) {
    const NodeId n = tree.size();
    std::vector<char> participates(static_cast<std::size_t>(n), 1);
    std::vector<char> is_a(static_cast<std::size_t>(n), 0);
    for (NodeId v = 0; v < n; ++v) {
      is_a[static_cast<std::size_t>(v)] =
          tree.input(v) == static_cast<int>(problems::DFreeInput::kA) ? 1
                                                                      : 0;
    }
    result_ = run_dfree_algorithm_a(tree, participates, is_a, d, n);
    charge_ = std::max<std::int64_t>(1, result_.view_radius);
  }

  // Every node only waits for the charge round; an earlier visit (per-node
  // dispatch makes one every round) re-sleeps.
  void on_init(local::NodeCtx& ctx) override { ctx.sleep_until(charge_); }
  void on_round(local::NodeCtx& ctx) override {
    if (ctx.round() < charge_) {
      ctx.sleep_until(charge_);
      return;
    }
    ctx.terminate(result_.output[static_cast<std::size_t>(ctx.node())]);
  }

 private:
  DFreeResult result_;
  std::int64_t charge_ = 1;
};

/// Lemma-65 k-hierarchical labeling, standalone: the centralized
/// construction with each node charged its peel step (the distributed
/// round in which it learns its layer).
class HierLabelingProgram final : public local::Program {
 public:
  HierLabelingProgram(const Tree& tree, int k)
      : solution_(solve_hierarchical_labeling(tree, k)) {}

  // Each node only waits for its peel step; a neighbour that terminates
  // earlier wakes it, and that visit re-sleeps.
  void on_init(local::NodeCtx& ctx) override {
    ctx.sleep_until(
        solution_.assign_round[static_cast<std::size_t>(ctx.node())]);
  }
  void on_round(local::NodeCtx& ctx) override {
    const auto v = static_cast<std::size_t>(ctx.node());
    if (ctx.round() < solution_.assign_round[v]) {
      ctx.sleep_until(solution_.assign_round[v]);
      return;
    }
    ctx.terminate(solution_.labels[v]);
  }

  [[nodiscard]] const HierLabeling& solution() const { return solution_; }

 private:
  HierLabeling solution_;
};

// ---------------------------------------------------------------------------
// Certifiers.
// ---------------------------------------------------------------------------

CheckResult certify_hier_coloring(const Tree& tree,
                                  const local::RunStats& stats, int k,
                                  Variant variant) {
  return problems::check_hierarchical_coloring(tree, k, variant,
                                               stats.primaries());
}

CheckResult certify_weighted(const Tree& tree,
                             const local::RunStats& stats, int k, int d,
                             Variant variant) {
  return problems::check_weighted(tree, k, d, variant, stats.output);
}

/// Proper coloring with a palette of `colors` labels {0..colors-1}.
CheckResult certify_proper_coloring(const Tree& tree,
                                    const local::RunStats& stats,
                                    int colors) {
  for (NodeId v = 0; v < tree.size(); ++v) {
    const int c = stats.output[static_cast<std::size_t>(v)].primary;
    if (c < 0 || c >= colors) {
      return CheckResult::fail("node " + std::to_string(v) +
                               ": color out of palette");
    }
    for (NodeId u : tree.neighbors(v)) {
      if (stats.output[static_cast<std::size_t>(u)].primary == c) {
        return CheckResult::fail("node " + std::to_string(v) +
                                 ": neighbor shares color " +
                                 std::to_string(c));
      }
    }
  }
  return CheckResult::pass();
}

CheckResult certify_levels(const Tree& tree, const local::RunStats& stats,
                           int k) {
  const std::vector<int> want = problems::compute_levels(tree, k);
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (stats.output[static_cast<std::size_t>(v)].primary !=
        want[static_cast<std::size_t>(v)]) {
      return CheckResult::fail(
          "node " + std::to_string(v) + ": level " +
          std::to_string(stats.output[static_cast<std::size_t>(v)].primary) +
          " != peeling level " +
          std::to_string(want[static_cast<std::size_t>(v)]));
    }
  }
  return CheckResult::pass();
}

/// Decodes DecompositionProgram outputs back into a Decomposition and
/// validates it (relaxed variant: the distributed program compresses
/// whole chains). Shared with the family_sweep scenario via the spec.
CheckResult certify_decomposition(const Tree& tree,
                                  const local::RunStats& stats, int gamma,
                                  int ell) {
  const std::string err = decomp::validate_decomposition(
      tree, decode_decomposition(tree, stats, gamma, ell));
  return err.empty() ? CheckResult::pass() : CheckResult::fail(err);
}

// ---------------------------------------------------------------------------
// The registry itself.
// ---------------------------------------------------------------------------

std::vector<SolverSpec> build_registry() {
  std::vector<SolverSpec> reg;

  {
    SolverSpec s;
    s.name = "generic_hier_25";
    s.summary = "generic k-hierarchical 2.5-coloring (Section 4.1)";
    s.problem = "k-hierarchical 2.5-coloring (Definition 8)";
    s.theorem = "BBK+23b baseline; Lemma 14 profile";
    s.complexity = "Theta(n^{1/(2k-1)})";
    s.needs = kNeedShuffledIds;
    s.options = {opt_k(8), opt_gammas(), opt_id_space()};
    s.factory = [](const Tree& tree, const SolverConfig& cfg) {
      const int k = static_cast<int>(cfg.get("k"));
      GenericOptions o;
      o.variant = Variant::kTwoHalf;
      o.k = k;
      o.gammas = gammas_or_25(cfg, tree, k);
      o.id_space = cfg.get("id_space");
      require_gamma_count("generic_hier_25", o.gammas, k);
      return std::make_unique<GenericHierProgram>(tree, std::move(o),
                                                  levels_of(tree, k));
    };
    s.certify = [](const Tree& tree, const local::Program&,
                   const local::RunStats& stats, const SolverConfig& cfg) {
      return certify_hier_coloring(tree, stats,
                                   static_cast<int>(cfg.get("k")),
                                   Variant::kTwoHalf);
    };
    reg.push_back(std::move(s));
  }

  {
    SolverSpec s;
    s.name = "generic_hier_35";
    s.summary = "generic k-hierarchical 3.5-coloring (Section 4.1)";
    s.problem = "k-hierarchical 3.5-coloring (Definition 9)";
    s.theorem = "Theorem 11 / Corollary 10";
    s.complexity = "Theta((log* n)^{1/2^{k-1}})";
    s.needs = kNeedShuffledIds;
    s.options = {opt_k(8), opt_gammas(), opt_id_space(),
                 opt_symmetry_pad()};
    s.factory = [](const Tree& tree, const SolverConfig& cfg) {
      const int k = static_cast<int>(cfg.get("k"));
      GenericOptions o;
      o.variant = Variant::kThreeHalf;
      o.k = k;
      o.symmetry_pad = cfg.get("symmetry_pad");
      o.gammas = gammas_or_35(cfg, tree, k, o.symmetry_pad);
      o.id_space = cfg.get("id_space");
      require_gamma_count("generic_hier_35", o.gammas, k);
      return std::make_unique<GenericHierProgram>(tree, std::move(o),
                                                  levels_of(tree, k));
    };
    s.certify = [](const Tree& tree, const local::Program&,
                   const local::RunStats& stats, const SolverConfig& cfg) {
      return certify_hier_coloring(tree, stats,
                                   static_cast<int>(cfg.get("k")),
                                   Variant::kThreeHalf);
    };
    reg.push_back(std::move(s));
  }

  {
    SolverSpec s;
    s.name = "apoly";
    s.summary = "A_poly for the weighted problem Pi^{2.5} (Section 7.1)";
    s.problem = "Pi^{2.5}_{Delta,d,k} (Definition 22)";
    s.theorem = "Theorems 2/3";
    s.complexity = "Theta(n^{alpha1(x)})";
    s.needs = kNeedShuffledIds | kNeedWeightInputs;
    s.options = {opt_k(8),
                 {"d", "Decline budget of the weight gadget", 2, 0, 64,
                  false},
                 opt_gammas(),
                 opt_id_space(),
                 opt_symmetry_pad(),
                 {"naive_all_copy",
                  "ablation: every weight node copies (x = 1 strawman)", 0,
                  0, 1, false}};
    s.factory = [](const Tree& tree, const SolverConfig& cfg) {
      const int k = static_cast<int>(cfg.get("k"));
      ApolyOptions o;
      o.k = k;
      o.d = static_cast<int>(cfg.get("d"));
      o.gammas = gammas_or_25(cfg, tree, k);
      o.id_space = cfg.get("id_space");
      o.symmetry_pad = cfg.get("symmetry_pad");
      o.naive_all_copy = cfg.get("naive_all_copy") != 0;
      require_gamma_count("apoly", o.gammas, k);
      return std::make_unique<ApolyProgram>(tree, std::move(o));
    };
    s.certify = [](const Tree& tree, const local::Program&,
                   const local::RunStats& stats, const SolverConfig& cfg) {
      return certify_weighted(tree, stats, static_cast<int>(cfg.get("k")),
                              static_cast<int>(cfg.get("d")),
                              Variant::kTwoHalf);
    };
    reg.push_back(std::move(s));
  }

  {
    SolverSpec s;
    s.name = "pi35";
    s.summary =
        "fast-decomposition solver for Pi^{3.5} (Section 8.2)";
    s.problem = "Pi^{3.5}_{Delta,d,k} (Definition 22)";
    s.theorem = "Theorems 4/5";
    s.complexity = "O((log* n)^{alpha1(x')})";
    s.needs = kNeedShuffledIds | kNeedWeightInputs;
    s.options = {opt_k(8),
                 {"d", "Decline budget of the weight gadget", 3, 3, 64,
                  false},
                 opt_gammas(),
                 opt_id_space(),
                 opt_symmetry_pad()};
    s.factory = [](const Tree& tree, const SolverConfig& cfg) {
      const int k = static_cast<int>(cfg.get("k"));
      Pi35Options o;
      o.k = k;
      o.d = static_cast<int>(cfg.get("d"));
      o.symmetry_pad = cfg.get("symmetry_pad");
      o.gammas = gammas_or_35(cfg, tree, k, o.symmetry_pad);
      o.id_space = cfg.get("id_space");
      require_gamma_count("pi35", o.gammas, k);
      return std::make_unique<Pi35Program>(tree, std::move(o));
    };
    s.certify = [](const Tree& tree, const local::Program&,
                   const local::RunStats& stats, const SolverConfig& cfg) {
      return certify_weighted(tree, stats, static_cast<int>(cfg.get("k")),
                              static_cast<int>(cfg.get("d")),
                              Variant::kThreeHalf);
    };
    reg.push_back(std::move(s));
  }

  {
    SolverSpec s;
    s.name = "weight_aug";
    s.summary =
        "k-hierarchical weight-augmented 2.5-coloring (Section 10)";
    s.problem = "weight-augmented 2.5-coloring (Definition 67)";
    s.theorem = "Lemma 69";
    s.complexity = "Theta(n^{1/k})";
    s.needs = kNeedShuffledIds | kNeedWeightInputs;
    s.options = {opt_k(8),
                 {"gamma",
                  "uniform active gamma / weight decomposition target "
                  "(0 = ceil(n^{1/k}))",
                  0, 0, kBig, false},
                 opt_id_space()};
    s.factory = [](const Tree& tree, const SolverConfig& cfg) {
      WeightAugOptions o;
      o.k = static_cast<int>(cfg.get("k"));
      o.gamma = cfg.get("gamma");
      o.id_space = cfg.get("id_space");
      if (o.gamma == 1) {
        throw std::invalid_argument(
            "weight_aug: gamma must be 0 (auto) or >= 2, got 1");
      }
      return std::make_unique<WeightAugProgram>(tree, std::move(o));
    };
    s.certify = [](const Tree& tree, const local::Program& program,
                   const local::RunStats& stats, const SolverConfig& cfg) {
      const auto* p = dynamic_cast<const WeightAugProgram*>(&program);
      if (p == nullptr) {
        return CheckResult::fail("weight_aug: program type mismatch");
      }
      return problems::check_weight_augmented(
          tree, static_cast<int>(cfg.get("k")), stats.output,
          p->orientation());
    };
    reg.push_back(std::move(s));
  }

  {
    SolverSpec s;
    s.name = "hier_labeling";
    s.summary = "Lemma-65 k-hierarchical labeling from a decomposition";
    s.problem = "k-hierarchical labeling (Definition 63)";
    s.theorem = "Lemma 65";
    s.complexity = "O(k n^{1/k}) worst case";
    s.needs = kNeedShuffledIds;
    s.options = {opt_k(8)};
    s.factory = [](const Tree& tree, const SolverConfig& cfg) {
      return std::make_unique<HierLabelingProgram>(
          tree, static_cast<int>(cfg.get("k")));
    };
    s.certify = [](const Tree& tree, const local::Program& program,
                   const local::RunStats& stats, const SolverConfig& cfg) {
      const auto* p = dynamic_cast<const HierLabelingProgram*>(&program);
      if (p == nullptr) {
        return CheckResult::fail("hier_labeling: program type mismatch");
      }
      return problems::check_hierarchical_labeling(
          tree, static_cast<int>(cfg.get("k")), stats.primaries(),
          p->solution().orientation);
    };
    reg.push_back(std::move(s));
  }

  {
    SolverSpec s;
    s.name = "dfree_a";
    s.summary = "Algorithm A for the d-free weight problem (Section 7)";
    s.problem = "d-free weight problem (Section 7)";
    s.theorem = "Lemmas 37/40";
    s.complexity = "O(log n) worst case; <= 6 w^x copies";
    s.needs = kNeedShuffledIds | kNeedDFreeInputs;
    s.options = {
        {"d", "Decline budget per Copy node", 2, 0, 64, false}};
    s.factory = [](const Tree& tree, const SolverConfig& cfg) {
      return std::make_unique<DFreeAProgram>(
          tree, static_cast<int>(cfg.get("d")));
    };
    s.certify = [](const Tree& tree, const local::Program&,
                   const local::RunStats& stats, const SolverConfig& cfg) {
      return problems::check_dfree_weight(
          tree, static_cast<int>(cfg.get("d")), stats.primaries());
    };
    reg.push_back(std::move(s));
  }

  {
    SolverSpec s;
    s.name = "rake_compress";
    s.summary =
        "distributed rake-and-compress decomposition (Definition 71)";
    s.problem = "(gamma, ell)-decomposition (Definitions 43/71)";
    s.theorem = "Lemma 72";
    s.complexity = "O(log n) rounds at gamma = 1";
    s.options = {{"gamma", "rake sub-steps per iteration", 1, 1, 1 << 20,
                  false},
                 {"ell", "minimum compressible chain length", 4, 2,
                  1 << 20, false}};
    s.factory = [](const Tree& tree, const SolverConfig& cfg) {
      return std::make_unique<DecompositionProgram>(
          tree, static_cast<int>(cfg.get("gamma")),
          static_cast<int>(cfg.get("ell")));
    };
    s.certify = [](const Tree& tree, const local::Program&,
                   const local::RunStats& stats, const SolverConfig& cfg) {
      return certify_decomposition(tree, stats,
                                   static_cast<int>(cfg.get("gamma")),
                                   static_cast<int>(cfg.get("ell")));
    };
    reg.push_back(std::move(s));
  }

  {
    SolverSpec s;
    s.name = "level_peeling";
    s.summary = "distributed Definition-8 level computation";
    s.problem = "Definition-8 levels (peeling process)";
    s.theorem = "Definition 8";
    s.complexity = "O(k) worst case";
    s.options = {opt_k(64)};
    s.factory = [](const Tree& tree, const SolverConfig& cfg) {
      return std::make_unique<LevelProgram>(
          tree, static_cast<int>(cfg.get("k")));
    };
    s.certify = [](const Tree& tree, const local::Program&,
                   const local::RunStats& stats, const SolverConfig& cfg) {
      return certify_levels(tree, stats, static_cast<int>(cfg.get("k")));
    };
    reg.push_back(std::move(s));
  }

  {
    SolverSpec s;
    s.name = "random_coloring";
    s.summary = "randomized coloring, O(1) expected node-average";
    s.problem = "proper coloring, >= Delta+1 colors";
    s.theorem = "Figure 2 (randomized dichotomy)";
    s.complexity = "O(1) expected node-average";
    s.needs = kNeedShuffledIds | kNeedRng;
    s.options = {{"colors", "palette size (0 = max degree + 1)", 0, 0,
                  1 << 20, false}};
    // Needs no acyclicity — the O(1)-average witness runs on any
    // bounded-degree graph, including the cycle edge-case family.
    s.compatible = [](const graph::Family&) { return true; };
    s.factory = [](const Tree& tree, const SolverConfig& cfg) {
      return std::make_unique<RandomColoringProgram>(
          tree, resolve_colors(tree, cfg), cfg.seed);
    };
    s.certify = [](const Tree& tree, const local::Program&,
                   const local::RunStats& stats, const SolverConfig& cfg) {
      return certify_proper_coloring(tree, stats,
                                     resolve_colors(tree, cfg));
    };
    reg.push_back(std::move(s));
  }

  {
    SolverSpec s;
    s.name = "bw_generic";
    s.summary =
        "generic rake-and-compress solver for sampled bw tables "
        "(Section 11)";
    s.problem = "sampled black-white tree LCL (Definition 70 table)";
    s.theorem = "Theorem 7 / Section 11 generic algorithm";
    s.complexity = "O(1) / Theta(log* n) / Theta(log n) by class";
    s.needs = kNeedShuffledIds;
    s.options = {{"problem_seed",
                  "lclgen generator seed of the sampled table (0 = the "
                  "free table)",
                  0, 0, kBig, false}};
    // The table formalism caps degrees at problems::kMaxTableDegree, so
    // only families whose *default* shape respects the cap are swept by
    // the matrix scenario (problem_sweep builds its instances with an
    // explicit delta instead).
    s.compatible = [](const graph::Family& f) {
      return f.is_tree &&
             (f.name == "path" || f.name == "binary_pendant" ||
              f.name == "galton_watson" || f.name == "random_attach");
    };
    s.factory = [](const Tree& tree, const SolverConfig& cfg) {
      return std::make_unique<BwGenericProgram>(
          tree, problems::sample_table(
                    static_cast<std::uint64_t>(cfg.get("problem_seed"))));
    };
    s.certify = [](const Tree& tree, const local::Program& program,
                   const local::RunStats&, const SolverConfig&) {
      const auto* p = dynamic_cast<const BwGenericProgram*>(&program);
      if (p == nullptr) {
        return CheckResult::fail("bw_generic: program type mismatch");
      }
      if (!p->solved()) {
        return CheckResult::fail("bw_generic: instance infeasible: " +
                                 p->failure());
      }
      const std::string err =
          bw::check_tree_bw(tree, p->table(), p->edge_labels());
      return err.empty() ? CheckResult::pass()
                         : CheckResult::fail("bw_generic: " + err);
    };
    reg.push_back(std::move(s));
  }

  for (SolverSpec& s : reg) {
    if (!s.compatible) s.compatible = tree_only;
  }
  return reg;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Per-component BFS depths from the smallest node index; also reports
/// each component's root and maximum depth via the callback.
void mark_by_depth(Tree& tree,
                   const std::function<void(NodeId root, NodeId v,
                                            int depth, int max_depth)>&
                       mark) {
  const NodeId n = tree.size();
  std::vector<int> depth(static_cast<std::size_t>(n), -1);
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(n));
  for (NodeId root = 0; root < n; ++root) {
    if (depth[static_cast<std::size_t>(root)] >= 0) continue;
    order.clear();
    order.push_back(root);
    depth[static_cast<std::size_t>(root)] = 0;
    int max_depth = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const NodeId v = order[i];
      for (NodeId u : tree.neighbors(v)) {
        if (depth[static_cast<std::size_t>(u)] >= 0) continue;
        depth[static_cast<std::size_t>(u)] =
            depth[static_cast<std::size_t>(v)] + 1;
        max_depth =
            std::max(max_depth, depth[static_cast<std::size_t>(u)]);
        order.push_back(u);
      }
    }
    for (const NodeId v : order) {
      mark(root, v, depth[static_cast<std::size_t>(v)], max_depth);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SolverConfig.
// ---------------------------------------------------------------------------

std::int64_t SolverConfig::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::invalid_argument("solver option '" + key +
                                "' is not set (validate the config "
                                "against the spec first)");
  }
  if (it->second.size() != 1) {
    throw std::invalid_argument("solver option '" + key +
                                "' is a list, not a scalar");
  }
  return it->second.front();
}

const std::vector<std::int64_t>& SolverConfig::list(
    const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::invalid_argument("solver option '" + key + "' is not set");
  }
  return it->second;
}

SolverConfig& SolverConfig::validate(const SolverSpec& spec) {
  for (const auto& [key, words] : values_) {
    const OptionSpec* opt = spec.find_option(key);
    if (opt == nullptr) {
      std::string known;
      for (const OptionSpec& o : spec.options) {
        known += (known.empty() ? "" : ", ") + o.key;
      }
      throw std::invalid_argument("solver '" + spec.name +
                                  "' has no option '" + key +
                                  "' (options: " + known + ")");
    }
    if (!opt->is_list && words.size() != 1) {
      throw std::invalid_argument("solver '" + spec.name + "': option '" +
                                  key + "' takes a single value");
    }
    for (const std::int64_t w : words) {
      if (w < opt->min || w > opt->max) {
        throw std::invalid_argument(
            "solver '" + spec.name + "': " + key + "=" +
            std::to_string(w) + " out of range [" +
            std::to_string(opt->min) + ", " + std::to_string(opt->max) +
            "]");
      }
    }
  }
  // Fill scalar defaults; list options stay absent so factories can
  // derive the theory profile from the instance.
  for (const OptionSpec& opt : spec.options) {
    if (!opt.is_list && values_.count(opt.key) == 0) {
      values_[opt.key] = {opt.def};
    }
  }
  return *this;
}

// ---------------------------------------------------------------------------
// Registry accessors.
// ---------------------------------------------------------------------------

const OptionSpec* SolverSpec::find_option(const std::string& key) const {
  for (const OptionSpec& o : options) {
    if (o.key == key) return &o;
  }
  return nullptr;
}

const std::vector<SolverSpec>& registry() {
  static const std::vector<SolverSpec> reg = build_registry();
  return reg;
}

const SolverSpec* find_solver(const std::string& name) {
  for (const SolverSpec& s : registry()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const SolverSpec& solver(const std::string& name) {
  const SolverSpec* s = find_solver(name);
  if (s == nullptr) {
    std::string known;
    for (const std::string& n : solver_names()) {
      known += (known.empty() ? "" : ", ") + n;
    }
    throw std::invalid_argument("unknown solver '" + name +
                                "' (registered: " + known + ")");
  }
  return *s;
}

std::vector<std::string> solver_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const SolverSpec& s : registry()) names.push_back(s.name);
  return names;
}

std::vector<std::string> parse_solver_list(const std::string& csv) {
  if (csv.empty() || csv == "all") return solver_names();
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string name =
        csv.substr(pos, comma == std::string::npos ? std::string::npos
                                                   : comma - pos);
    if (!name.empty()) {
      (void)solver(name);  // throws with the registered names listed
      out.push_back(name);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::pair<std::string, std::string> split_option(const std::string& kv) {
  const std::size_t eq = kv.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("malformed option '" + kv +
                                "' (expected key=value)");
  }
  return {kv.substr(0, eq), kv.substr(eq + 1)};
}

void apply_option(const SolverSpec& spec, SolverConfig& config,
                  const std::string& kv) {
  const auto [key, raw] = split_option(kv);
  const OptionSpec* opt = spec.find_option(key);
  if (opt == nullptr) {
    std::string known;
    for (const OptionSpec& o : spec.options) {
      known += (known.empty() ? "" : ", ") + o.key;
    }
    throw std::invalid_argument("solver '" + spec.name +
                                "' has no option '" + key +
                                "' (options: " + known + ")");
  }
  auto parse_word = [&](const std::string& word) {
    try {
      std::size_t used = 0;
      const std::int64_t v = std::stoll(word, &used);
      if (used != word.size()) throw std::invalid_argument(word);
      return v;
    } catch (const std::exception&) {
      throw std::invalid_argument("solver '" + spec.name + "': option " +
                                  key + " expects an integer, got '" +
                                  word + "'");
    }
  };
  if (!opt->is_list) {
    config.set(key, parse_word(raw));
    return;
  }
  std::vector<std::int64_t> words;
  std::size_t pos = 0;
  while (pos <= raw.size()) {
    const std::size_t comma = raw.find(',', pos);
    const std::string word =
        raw.substr(pos, comma == std::string::npos ? std::string::npos
                                                   : comma - pos);
    if (!word.empty()) words.push_back(parse_word(word));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  config.set(key, std::move(words));
}

// ---------------------------------------------------------------------------
// Instance preparation.
// ---------------------------------------------------------------------------

void prepare_instance(graph::Tree& tree, unsigned needs,
                      std::uint64_t seed) {
  if ((needs & kNeedShuffledIds) != 0) {
    graph::assign_ids(tree, graph::IdScheme::kShuffled,
                      splitmix64(seed ^ 0x1d5a110c5eedULL));
  }
  if ((needs & kNeedWeightInputs) != 0) {
    // Definition-22 marking: the shallow half of each component is the
    // active skeleton, the deep half the weight trees hanging off it —
    // the paper's construction shape, induced on an arbitrary family
    // instance. Deterministic in topology alone.
    mark_by_depth(tree, [&](NodeId, NodeId v, int depth, int max_depth) {
      const bool weight = depth > max_depth / 2;
      tree.set_input(v, static_cast<int>(
                            weight ? graph::WeightInput::kWeight
                                   : graph::WeightInput::kActive));
    });
  }
  if ((needs & kNeedDFreeInputs) != 0) {
    // Section-7 marking: component roots are input-A (so the instance
    // is never A-free), plus a sparse seeded sprinkle; everything else
    // is plain weight.
    mark_by_depth(tree, [&](NodeId root, NodeId v, int, int) {
      const bool is_a =
          v == root ||
          splitmix64(seed * 0x9e3779b97f4a7c15ULL +
                     static_cast<std::uint64_t>(v)) %
                  16 ==
              0;
      tree.set_input(v, static_cast<int>(is_a ? problems::DFreeInput::kA
                                              : problems::DFreeInput::kW));
    });
  }
}

// ---------------------------------------------------------------------------
// Uniform execution.
// ---------------------------------------------------------------------------

SolverRun run_registered(const SolverSpec& spec, const graph::Tree& tree,
                         SolverConfig config, std::int64_t max_rounds) {
  config.validate(spec);
  const std::unique_ptr<local::Program> program =
      spec.factory(tree, config);
  // Reuses this thread's shared workspace; certify runs after the
  // engine run completes, so helpers that spin up their own engines
  // never nest inside it.
  local::Engine engine(tree);
  SolverRun out;
  out.stats = engine.run(*program, local::tls_workspace(), max_rounds);
  // A truncated run is measured, not certified (partial outputs are not
  // checkable).
  out.verdict = out.stats.truncated
                    ? problems::CheckResult::pass()
                    : spec.certify(tree, *program, out.stats, config);
  return out;
}

}  // namespace lcl::algo
