// Differential test between the arena engine and the frozen legacy
// baseline (bench/legacy_engine.hpp): for every registered solver on
// random Prufer / Galton-Watson instances, the solver's termination
// schedule replayed on the legacy engine must reproduce the
// node-average *bit-identically* (same sum, same division) and certify
// identically through the solver's own registry checker. This pins the
// two engines' round/termination accounting against each other — an
// off-by-one in either round numbering, T_v bookkeeping, or alive
// compaction shows up as a sum or verdict mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algo/generic_hier.hpp"
#include "algo/registry.hpp"
#include "core/experiment.hpp"
#include "core/exponents.hpp"
#include "graph/builders.hpp"
#include "graph/families.hpp"
#include "legacy_engine.hpp"
#include "local/engine.hpp"
#include "problems/checkers.hpp"
#include "problems/levels.hpp"

namespace lcl {
namespace {

/// Replays a termination schedule: node v terminates exactly in round
/// T_v (T_v == 0 during init), publishing nothing. Records the rounds
/// the legacy engine actually assigned, so the comparison reads the
/// engine's bookkeeping rather than echoing the input.
class ReplayProgram final : public bench::legacy::Program {
 public:
  explicit ReplayProgram(const std::vector<std::int64_t>& t_v)
      : t_v_(t_v), observed_(t_v.size(), -1) {}

  void on_init(bench::legacy::NodeCtx& ctx) override {
    if (t_v_[static_cast<std::size_t>(ctx.node())] == 0) {
      ctx.terminate(0);
      observed_[static_cast<std::size_t>(ctx.node())] = ctx.round();
    }
  }
  void on_round(bench::legacy::NodeCtx& ctx) override {
    if (ctx.round() >= t_v_[static_cast<std::size_t>(ctx.node())]) {
      ctx.terminate(0);
      observed_[static_cast<std::size_t>(ctx.node())] = ctx.round();
    }
  }

  [[nodiscard]] const std::vector<std::int64_t>& observed() const {
    return observed_;
  }

 private:
  const std::vector<std::int64_t>& t_v_;
  std::vector<std::int64_t> observed_;
};

struct Case {
  std::string family;
  graph::NodeId n;
  std::uint64_t seed;
};

class DifferentialSolvers
    : public ::testing::TestWithParam<std::tuple<std::string, Case>> {};

TEST_P(DifferentialSolvers, LegacyReplayMatchesBitIdentically) {
  const auto& [solver_name, c] = GetParam();
  const algo::SolverSpec& spec = algo::solver(solver_name);

  graph::Tree tree =
      graph::make_family_instance(c.family, c.n, c.seed, /*delta=*/3);
  algo::prepare_instance(tree, spec.needs, c.seed);

  algo::SolverConfig config;
  config.seed = c.seed;
  config.validate(spec);

  // Modern run (the same sequence run_registered performs, kept inline
  // so the program stays alive for the certify calls below).
  const std::unique_ptr<local::Program> program =
      spec.factory(tree, config);
  local::Engine engine(tree);
  const local::RunStats modern = engine.run(*program);
  ASSERT_FALSE(modern.truncated);
  const problems::CheckResult modern_verdict =
      spec.certify(tree, *program, modern, config);

  // Visits: per-node dispatch calls every alive node every round, so it
  // makes exactly sum_v T_v callbacks; the default (batch) dispatch
  // skips sleepers and makes at most that many, for the same schedule.
  const std::unique_ptr<local::Program> pernode_program =
      spec.factory(tree, config);
  local::Engine pernode_engine(tree, local::DispatchMode::kPerNode);
  const local::RunStats pernode = pernode_engine.run(*pernode_program);
  EXPECT_EQ(pernode.termination_round, modern.termination_round);
  EXPECT_EQ(pernode.visits, pernode.total_rounds);
  EXPECT_LE(modern.visits, modern.total_rounds);

  // Legacy replay of the identical schedule.
  ReplayProgram replay(modern.termination_round);
  bench::legacy::Engine legacy(tree);
  const bench::legacy::RunStats legacy_stats =
      legacy.run(replay, modern.worst_case + 2);

  // Bit-identical accounting: same executed rounds, same sum of T_v,
  // and therefore the same node-average down to the last ulp.
  EXPECT_EQ(legacy_stats.rounds, modern.rounds);
  EXPECT_EQ(legacy_stats.total_rounds, modern.total_rounds);
  const double legacy_na =
      static_cast<double>(legacy_stats.total_rounds) /
      static_cast<double>(modern.n);
  EXPECT_EQ(legacy_na, modern.node_averaged);

  // The legacy engine must have terminated every node in exactly the
  // round the modern engine recorded.
  EXPECT_EQ(replay.observed(), modern.termination_round);

  // Certify identically: the solver's own checker graded on the legacy
  // engine's termination rounds (with the modern outputs, which the
  // legacy baseline does not store) must return the same verdict.
  local::RunStats synthetic = modern;
  synthetic.termination_round = replay.observed();
  const problems::CheckResult legacy_verdict =
      spec.certify(tree, *program, synthetic, config);
  EXPECT_EQ(legacy_verdict.ok, modern_verdict.ok);
  EXPECT_EQ(legacy_verdict.reason, modern_verdict.reason);
  EXPECT_TRUE(modern_verdict.ok) << modern_verdict.reason;
}

std::vector<std::string> differential_solvers() {
  // Every registered solver; both families are plain trees, so the
  // compatibility predicate only needs to hold for the *family*
  // registry entries (delta is pinned to 3 by the instance builder).
  return algo::solver_names();
}

INSTANTIATE_TEST_SUITE_P(
    RegistryOnRandomTrees, DifferentialSolvers,
    ::testing::Combine(
        ::testing::ValuesIn(differential_solvers()),
        ::testing::Values(Case{"prufer", 420, 17},
                          Case{"galton_watson", 420, 23})),
    [](const ::testing::TestParamInfo<DifferentialSolvers::ParamType>&
           info) {
      return std::get<0>(info.param) + "_" +
             std::get<1>(info.param).family + "_" +
             std::to_string(std::get<1>(info.param).seed);
    });

// Seeded three-way dispatch fuzz: every registered solver on freshly
// sampled random families, run under BOTH dispatch modes. Per-node
// dispatch, which visits every alive node every round, and the
// sleep-honouring dispatch must agree *bit-identically* (rounds,
// termination schedule, outputs, node-average down to the ulp) and
// certify identically through the solver's own checker, and the shared
// schedule must replay bit-identically on the frozen legacy engine.
// This is the contract that lets DispatchMode::kAuto honour sleep: a
// program whose visit during a sleep is not a no-op fails here on the
// exact (solver, family, seed) triple.
TEST(DifferentialFuzz, PerNodeBatchLegacyAgreeOnRandomFamilies) {
  const std::vector<std::string> families = {"prufer", "galton_watson",
                                             "caterpillar", "spider"};
  std::uint64_t seed = 0xD15BA7C4ED;
  for (int iter = 0; iter < 6; ++iter) {
    const std::string& family = families[static_cast<std::size_t>(iter) %
                                         families.size()];
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto n = static_cast<graph::NodeId>(64 + (seed >> 32) % 300);

    for (const std::string& solver_name : algo::solver_names()) {
      SCOPED_TRACE("solver=" + solver_name + " family=" + family +
                   " n=" + std::to_string(n) +
                   " seed=" + std::to_string(seed));
      const algo::SolverSpec& spec = algo::solver(solver_name);
      graph::Tree tree =
          graph::make_family_instance(family, n, seed, /*delta=*/3);
      algo::prepare_instance(tree, spec.needs, seed);
      algo::SolverConfig config;
      config.seed = seed;
      config.validate(spec);

      // One frozen instance, two dispatch modes. Each mode gets
      // its own program instance so seeded per-node state is regenerated
      // identically rather than shared.
      const std::unique_ptr<local::Program> pernode_program =
          spec.factory(tree, config);
      local::Engine pernode_engine(tree, local::DispatchMode::kPerNode);
      const local::RunStats pernode_stats =
          pernode_engine.run(*pernode_program);

      const std::unique_ptr<local::Program> batch_program =
          spec.factory(tree, config);
      local::Engine batch_engine(tree, local::DispatchMode::kBatch);
      const local::RunStats batch_stats =
          batch_engine.run(*batch_program);

      ASSERT_FALSE(pernode_stats.truncated);
      EXPECT_EQ(pernode_stats.rounds, batch_stats.rounds);
      EXPECT_EQ(pernode_stats.total_rounds, batch_stats.total_rounds);
      EXPECT_EQ(pernode_stats.node_averaged, batch_stats.node_averaged);
      EXPECT_EQ(pernode_stats.termination_round,
                batch_stats.termination_round);
      EXPECT_EQ(pernode_stats.primaries(), batch_stats.primaries());
      EXPECT_EQ(pernode_stats.secondaries(), batch_stats.secondaries());

      // Certify identically through the solver's own checker binding
      // (each verdict graded against the program instance that produced
      // the run).
      const problems::CheckResult pernode_verdict =
          spec.certify(tree, *pernode_program, pernode_stats, config);
      const problems::CheckResult batch_verdict =
          spec.certify(tree, *batch_program, batch_stats, config);
      EXPECT_EQ(pernode_verdict.ok, batch_verdict.ok);
      EXPECT_EQ(pernode_verdict.reason, batch_verdict.reason);
      EXPECT_TRUE(pernode_verdict.ok) << pernode_verdict.reason;

      // And the schedule both contracts produced replays bit-identically
      // on the frozen legacy oracle.
      ReplayProgram replay(pernode_stats.termination_round);
      bench::legacy::Engine legacy(tree);
      const bench::legacy::RunStats legacy_stats =
          legacy.run(replay, pernode_stats.worst_case + 2);
      EXPECT_EQ(legacy_stats.rounds, pernode_stats.rounds);
      EXPECT_EQ(legacy_stats.total_rounds, pernode_stats.total_rounds);
      EXPECT_EQ(replay.observed(), pernode_stats.termination_round);
    }
  }
}

// Dedicated heavy generic_hier case: the registry fuzz above only drives
// solvers at their default configs, so the k-hierarchical program's
// interesting machinery — the Exempt rules between phases, multi-gamma
// wave schedules, the level-k Cole-Vishkin reduction with a virtual-log*
// pad — never fires there. Here both variants run at k = 2 and k = 3
// with explicit gamma profiles on structured lower-bound instances and
// random trees. Batch dispatch runs the same per-node body, skipping
// the nodes that sleep; the two dispatch modes must agree
// bit-identically, the per-node run must hit the pinned totals (sum T_v,
// rounds, worst case), the coloring must pass the paper's hierarchical
// checker, and the shared schedule must replay bit-identically on the
// frozen legacy engine.
TEST(DifferentialFuzz, GenericHierHeavyPerNodeBatchLegacyAgree) {
  struct HierCase {
    std::string label;
    graph::Tree tree;
    problems::Variant variant;
    int k;
    std::vector<std::int64_t> gammas;
    std::int64_t pad;
    std::int64_t sum_t;  ///< pinned sum_v T_v
    std::int64_t rounds;
    std::int64_t worst;
  };
  std::vector<HierCase> cases;
  cases.push_back({"lower_bound_25_k2",
                   graph::make_hierarchical_lower_bound({6, 40}).tree,
                   problems::Variant::kTwoHalf, 2, {5}, 0, 3000, 53, 53});
  cases.push_back({"lower_bound_35_k3",
                   graph::make_hierarchical_lower_bound({5, 6, 14}).tree,
                   problems::Variant::kThreeHalf, 3, {4, 4}, 60, 5662, 89,
                   89});
  cases.push_back({"random_25_k3", graph::make_random_tree(520, 4, 77),
                   problems::Variant::kTwoHalf, 3, {4, 8}, 0, 988, 31, 31});
  cases.push_back({"random_35_k2", graph::make_random_tree(480, 4, 91),
                   problems::Variant::kThreeHalf, 2, {6}, 40, 875, 5, 5});

  std::uint64_t id_seed = 1337;
  for (HierCase& c : cases) {
    SCOPED_TRACE("case=" + c.label + " k=" + std::to_string(c.k));
    graph::assign_ids(c.tree, graph::IdScheme::kShuffled, id_seed++);
    const std::vector<int> levels = problems::compute_levels(c.tree, c.k);

    algo::GenericOptions options;
    options.variant = c.variant;
    options.k = c.k;
    options.gammas = c.gammas;
    options.symmetry_pad = c.pad;

    algo::GenericHierProgram pernode_program(c.tree, options, levels);
    local::Engine pernode_engine(c.tree, local::DispatchMode::kPerNode);
    const local::RunStats pernode_stats =
        pernode_engine.run(pernode_program);

    algo::GenericHierProgram batch_program(c.tree, options, levels);
    local::Engine batch_engine(c.tree, local::DispatchMode::kBatch);
    const local::RunStats batch_stats = batch_engine.run(batch_program);

    ASSERT_FALSE(pernode_stats.truncated);
    EXPECT_EQ(pernode_stats.total_rounds, c.sum_t);
    // Batch dispatch honours the program's sleeps: strictly fewer
    // callbacks than the per-node sum_v T_v for the same schedule.
    EXPECT_EQ(pernode_stats.visits, c.sum_t);
    EXPECT_LT(batch_stats.visits, c.sum_t);
    EXPECT_EQ(pernode_stats.rounds, c.rounds);
    EXPECT_EQ(pernode_stats.worst_case, c.worst);
    EXPECT_EQ(pernode_stats.rounds, batch_stats.rounds);
    EXPECT_EQ(pernode_stats.total_rounds, batch_stats.total_rounds);
    EXPECT_EQ(pernode_stats.node_averaged, batch_stats.node_averaged);
    EXPECT_EQ(pernode_stats.termination_round,
              batch_stats.termination_round);
    EXPECT_EQ(pernode_stats.primaries(), batch_stats.primaries());
    EXPECT_EQ(pernode_stats.secondaries(), batch_stats.secondaries());

    // Both runs produced the same output; grade it once through the
    // paper's own checker.
    const problems::CheckResult verdict =
        problems::check_hierarchical_coloring(c.tree, c.k, c.variant,
                                              pernode_stats.primaries());
    EXPECT_TRUE(verdict.ok) << verdict.reason;

    // And the shared schedule replays bit-identically on the frozen
    // legacy oracle.
    ReplayProgram replay(pernode_stats.termination_round);
    bench::legacy::Engine legacy(c.tree);
    const bench::legacy::RunStats legacy_stats =
        legacy.run(replay, pernode_stats.worst_case + 2);
    EXPECT_EQ(legacy_stats.rounds, pernode_stats.rounds);
    EXPECT_EQ(legacy_stats.total_rounds, pernode_stats.total_rounds);
    EXPECT_EQ(replay.observed(), pernode_stats.termination_round);
  }
}

// The three weighted wrappers sleep at their waits: weight nodes until
// their planned round or their flood, active nodes through the generic
// algorithm's phases. On small copies of the paper's own weighted
// constructions (where those waits are most of sum_v T_v), per-node
// dispatch — which ignores the hint — and batch dispatch must agree
// bit-identically and certify, and batch must make far fewer calls.
TEST(DifferentialFuzz, WeightedWrappersPerNodeBatchAgreeOnPaperInstances) {
  struct WeightedCase {
    std::string solver;
    graph::WeightedInstance inst;
    algo::SolverConfig config;
  };
  std::vector<WeightedCase> cases;
  // Pi^{3.5} (Theorem 5) at k = 2 and k = 3, Lambda-padded.
  for (const auto [k, lambda] : {std::pair{2, 192}, std::pair{3, 64}}) {
    const auto ell = core::lower_bound_lengths(
        core::alpha_profile_logstar(core::efficiency_x_prime(6, 3), k),
        static_cast<double>(lambda), 3000);
    WeightedCase c{"pi35", graph::make_weighted_construction(ell, 6), {}};
    c.config.set("k", k);
    c.config.set("d", 3);
    c.config.set("gammas", core::decline_gammas(c.inst.skeleton_lengths, k));
    c.config.set("symmetry_pad", lambda);
    cases.push_back(std::move(c));
  }
  {  // Pi^{2.5} through A_poly (Theorem 2).
    const auto ell = core::lower_bound_lengths(
        core::alpha_profile_poly(core::efficiency_x(5, 2), 3), 3000.0, 3000);
    WeightedCase c{"apoly", graph::make_weighted_construction(ell, 5), {}};
    c.config.set("k", 3);
    c.config.set("d", 2);
    c.config.set("gammas", core::decline_gammas(c.inst.skeleton_lengths, 3));
    cases.push_back(std::move(c));
  }
  {  // Weight-augmented 2.5-coloring (Lemma 69).
    WeightedCase c{"weight_aug",
                   graph::make_weighted_construction({30, 30}, 5), {}};
    c.config.set("k", 2);
    cases.push_back(std::move(c));
  }

  std::uint64_t id_seed = 4242;
  for (WeightedCase& c : cases) {
    SCOPED_TRACE(c.solver + " n=" + std::to_string(c.inst.tree.size()));
    graph::assign_ids(c.inst.tree, graph::IdScheme::kShuffled, id_seed++);
    const algo::SolverSpec& spec = algo::solver(c.solver);
    c.config.validate(spec);

    const auto pernode_program = spec.factory(c.inst.tree, c.config);
    local::Engine pernode_engine(c.inst.tree, local::DispatchMode::kPerNode);
    const local::RunStats pernode = pernode_engine.run(*pernode_program);
    const auto batch_program = spec.factory(c.inst.tree, c.config);
    local::Engine batch_engine(c.inst.tree, local::DispatchMode::kBatch);
    const local::RunStats batch = batch_engine.run(*batch_program);

    ASSERT_FALSE(pernode.truncated);
    EXPECT_EQ(pernode.rounds, batch.rounds);
    EXPECT_EQ(pernode.termination_round, batch.termination_round);
    EXPECT_EQ(pernode.primaries(), batch.primaries());
    EXPECT_EQ(pernode.secondaries(), batch.secondaries());
    EXPECT_EQ(pernode.visits, pernode.total_rounds);
    EXPECT_LT(2 * batch.visits, pernode.visits);
    const problems::CheckResult verdict =
        spec.certify(c.inst.tree, *batch_program, batch, c.config);
    EXPECT_TRUE(verdict.ok) << verdict.reason;
  }
}

// The standalone wrappers and distributed programs that sleep at their
// waits: d-free Algorithm A, the hierarchical labeling and the generic
// black-white solver until their charge round, level peeling until
// round k + 1, and the decomposition's non-chain nodes through each
// compress step. On fixed instances the
// default dispatch must make strictly fewer callbacks than sum_v T_v
// while reproducing the per-node run's schedule and outputs.
TEST(DifferentialFuzz, SleepingProgramsVisitLessThanSumT) {
  for (const std::string solver_name :
       {"dfree_a", "hier_labeling", "level_peeling", "rake_compress",
        "bw_generic"}) {
    SCOPED_TRACE("solver=" + solver_name);
    const algo::SolverSpec& spec = algo::solver(solver_name);
    graph::Tree tree =
        graph::make_family_instance("prufer", 400, 29, /*delta=*/3);
    algo::prepare_instance(tree, spec.needs, 29);
    algo::SolverConfig config;
    config.seed = 29;
    config.validate(spec);

    const auto pernode_program = spec.factory(tree, config);
    local::Engine pernode_engine(tree, local::DispatchMode::kPerNode);
    const local::RunStats pernode = pernode_engine.run(*pernode_program);
    const auto default_program = spec.factory(tree, config);
    local::Engine default_engine(tree);
    const local::RunStats by_default = default_engine.run(*default_program);

    ASSERT_FALSE(pernode.truncated);
    EXPECT_EQ(pernode.total_rounds, by_default.total_rounds);
    EXPECT_EQ(pernode.rounds, by_default.rounds);
    EXPECT_EQ(pernode.termination_round, by_default.termination_round);
    EXPECT_EQ(pernode.primaries(), by_default.primaries());
    EXPECT_EQ(pernode.secondaries(), by_default.secondaries());
    EXPECT_EQ(pernode.visits, pernode.total_rounds);
    EXPECT_LT(by_default.visits, by_default.total_rounds);
    const problems::CheckResult verdict =
        spec.certify(tree, *default_program, by_default, config);
    EXPECT_TRUE(verdict.ok) << verdict.reason;
  }
}

}  // namespace
}  // namespace lcl
