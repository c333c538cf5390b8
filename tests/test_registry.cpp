// Algorithm registry: every registered solver must run on a small
// instance of every compatible family through the one uniform code path
// (prepare -> factory -> Engine -> certify), produce a check-ok verdict,
// and reproduce bit-identically under the same seed (catching solvers
// whose determinism depends on hidden state). Plus the typed option
// machinery: defaults, ranges, clear errors, CLI parsing, and the
// make_solver_job composition.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "core/batch.hpp"
#include "graph/families.hpp"
#include "graph/tree.hpp"
#include "local/engine.hpp"

namespace lcl {
namespace {

using graph::NodeId;
using graph::Tree;

struct Cell {
  std::string solver;
  std::string family;
};

std::string cell_name(const testing::TestParamInfo<Cell>& info) {
  return info.param.solver + "_on_" + info.param.family;
}

std::vector<Cell> all_compatible_cells() {
  std::vector<Cell> cells;
  for (const algo::SolverSpec& s : algo::registry()) {
    for (const graph::Family& f : graph::all_families()) {
      if (s.compatible(f)) cells.push_back({s.name, f.name});
    }
  }
  return cells;
}

/// One full registry run on a small instance; returns stats + verdict.
algo::SolverRun run_cell(const Cell& cell, std::uint64_t seed) {
  const algo::SolverSpec& spec = algo::solver(cell.solver);
  Tree t = graph::make_family_instance(cell.family, /*n=*/120, seed);
  algo::prepare_instance(t, spec.needs, seed);
  algo::SolverConfig cfg;
  cfg.seed = seed;
  return algo::run_registered(spec, t, cfg, /*max_rounds=*/100000);
}

class RegistryMatrix : public testing::TestWithParam<Cell> {};

TEST_P(RegistryMatrix, CertifiesAndRerunsDeterministically) {
  const Cell cell = GetParam();
  const algo::SolverRun first = run_cell(cell, /*seed=*/11);

  ASSERT_FALSE(first.stats.truncated) << cell.solver << " on "
                                      << cell.family << " hit max_rounds";
  EXPECT_TRUE(first.verdict.ok)
      << cell.solver << " on " << cell.family << ": "
      << first.verdict.reason;
  EXPECT_EQ(first.stats.unterminated, 0);

  // Same seed, fresh everything: outputs and per-node termination
  // rounds must reproduce exactly. A mismatch means the solver's
  // behavior depends on hidden state (uninitialized scratch, global
  // RNG, iteration over an unordered container, ...).
  const algo::SolverRun again = run_cell(cell, /*seed=*/11);
  ASSERT_EQ(first.stats.n, again.stats.n);
  EXPECT_EQ(first.stats.termination_round, again.stats.termination_round);
  for (std::size_t v = 0; v < first.stats.output.size(); ++v) {
    EXPECT_EQ(first.stats.output[v].primary, again.stats.output[v].primary)
        << "node " << v;
    EXPECT_EQ(first.stats.output[v].secondary,
              again.stats.output[v].secondary)
        << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSolversAllFamilies, RegistryMatrix,
                         testing::ValuesIn(all_compatible_cells()),
                         cell_name);

TEST(Registry, EveryAlgorithmIsRegistered) {
  const std::vector<std::string> names = algo::solver_names();
  const std::set<std::string> have(names.begin(), names.end());
  for (const char* required :
       {"generic_hier_25", "generic_hier_35", "apoly", "pi35",
        "weight_aug", "hier_labeling", "dfree_a", "rake_compress",
        "level_peeling", "random_coloring"}) {
    EXPECT_TRUE(have.count(required)) << "missing solver " << required;
  }
  EXPECT_GE(names.size(), 10u);
  for (const algo::SolverSpec& s : algo::registry()) {
    EXPECT_TRUE(static_cast<bool>(s.factory)) << s.name;
    EXPECT_TRUE(static_cast<bool>(s.certify)) << s.name;
    EXPECT_TRUE(static_cast<bool>(s.compatible)) << s.name;
    EXPECT_FALSE(s.problem.empty()) << s.name;
    EXPECT_FALSE(s.theorem.empty()) << s.name;
  }
}

TEST(Registry, LookupAndParsing) {
  EXPECT_EQ(algo::find_solver("apoly"), &algo::solver("apoly"));
  EXPECT_EQ(algo::find_solver("nope"), nullptr);
  EXPECT_THROW((void)algo::solver("nope"), std::invalid_argument);

  EXPECT_EQ(algo::parse_solver_list("all"), algo::solver_names());
  EXPECT_EQ(algo::parse_solver_list(""), algo::solver_names());
  const auto two = algo::parse_solver_list("pi35,weight_aug");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], "pi35");
  EXPECT_EQ(two[1], "weight_aug");
  EXPECT_THROW((void)algo::parse_solver_list("pi35,bogus"),
               std::invalid_argument);
}

TEST(Registry, ConfigValidationIsStrictAndClear) {
  const algo::SolverSpec& spec = algo::solver("apoly");

  // Defaults fill in; scalars resolve.
  algo::SolverConfig ok;
  ok.validate(spec);
  EXPECT_EQ(ok.get("k"), 2);
  EXPECT_EQ(ok.get("d"), 2);
  EXPECT_EQ(ok.get("naive_all_copy"), 0);

  // Out-of-range k: a clear error naming solver, key, value, range —
  // no silent clamping.
  algo::SolverConfig bad_k;
  bad_k.set("k", 0);
  try {
    bad_k.validate(spec);
    FAIL() << "k=0 accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("apoly"), std::string::npos) << what;
    EXPECT_NE(what.find("k=0"), std::string::npos) << what;
    EXPECT_NE(what.find("[1, 8]"), std::string::npos) << what;
  }

  // Unknown option names the valid ones.
  algo::SolverConfig unknown;
  unknown.set("gama", 3);
  try {
    unknown.validate(spec);
    FAIL() << "unknown option accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gama"), std::string::npos) << what;
    EXPECT_NE(what.find("gammas"), std::string::npos) << what;
  }

  // List elements are range-checked too (gamma_i >= 2).
  algo::SolverConfig bad_gamma;
  bad_gamma.set("gammas", std::vector<std::int64_t>{1});
  EXPECT_THROW(bad_gamma.validate(spec), std::invalid_argument);

  // A list value for a scalar option is rejected.
  algo::SolverConfig listed;
  listed.set("k", std::vector<std::int64_t>{2, 3});
  EXPECT_THROW(listed.validate(spec), std::invalid_argument);

  // Relational check lives in the factory: |gammas| must be k-1.
  algo::SolverConfig mismatched;
  mismatched.set("k", 3);
  mismatched.set("gammas", std::vector<std::int64_t>{4});
  mismatched.validate(spec);
  const Tree t = graph::make_family_instance("path", 32, 0);
  EXPECT_THROW((void)spec.factory(t, mismatched), std::invalid_argument);
}

TEST(Registry, CliOptionParsing) {
  const algo::SolverSpec& spec = algo::solver("generic_hier_35");

  algo::SolverConfig cfg;
  algo::apply_option(spec, cfg, "k=3");
  algo::apply_option(spec, cfg, "gammas=4,16");
  algo::apply_option(spec, cfg, "symmetry_pad=64");
  cfg.validate(spec);
  EXPECT_EQ(cfg.get("k"), 3);
  EXPECT_EQ(cfg.list("gammas"),
            (std::vector<std::int64_t>{4, 16}));
  EXPECT_EQ(cfg.get("symmetry_pad"), 64);

  EXPECT_THROW(algo::apply_option(spec, cfg, "k"), std::invalid_argument);
  EXPECT_THROW(algo::apply_option(spec, cfg, "=3"), std::invalid_argument);
  EXPECT_THROW(algo::apply_option(spec, cfg, "k=abc"),
               std::invalid_argument);
  EXPECT_THROW(algo::apply_option(spec, cfg, "bogus=1"),
               std::invalid_argument);
  EXPECT_EQ(algo::split_option("a=b").first, "a");
  EXPECT_EQ(algo::split_option("a=b").second, "b");
}

TEST(Registry, PrepareInstanceIsDeterministicAndMarksInputs) {
  const algo::SolverSpec& waug = algo::solver("weight_aug");
  Tree a = graph::make_family_instance("prufer", 200, /*seed=*/5);
  Tree b = graph::make_family_instance("prufer", 200, /*seed=*/5);
  algo::prepare_instance(a, waug.needs, /*seed=*/9);
  algo::prepare_instance(b, waug.needs, /*seed=*/9);
  int weight_nodes = 0;
  for (NodeId v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a.local_id(v), b.local_id(v));
    EXPECT_EQ(a.input(v), b.input(v));
    weight_nodes +=
        a.input(v) == static_cast<int>(graph::WeightInput::kWeight);
  }
  // The depth-based marking yields a genuine two-sided instance.
  EXPECT_GT(weight_nodes, 0);
  EXPECT_LT(weight_nodes, a.size());
  a.validate_ids();

  // d-free marking: at least the component root is input-A.
  const algo::SolverSpec& dfree = algo::solver("dfree_a");
  Tree c = graph::make_family_instance("dary", 100, /*seed=*/1);
  algo::prepare_instance(c, dfree.needs, /*seed=*/2);
  int a_nodes = 0;
  for (NodeId v = 0; v < c.size(); ++v) {
    a_nodes += c.input(v) == static_cast<int>(problems::DFreeInput::kA);
  }
  EXPECT_GE(a_nodes, 1);
  EXPECT_LT(a_nodes, c.size());
}

TEST(Registry, MakeSolverJobEndToEnd) {
  algo::SolverConfig cfg;
  cfg.set("k", 2);
  core::BatchJob job = core::make_solver_job(
      "waug-prufer", /*scale=*/150.0, /*seed=*/77,
      algo::solver("weight_aug"), cfg, "prufer", /*n=*/150, /*delta=*/0);
  const core::MeasuredRun run = job.run(job.seed);
  EXPECT_EQ(run.status, core::RunStatus::kOk) << run.check_reason;
  EXPECT_GT(run.n, 0);
  EXPECT_GE(run.build_ms, 0.0);
  EXPECT_GT(run.term.total(), 0);

  // Misconfiguration fails at construction, not on a worker thread.
  algo::SolverConfig bad;
  bad.set("k", 99);
  const algo::SolverSpec& waug = algo::solver("weight_aug");
  EXPECT_THROW(
      (void)core::make_solver_job("x", 1.0, 0, waug, bad, "path", 64, 0),
      std::invalid_argument);
  EXPECT_THROW((void)core::make_solver_job(
                   "x", 1.0, 0, algo::solver("no_such_solver"), {}, "path",
                   64, 0),
               std::invalid_argument);
  EXPECT_THROW((void)core::make_solver_job("x", 1.0, 0, waug, {},
                                           "no_such_family", 64, 0),
               std::invalid_argument);
}

// Regression pin for a checker bug the solver matrix surfaced:
// check_weight_augmented carried per-port orientations into the induced
// weight subgraph in the *parent's* port order, but induced_subgraph
// fills each node's CSR range in global edge-insertion order. BFS-built
// paper instances happen to agree (parent-first ports), Prüfer trees do
// not — the checker then read the orientation of the wrong edge and
// rejected a valid weight-augmented solution. This is the exact
// instance the matrix first failed on.
TEST(Registry, WeightAugCertifiesOnArbitraryPortOrder) {
  const algo::SolverSpec& spec = algo::solver("weight_aug");
  // The solver_matrix cell seed for weight_aug @ prufer at n = 500.
  const std::uint64_t seed =
      core::stable_name_seed("weight_aug@prufer") + 500;
  Tree t = graph::make_family_instance("prufer", 500, seed);
  algo::prepare_instance(t, spec.needs, seed);
  algo::SolverConfig cfg;
  const auto run = algo::run_registered(spec, t, cfg);
  EXPECT_TRUE(run.verdict.ok) << run.verdict.reason;
}

TEST(Registry, RngSolverVariesWithSeedButNotHiddenState) {
  // Different seeds give different runs (the rng need is real)...
  const algo::SolverSpec& spec = algo::solver("random_coloring");
  Tree t = graph::make_family_instance("path", 200, /*seed=*/3);
  algo::prepare_instance(t, spec.needs, /*seed=*/3);
  algo::SolverConfig c1;
  c1.seed = 1;
  algo::SolverConfig c2;
  c2.seed = 2;
  const auto r1 = algo::run_registered(spec, t, c1);
  const auto r2 = algo::run_registered(spec, t, c2);
  EXPECT_TRUE(r1.verdict.ok);
  EXPECT_TRUE(r2.verdict.ok);
  EXPECT_NE(r1.stats.termination_round, r2.stats.termination_round);
}

/// Terminates every node at init: its run allocates exactly what the
/// workspace's prepare(n) does.
class SilentProgram final : public local::Program {
 public:
  void on_init(local::NodeCtx& ctx) override { ctx.terminate(0); }
  void on_round(local::NodeCtx&) override {}
};

// The engine's register planes start at Workspace::kInitialCap words
// per node and double when a publish is wider. No in-tree program may
// need that: a growth doubles the two largest per-node arrays of the
// run. Every solver runs on every compatible family in a fresh
// workspace, which must allocate exactly what preparing the same n
// does.
TEST(Registry, NoSolverGrowsTheRegisterPlanes) {
  for (const Cell& cell : all_compatible_cells()) {
    SCOPED_TRACE(cell.solver + " on " + cell.family);
    const algo::SolverSpec& spec = algo::solver(cell.solver);
    Tree t = graph::make_family_instance(cell.family, /*n=*/120, 11);
    algo::prepare_instance(t, spec.needs, 11);
    algo::SolverConfig cfg;
    cfg.seed = 11;
    cfg.validate(spec);
    const std::unique_ptr<local::Program> program = spec.factory(t, cfg);

    local::Engine engine(t);
    local::Engine::Workspace prepared;
    SilentProgram silent;
    (void)engine.run(silent, prepared);
    local::Engine::Workspace ws;
    const local::RunStats stats =
        engine.run(*program, ws, /*max_rounds=*/100000);
    ASSERT_FALSE(stats.truncated);
    EXPECT_EQ(ws.alloc_events(), prepared.alloc_events());
  }
}

}  // namespace
}  // namespace lcl
