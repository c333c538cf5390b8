// E9 — Theorem 7 (Section 11): there is no LCL with deterministic
// node-averaged complexity in omega(1)..(log* n)^{o(1)}, and membership
// in O(1) is decidable. The decision procedure = testing procedure
// (Algorithm 1 machinery, Definitions 73/74) + the constant-good check
// on the induced compress problems (Definitions 77/80, Lemma 81).
//
// This scenario runs the decision procedure on a zoo of path-form LCLs
// and prints, for each: solvability, the worst compress-problem class,
// the constant-good verdict, and the implied node-averaged class per the
// Theorem-7 dichotomy. It then cross-checks two verdicts against the
// simulator: the 3-coloring compress problem really costs ~log* rounds,
// and the free problem really costs O(1).
#include <cstdio>

#include "algo/registry.hpp"
#include "bw/constant_good.hpp"
#include "bw/label_sets.hpp"
#include "bw/path_lcl.hpp"
#include "graph/builders.hpp"
#include "problems/checkers.hpp"
#include "scenario.hpp"

namespace {

using namespace lcl;

void report_lcl(const bw::PathLcl& lcl) {
  const auto t = bw::testing_procedure(lcl);
  const auto v = bw::decide_constant_good(lcl);
  std::printf("  %-22s %-10s %-14s %-14s %s\n", lcl.name.c_str(),
              v.solvable ? "solvable" : "unsolvable",
              bw::to_string(v.worst_compress).c_str(),
              v.constant_good ? "constant-good" : "needs split",
              v.node_averaged_class.c_str());
  std::printf("  %-22s   label-sets explored: %zu, empty found: %s\n", "",
              t.seen.size(), t.good ? "no" : "yes");
}

}  // namespace

namespace lcl::bench {

void run_thm7_decidability(ScenarioContext& ctx) {
  std::printf("== E9: Theorem 7 — the omega(1)..(log* n)^{o(1)} gap & "
              "decidability ==\n\n");
  std::printf("  %-22s %-10s %-14s %-14s %s\n", "problem", "status",
              "compress cls", "f_Pi,inf", "node-averaged class");
  report_lcl(bw::make_free_lcl(3));
  report_lcl(bw::make_three_coloring_lcl());
  report_lcl(bw::make_two_coloring_lcl());
  report_lcl(bw::make_unsolvable_lcl());

  std::printf("\nSimulator cross-checks:\n");
  const auto n = static_cast<graph::NodeId>(ctx.scaled(20000));
  {
    graph::Tree t = graph::make_path(n);
    graph::assign_ids(t, graph::IdScheme::kShuffled, 3);
    algo::SolverConfig cfg;
    cfg.set("k", 1);
    const auto stats =
        algo::run_registered(algo::solver("generic_hier_35"), t, cfg).stats;
    std::printf("  3-coloring (not constant-good): node-avg %.2f on "
                "n=%d — Theta(log*)-sized, not O(1)\n",
                stats.node_averaged, n);
    ctx.metric("three_coloring_node_avg", stats.node_averaged);
  }
  {
    // The free problem solved by everyone outputting label 0 at once.
    class Free final : public local::Program {
     public:
      void on_init(local::NodeCtx& ctx) override { ctx.terminate(0); }
      void on_round(local::NodeCtx&) override {}
    };
    graph::Tree t = graph::make_path(n);
    local::Engine e(t);
    Free p;
    const auto stats = e.run(p);
    std::printf("  free LCL (constant-good): node-avg %.2f — O(1) as "
                "decided\n",
                stats.node_averaged);
    ctx.metric("free_lcl_node_avg", stats.node_averaged);
  }
  std::printf(
      "\nDichotomy (Theorem 7): constant-good => O(1) node-averaged;\n"
      "otherwise the compress paths must be split at Theta(log* n) cost\n"
      "and nothing lies in omega(1)..(log* n)^{o(1)}.\n");
}

}  // namespace lcl::bench
