// problem_sweep — the problem axis of the landscape, swept end to end.
//
// Every other scenario runs a hand-picked LCL; this one samples
// `--problems` random black-white tree LCLs (problems/lclgen.hpp,
// deduplicated up to label permutation), predicts each one's landscape
// row with the decision-procedure machinery (problems/classify.hpp: the
// exact rake closure + the src/bw testing procedure and constant-good
// test), then *measures* each solvable problem through the solver
// registry: the bw_generic solver runs it on delta-3 instances of the
// chain-heavy registry families at two sizes, every run is certified by
// the independent bw checker, the node-averaged exponent is fitted, and
// the pooled measurements are classified back into the same four classes
// (classify_empirical). The headline metrics are the agreement counts:
//
//   problems_total / problems_agree / problems_disagree /
//   problems_uncertified (+ per-disagreement problem seeds)
//
// Predicted-unsolvable problems are evaluated inline (the solver modes
// on small instances, no engine runs) since an infeasible instance has
// no certifiable output. Disagreements are expected occasionally — the
// prediction reasons over *all* bounded-degree trees while the sweep
// sees sampled instances (e.g. a predicted split whose realized chain
// boundaries happen to be constant-completable) — and every one is
// listed by problem seed, in the table and in the snapshot metrics.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/bw_generic.hpp"
#include "algo/registry.hpp"
#include "core/batch.hpp"
#include "graph/families.hpp"
#include "problems/classify.hpp"
#include "problems/lclgen.hpp"
#include "scenario.hpp"

namespace lcl::bench {

namespace {

/// The families the sweep solves on: chain-heavy shapes (so compress
/// splitting is visible in the average) plus random trees, all built at
/// the table formalism's delta = 3. Filtered by --families.
std::vector<std::string> sweep_families(
    const std::vector<std::string>& selected) {
  const std::vector<std::string> preferred = {"path", "caterpillar",
                                              "prufer", "galton_watson"};
  std::vector<std::string> out;
  for (const std::string& name : preferred) {
    for (const std::string& sel : selected) {
      if (sel == name) {
        out.push_back(name);
        break;
      }
    }
  }
  // An explicit --families selection that misses every sweep family
  // still sweeps the full set: the problem axis is the point here.
  return out.empty() ? preferred : out;
}

/// Degree bound to build `family` at: shape-determined families (path:
/// degree <= 2 by construction) take no parameter, the rest are capped
/// at the table formalism's delta = 3.
int family_delta(const std::string& family) {
  const graph::Family* f = graph::find_family(family);
  return (f != nullptr && f->default_delta == 0) ? 0 : 3;
}

}  // namespace

void run_problem_sweep(ScenarioContext& ctx) {
  const int want = ctx.opts().problems;
  const std::uint64_t base_seed = ctx.opts().problem_seed;
  const std::vector<problems::BwTable> tables =
      problems::sample_problems(base_seed, want);
  const std::vector<std::string> families =
      sweep_families(ctx.opts().families);

  const auto n_small = static_cast<graph::NodeId>(ctx.scaled(4000, 64));
  const auto n_large = static_cast<graph::NodeId>(ctx.scaled(64000, 256));
  constexpr int kDelta = 3;

  std::printf(
      "== problem sweep: %zu sampled LCLs (base seed %llu), %zu "
      "families at delta %d, n in {%d, %d} ==\n\n",
      tables.size(), static_cast<unsigned long long>(base_seed),
      families.size(), kDelta, n_small, n_large);
  std::printf("  %-16s %-26s %-13s %-13s %-6s %9s %8s\n", "seed",
              "problem", "predicted", "empirical", "agree", "na@large",
              "status");

  int agree = 0;
  int disagree = 0;
  int uncertified = 0;
  int unsolvable_predicted = 0;
  std::vector<std::uint64_t> disagree_seeds;

  for (const problems::BwTable& table : tables) {
    const problems::Classification cls = problems::classify_table(table);
    problems::EmpiricalSignal signal;
    signal.n_small = n_small;
    signal.n_large = n_large;
    std::string status = "ok";
    double na_large_shown = 0.0;

    if (cls.predicted == problems::ProblemClass::kUnsolvable) {
      // No certifiable output exists on an infeasible instance, so the
      // empirical side is the solver's behavior on concrete instances:
      // the closure's own *witness tree* (the constructively infeasible
      // configuration) plus the sweep families.
      ++unsolvable_predicted;
      bool any_global = false;
      bool any_split = false;
      const problems::BwTable canon =
          problems::canonical_table(problems::strip_unused_labels(table));
      const problems::TreeTesting tt = problems::tree_testing(canon);
      if (tt.has_witness) {
        const algo::BwGenericProgram probe(tt.witness, canon);
        if (probe.mode() == algo::BwMode::kInfeasible) {
          signal.any_infeasible = true;
        }
      }
      for (const std::string& family : families) {
        const graph::Tree tree = graph::make_family_instance(
            family, std::min<graph::NodeId>(n_small, 1024),
            core::stable_name_seed("problem_sweep@" + family) ^ table.seed,
            family_delta(family));
        const algo::BwGenericProgram probe(tree, table);
        switch (probe.mode()) {
          case algo::BwMode::kInfeasible: signal.any_infeasible = true; break;
          case algo::BwMode::kGlobal: any_global = true; break;
          case algo::BwMode::kFlexibleSplit: any_split = true; break;
          case algo::BwMode::kFlexible: break;
        }
      }
      if (!signal.any_infeasible) {
        // All sampled instances dodged the witness shape; report what
        // actually ran so the disagreement is informative.
        signal.na_large = any_global ? 1e9 : (any_split ? 100.0 : 0.0);
        signal.na_small = any_global ? 1e9 / 2 : signal.na_large;
      }
      status = "inline";
    } else {
      algo::SolverConfig config;
      config.set("problem_seed", static_cast<std::int64_t>(table.seed));
      std::vector<core::BatchJob> jobs;
      for (const std::string& family : families) {
        for (const graph::NodeId n : {n_small, n_large}) {
          const std::uint64_t job_seed =
              core::stable_name_seed("problem_sweep@" + family) ^
              (table.seed + static_cast<std::uint64_t>(n));
          const std::int64_t max_rounds =
              8 * static_cast<std::int64_t>(n) + 4096;
          jobs.push_back(core::make_solver_job(
              "p" + std::to_string(table.seed) + "@" + family + "-n" +
                  std::to_string(n),
              static_cast<double>(n), job_seed, algo::solver("bw_generic"),
              config, family, n, family_delta(family), max_rounds));
        }
      }
      std::vector<core::MeasuredRun> runs = ctx.run_sweep(std::move(jobs));

      double sum_small = 0.0;
      double sum_large = 0.0;
      int cnt_small = 0;
      int cnt_large = 0;
      for (const core::MeasuredRun& r : runs) {
        if (r.ok()) {
          // `scale` carries the *requested* n (families may round the
          // actual node count to their shape grid).
          if (r.scale <= static_cast<double>(n_small) + 0.5) {
            sum_small += r.node_averaged;
            ++cnt_small;
          } else {
            sum_large += r.node_averaged;
            ++cnt_large;
          }
        } else if (r.status == core::RunStatus::kCheckFailed &&
                   r.check_reason.find("infeasible") != std::string::npos) {
          signal.any_infeasible = true;
        } else {
          ++uncertified;
          status = core::to_string(r.status);
        }
      }
      if (cnt_small > 0) signal.na_small = sum_small / cnt_small;
      if (cnt_large > 0) signal.na_large = sum_large / cnt_large;
      na_large_shown = signal.na_large;

      // One series per problem; the snapshot carries the fitted
      // node-averaged exponent and every certified sample.
      ctx.record("problem_sweep: p" + std::to_string(table.seed), "n",
                 0.0, 1.0, std::move(runs));
    }

    const problems::ProblemClass empirical =
        problems::classify_empirical(signal);
    const bool match = empirical == cls.predicted;
    agree += match ? 1 : 0;
    disagree += match ? 0 : 1;
    if (!match) disagree_seeds.push_back(table.seed);

    std::printf("  %-16llu %-26.26s %-13s %-13s %-6s %9.2f %8s\n",
                static_cast<unsigned long long>(table.seed),
                table.name.c_str(),
                problems::to_string(cls.predicted).c_str(),
                problems::to_string(empirical).c_str(),
                match ? "yes" : "NO", na_large_shown, status.c_str());
  }

  ctx.metric("problems_total", static_cast<double>(tables.size()));
  ctx.metric("problems_agree", static_cast<double>(agree));
  ctx.metric("problems_disagree", static_cast<double>(disagree));
  ctx.metric("problems_uncertified", static_cast<double>(uncertified));
  ctx.metric("problems_unsolvable_predicted",
             static_cast<double>(unsolvable_predicted));
  // Disagreements listed by problem seed (sub-seeds are 53-bit by
  // construction, so the doubles below are exact).
  for (std::size_t i = 0; i < disagree_seeds.size(); ++i) {
    ctx.metric("disagree_" + std::to_string(i) + "_seed",
               static_cast<double>(disagree_seeds[i]));
  }

  std::printf(
      "\n  %d/%zu problems agree (%d disagree, %d uncertified runs, "
      "%d predicted unsolvable)\n\n",
      agree, tables.size(), disagree, uncertified,
      unsolvable_predicted);
}

}  // namespace lcl::bench
