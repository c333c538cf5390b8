// solver_matrix — the full algorithm × family cross-product.
//
// The landscape experiments (E1..E14) each pin one solver to one paper
// construction; this scenario is the registry's combinatorial
// complement: every solver selected by --algos runs on every compatible
// instance family selected by --families, through the one uniform code
// path (`core::make_solver_job`: family build, declared input
// preparation, registry factory, certification by the solver's own
// checker binding). Every cell is certified — a check_failed anywhere is
// a solver bug on a shape the hand-wired scenarios never exercised —
// and reports node-averaged vs worst-case rounds side by side, the gap
// the paper's landscape classifies. --algo-opt key=value overrides
// apply to every selected solver declaring the key (e.g. k=3 deepens
// every hierarchical solver at once).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "core/batch.hpp"
#include "graph/families.hpp"
#include "scenario.hpp"

namespace lcl::bench {

void run_solver_matrix(ScenarioContext& ctx) {
  const std::vector<std::string>& algos = ctx.opts().algos;
  const std::vector<std::string>& families = ctx.opts().families;

  std::printf(
      "== solver matrix: %zu solvers x %zu families, every cell "
      "certified ==\n\n",
      algos.size(), families.size());
  std::printf("  %-18s %-16s %8s %12s %10s %8s %s\n", "solver", "family",
              "n", "node-avg", "worst", "p99", "status");

  int cells_total = 0;
  int cells_ok = 0;
  int cells_check_failed = 0;
  for (const std::string& algo_name : algos) {
    const algo::SolverSpec& spec = algo::solver(algo_name);

    // Base config: every --algo-opt this solver declares. Validation of
    // ranges happens inside make_solver_job (eagerly, via the spec).
    algo::SolverConfig base;
    for (const std::string& kv : ctx.opts().algo_opts) {
      if (spec.find_option(algo::split_option(kv).first) != nullptr) {
        algo::apply_option(spec, base, kv);
      }
    }

    for (const std::string& family : families) {
      const graph::Family* fam = graph::find_family(family);
      if (fam == nullptr || !spec.compatible(*fam)) continue;
      ++cells_total;

      // Name-keyed base seed: a cell's instances are identical no
      // matter which other solvers/families were selected alongside
      // it, so single-cell reruns reproduce the full matrix exactly.
      const std::uint64_t cell_seed =
          core::stable_name_seed(algo_name + "@" + family);
      std::vector<core::BatchJob> jobs;
      for (const std::int64_t base_n : {2500, 10000}) {
        const auto n = static_cast<graph::NodeId>(ctx.scaled(base_n, 8));
        // Every registered solver terminates in o(n) + additive pad
        // rounds; the linear bound only trips on hangs, which must
        // surface as structured truncation, not a stuck sweep.
        const std::int64_t max_rounds = 8 * static_cast<std::int64_t>(n) +
                                        4096;
        jobs.push_back(core::make_solver_job(
            algo_name + "@" + family + "-n" + std::to_string(n),
            static_cast<double>(n), cell_seed + static_cast<std::uint64_t>(n),
            algo::solver(algo_name), base, family, n, /*delta=*/0,
            max_rounds));
      }
      auto runs = ctx.run_sweep(std::move(jobs));

      bool all_ok = true;
      bool any_check_failed = false;
      for (const core::MeasuredRun& r : runs) {
        all_ok = all_ok && r.ok();
        any_check_failed = any_check_failed ||
                           r.status == core::RunStatus::kCheckFailed;
      }
      cells_ok += all_ok ? 1 : 0;
      cells_check_failed += any_check_failed ? 1 : 0;
      const core::MeasuredRun& top = runs.back();
      std::printf("  %-18s %-16s %8lld %12.2f %10lld %8lld %s%s\n",
                  algo_name.c_str(), family.c_str(),
                  static_cast<long long>(top.n), top.node_averaged,
                  static_cast<long long>(top.worst_case),
                  static_cast<long long>(top.term.p99),
                  all_ok ? "ok" : core::to_string(top.status),
                  all_ok || top.check_reason.empty()
                      ? ""
                      : (" (" + top.check_reason + ")").c_str());
      ctx.record("solver_matrix: " + algo_name + " @ " + family, "n",
                 0.0, 1.0, std::move(runs));
    }
  }

  ctx.metric("cells_total", static_cast<double>(cells_total));
  ctx.metric("cells_ok", static_cast<double>(cells_ok));
  ctx.metric("cells_check_failed",
             static_cast<double>(cells_check_failed));
  ctx.metric("solvers_swept", static_cast<double>(algos.size()));
  std::printf("\n  %d/%d cells fully certified (%d check_failed)\n\n",
              cells_ok, cells_total, cells_check_failed);
}

}  // namespace lcl::bench
