// Registry coverage: sweep the genuinely distributed rake-and-compress
// decomposition program (Lemma 72's in-model counterpart — the one solver
// every bounded-degree tree admits) across the named instance families
// selected by --families. Guards the family registry end to end: every
// family builds through the per-thread arena, runs on the engine's native
// CSR, and is certified end to end, with per-family build times recorded
// for the allocation-cost trajectory. The solver itself is resolved from
// the algorithm registry ("rake_compress"), whose spec carries the
// decode-and-validate certifier; `core::make_solver_job` is the whole
// wiring. The full algorithm x family cross-product lives in the
// solver_matrix scenario.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "core/batch.hpp"
#include "graph/families.hpp"
#include "scenario.hpp"

namespace lcl::bench {

namespace {

constexpr int kGamma = 1;
constexpr int kEll = 4;

}  // namespace

void run_family_sweep(ScenarioContext& ctx) {
  // cli_main resolves an empty selection to every tree family before any
  // scenario runs, so this is a plain read.
  const std::vector<std::string>& families = ctx.opts().families;

  std::printf(
      "== family sweep: distributed (gamma=1, ell=4) decomposition over "
      "%zu instance families ==\n\n",
      families.size());

  int families_valid = 0;
  for (const std::string& family : families) {
    // Per-family base seed from the stable name hash, so a family's
    // instances are identical no matter which other families were
    // selected alongside it — single-family reruns reproduce the full
    // sweep exactly.
    const std::uint64_t family_seed = core::stable_name_seed(family);
    // The solver, its options, and the decode-and-validate certifier all
    // come from the algorithm registry now — this scenario only names
    // them.
    algo::SolverConfig decomp_cfg;
    decomp_cfg.set("gamma", kGamma);
    decomp_cfg.set("ell", kEll);
    std::vector<core::BatchJob> jobs;
    for (const std::int64_t base : {2000, 6000, 18000, 54000}) {
      const auto n = static_cast<graph::NodeId>(ctx.scaled(base, 8));
      // Relaxed gamma=1 decompositions finish in O(log n) windows of
      // 2*gamma + ell + 3 rounds; the bound below only trips on
      // non-forest inputs (which must fail loudly, not hang).
      const std::int64_t max_rounds =
          (2 * kGamma + kEll + 3) *
          (4 * std::bit_width(static_cast<std::uint64_t>(n)) + 16);
      jobs.push_back(core::make_solver_job(
          family + "-" + std::to_string(n), static_cast<double>(n),
          /*seed=*/family_seed + static_cast<std::uint64_t>(n),
          algo::solver("rake_compress"), decomp_cfg, family, n, /*delta=*/0,
          max_rounds));
    }
    auto runs = ctx.run_sweep(std::move(jobs));
    bool all_valid = true;
    double build_ms = 0.0;
    for (const core::MeasuredRun& r : runs) {
      all_valid = all_valid && r.ok();
      build_ms = r.build_ms;  // keep the largest instance's build time
    }
    families_valid += all_valid ? 1 : 0;
    // Decomposition terminates within O(log n) windows, so the fitted
    // node-average exponent should sit near 0 (well under the 0.5 of the
    // polynomial regime's midpoint).
    ctx.report("family_sweep: " + family + " (distributed rake&compress)",
               "n", 0.0, 0.5, std::move(runs));
    ctx.metric("build_ms_" + family, build_ms);
  }
  ctx.metric("families_swept", static_cast<double>(families.size()));
  ctx.metric("families_valid", static_cast<double>(families_valid));
  std::printf("  %d/%zu families fully valid\n\n", families_valid,
              families.size());
}

}  // namespace lcl::bench
