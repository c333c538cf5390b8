// lclbench scenario registry.
//
// Every paper experiment (E1..E14 plus the engine micro-benchmark) is a
// *scenario*: a named function from run options to a structured result.
// The unified `lclbench` CLI lists and runs scenarios, prints the familiar
// experiment tables, and can serialize every run into a machine-readable
// BENCH_*.json snapshot (schema lclbench-v3: termination-round
// distributions, rep spread, and RunStatus per run) so the perf
// trajectory is tracked across PRs; `lclbench --compare old new` diffs
// two snapshots and exits nonzero on regression (see compare.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/experiment.hpp"
#include "core/fitting.hpp"

namespace lcl::bench {

/// Options shared by all scenarios, set from the CLI.
struct ScenarioOptions {
  /// Multiplier applied to every scenario's instance sizes (--n). 1.0 runs
  /// the paper-scale sweeps; 0.1 is a smoke run.
  double n_scale = 1.0;
  /// Repetitions per measurement point with distinct derived seeds (--reps);
  /// points are averaged over the repetitions.
  int reps = 1;
  /// Worker threads for the batched sweeps (--threads; 0 = hardware).
  int threads = 0;
  /// Global seed (--seed) mixed into every job's derived seed; 0
  /// reproduces the historical sweeps exactly. Recorded in BENCH_*.json.
  std::uint64_t seed = 0;
  /// Instance families swept by family-driven scenarios (--families;
  /// names from graph/families.hpp). cli_main resolves an empty
  /// selection to every tree family before scenarios run. Recorded in
  /// BENCH_*.json.
  std::vector<std::string> families;
  /// Solvers swept by algorithm-driven scenarios (--algos; names from
  /// algo/registry.hpp). cli_main resolves an empty selection to every
  /// registered solver before scenarios run. Recorded in BENCH_*.json.
  std::vector<std::string> algos;
  /// Raw --algo-opt key=value pairs. Each is applied to every selected
  /// solver that declares the key (validated by cli_main against the
  /// registry). Recorded in BENCH_*.json.
  std::vector<std::string> algo_opts;
  /// Distinct sampled LCL problems the problem_sweep scenario classifies
  /// and certifies (--problems). Recorded in BENCH_*.json.
  int problems = 60;
  /// Base seed of the problem generator (--problem-seed); every sampled
  /// table's own sub-seed derives from it and is what the snapshot
  /// reports per problem. Recorded in BENCH_*.json.
  std::uint64_t problem_seed = 1;
};

/// One fitted sweep: (scale, node-averaged) samples plus the paper's
/// predicted exponent range.
struct Series {
  std::string title;
  std::string scale_name;  ///< "n" or "Lambda"
  double predicted_lo = 0.0;
  double predicted_hi = 0.0;
  std::vector<core::MeasuredRun> runs;
};

/// Structured outcome of one scenario run.
struct ScenarioResult {
  std::vector<Series> series;
  /// Bespoke scalar metrics (throughputs, speedups, verdict counts, ...).
  std::map<std::string, double> metrics;
};

/// Execution context handed to scenario functions: shared thread pool and
/// helpers that apply the CLI options uniformly.
class ScenarioContext {
 public:
  ScenarioContext(const ScenarioOptions& opts, core::BatchRunner& pool)
      : opts_(opts), pool_(pool) {}

  [[nodiscard]] const ScenarioOptions& opts() const { return opts_; }
  [[nodiscard]] core::BatchRunner& pool() { return pool_; }

  /// Scales a base instance size by --n (never below `floor`, and
  /// saturating at INT64_MAX). Throws std::invalid_argument when
  /// `n_scale` is NaN or not positive — options built in code skip the
  /// CLI's range check.
  [[nodiscard]] std::int64_t scaled(std::int64_t base,
                                    std::int64_t floor = 2) const;

  /// Runs one sweep through the pool: each point is expanded into
  /// opts().reps jobs with derived seeds, executed in parallel, and
  /// aggregated back into one MeasuredRun per point (order preserved).
  /// Statistics — mean/stddev/min/max of node-averaged, the pooled
  /// termination histogram, max worst-case — cover the *ok* repetitions
  /// only; build_ms averages the reps that recorded one (the -1 "not
  /// recorded" sentinel is never treated as a sample). A point's status
  /// is kOk iff every repetition's was, else the first failing rep's
  /// status and reason. When *no* rep is ok, the statistics fall back to
  /// the measured non-ok reps (truncated / check-failed), so a
  /// fully-truncated point still reports its censored lower bounds
  /// under the non-ok status instead of zeroing out.
  std::vector<core::MeasuredRun> run_sweep(std::vector<core::BatchJob> jobs);

  /// Prints the classic experiment table and records the series in the
  /// result (the normal exit path for fitted sweeps).
  void report(const std::string& title, const std::string& scale_name,
              double predicted_lo, double predicted_hi,
              std::vector<core::MeasuredRun> runs);

  /// Records a series without the table print — for scenarios with many
  /// small series (the solver_matrix cross-product) that print their own
  /// compact summary instead.
  void record(const std::string& title, const std::string& scale_name,
              double predicted_lo, double predicted_hi,
              std::vector<core::MeasuredRun> runs);

  /// Records a bespoke scalar metric (also used by the JSON snapshot).
  void metric(const std::string& key, double value);

  /// Structured result accumulated by report()/metric().
  [[nodiscard]] ScenarioResult& result() { return result_; }

 private:
  const ScenarioOptions& opts_;
  core::BatchRunner& pool_;
  ScenarioResult result_;
};

/// A registered scenario. `run` prints its human-readable report as a side
/// effect and accumulates structure in the context.
struct Scenario {
  std::string name;
  std::string summary;
  void (*run)(ScenarioContext& ctx);
};

/// The full registry, in landscape order. Names are stable CLI/JSON keys.
[[nodiscard]] const std::vector<Scenario>& all_scenarios();

/// Unified CLI entry point (lclbench's main).
int cli_main(int argc, char** argv);

// Scenario functions, one per paper experiment (defined in bench_*.cpp).
void run_fig2_landscape(ScenarioContext& ctx);       // E1
void run_thm11_hier35(ScenarioContext& ctx);         // E2
void run_thm2_pi25(ScenarioContext& ctx);            // E3
void run_thm4_pi35(ScenarioContext& ctx);            // E4
void run_thm1_density(ScenarioContext& ctx);         // E5
void run_thm6_density(ScenarioContext& ctx);         // E6
void run_lemma69_weightaug(ScenarioContext& ctx);    // E7
void run_cor60_gap(ScenarioContext& ctx);            // E8
void run_thm7_decidability(ScenarioContext& ctx);    // E9
void run_lemma72_decomposition(ScenarioContext& ctx);  // E10
void run_lemma23_dfree(ScenarioContext& ctx);        // E11
void run_linial_logstar(ScenarioContext& ctx);       // E12
void run_fig2_randomized(ScenarioContext& ctx);      // E13
void run_ablation(ScenarioContext& ctx);             // E14
void run_engine_micro(ScenarioContext& ctx);         // substrate micro
void run_family_sweep(ScenarioContext& ctx);         // registry coverage
void run_solver_matrix(ScenarioContext& ctx);        // algo x family matrix
void run_problem_sweep(ScenarioContext& ctx);        // sampled-LCL sweep
void run_service_sweep(ScenarioContext& ctx);        // lcld load generator

}  // namespace lcl::bench
