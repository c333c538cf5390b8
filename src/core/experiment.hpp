// Experiment harness shared by the benches: builds paper instances,
// runs solvers, verifies outputs with the independent checkers, and
// collects (scale, node-averaged) samples for exponent fits.
//
// Measurement model. Node-averaged complexity is interesting precisely
// because the average hides stragglers: in the paper's constructions most
// nodes terminate in O(1) rounds while a vanishing fraction runs for
// n^Theta(1). A `MeasuredRun` therefore carries the termination-round
// *distribution* (exact tail percentiles plus a log-bucketed histogram,
// see `TermSummary`), a typed `RunStatus` instead of a bare bool, and —
// after `run_sweep` aggregation — the spread across repetitions.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/fitting.hpp"
#include "graph/builders.hpp"
#include "local/engine.hpp"
#include "problems/checkers.hpp"

namespace lcl::core {

/// The failure taxonomy of the measurement pipeline. Everything that can
/// go wrong with a run is one of these — no more collapsing distinct
/// failures into an opaque reason string.
enum class RunStatus {
  kOk = 0,       ///< ran to completion, checker accepted
  kCheckFailed,  ///< ran to completion, checker rejected
  kTruncated,    ///< hit max_rounds; stats are censored partials
  kBuildFailed,  ///< instance construction threw
  kException,    ///< program / engine / checker threw
};

/// Stable lowercase name, used as the JSON "status" value.
[[nodiscard]] const char* to_string(RunStatus status);

/// Summary of a run's termination-round distribution {T_v}.
///
/// Percentiles use the nearest-rank definition (pXX = smallest t such
/// that at least XX% of the nodes have T_v <= t) and are *exact* when the
/// summary comes from a single run. `hist` is the distribution in
/// logarithmic buckets — bucket 0 counts T_v == 0, bucket b >= 1 counts
/// T_v in [2^(b-1), 2^b - 1] — compact enough to snapshot for every run
/// while still separating the O(1) bulk from the n^Theta(1) stragglers.
/// `merge` pools histograms across repetitions; a pooled summary's
/// percentiles are recomputed from the buckets and are therefore
/// accurate to bucket resolution (each reported as the bucket's upper
/// edge).
struct TermSummary {
  std::int64_t p50 = 0;
  std::int64_t p90 = 0;
  std::int64_t p99 = 0;
  std::vector<std::int64_t> hist;  ///< log-bucket counts; empty = no data

  /// Exact summary from per-node termination rounds (O(n)).
  [[nodiscard]] static TermSummary from_rounds(
      const std::vector<std::int64_t>& termination_round);
  /// Exact summary from `count_by_round[t]` = #{v : T_v == t}
  /// (`local::RunProfile::term_count`).
  [[nodiscard]] static TermSummary from_counts(
      const std::vector<std::int64_t>& count_by_round);

  /// Pools `other` into this summary (bucket-wise sum; percentiles are
  /// refreshed from the pooled buckets). Merging into an empty summary
  /// copies `other` verbatim, keeping its exact percentiles.
  void merge(const TermSummary& other);

  /// Total node count across the histogram.
  [[nodiscard]] std::int64_t total() const;
};

/// Outcome of one verified run, or of a `run_sweep` point aggregated over
/// repetitions. Raw (single-run) records have `reps == 1`; aggregated
/// records carry the rep spread and the pooled distribution of the ok
/// repetitions only, so a failed rep can never pollute the averages.
struct MeasuredRun {
  double scale = 0.0;         ///< the sweep variable (n or Lambda)
  double node_averaged = 0.0; ///< mean over ok reps when aggregated
  std::int64_t worst_case = 0;
  std::int64_t n = 0;
  double build_ms = -1.0;     ///< instance-construction wall time;
                              ///< < 0 = not recorded (only
                              ///< make_solver_job jobs measure it)
  /// Defaults to kException: a record nobody filled in represents a
  /// production failure, never a silently-valid measurement.
  RunStatus status = RunStatus::kException;
  std::string check_reason;   ///< human detail for non-ok statuses
  TermSummary term;           ///< T_v distribution (pooled over ok reps)
  /// Engine walks cut into chunks for idle workers
  /// (`local::RunStats::sharded_rounds`), summed over the reps.
  std::int64_t sharded_rounds = 0;

  // Repetition spread, filled by run_sweep aggregation.
  int reps = 1;               ///< repetitions aggregated into this record
  int reps_ok = 0;            ///< how many of them were kOk
  double na_stddev = 0.0;     ///< stddev of node_averaged over ok reps
  double na_min = 0.0;        ///< min of node_averaged over ok reps
  double na_max = 0.0;        ///< max of node_averaged over ok reps

  [[nodiscard]] bool ok() const { return status == RunStatus::kOk; }
};

/// Builds a `MeasuredRun` from engine stats and a checker verdict:
/// fills the distribution summary and resolves the status taxonomy. A
/// truncated run is `kTruncated` regardless of `verdict` (partial
/// outputs are not checkable) with the truncation details in
/// `check_reason`. `node_averaged` defaults to `stats.node_averaged`;
/// callers using an adjusted average overwrite it afterwards.
[[nodiscard]] MeasuredRun measure_run(double scale,
                                      const local::RunStats& stats,
                                      const problems::CheckResult& verdict);

/// As `measure_run`, but with the scalar node-average replaced by
/// `weight_adjusted_average` (the distribution summary keeps the raw
/// T_v). Shared by the Pi^{2.5}/Pi^{3.5}/density sweeps.
[[nodiscard]] MeasuredRun measure_run_weight_adjusted(
    double scale, const graph::Tree& tree, const local::RunStats& stats,
    const problems::CheckResult& verdict);

/// Pretty-prints a table of runs (with tail percentiles, rep spread, and
/// status) plus the fitted exponent vs. the predicted range [lo, hi]
/// (pass lo == hi for a point prediction).
void print_experiment(const std::string& title,
                      const std::vector<MeasuredRun>& runs,
                      const std::string& scale_name, double predicted_lo,
                      double predicted_hi);

/// Converts measured runs to fit samples (only ok runs).
[[nodiscard]] std::vector<Sample> to_samples(
    const std::vector<MeasuredRun>& runs);

/// Node-average with the Connect/Decline weight nodes' contribution
/// removed — exactly the accounting of Theorem 2's proof ("terminate in
/// O(log n) rounds and can therefore be ignored"); at finite n that
/// logarithmic floor otherwise swamps small exponents. Shared by the
/// Pi^{2.5}/Pi^{3.5} sweeps.
[[nodiscard]] double weight_adjusted_average(const graph::Tree& tree,
                                             const local::RunStats& stats);

/// Stable FNV-1a hash of a name, used as a base seed so a named sweep
/// cell's instances are identical no matter which other cells were
/// selected alongside it — single-cell reruns reproduce full sweeps
/// exactly. Recorded behavior: changing this function invalidates the
/// committed BENCH snapshots of every name-seeded scenario.
[[nodiscard]] std::uint64_t stable_name_seed(std::string_view name);

/// Path lengths ell_1..ell_k for the Definition-18 / Definition-25
/// constructions: ell_i = base^{alpha_i} for i < k and ell_k chosen so
/// the product is ~target_n. `alphas` has k-1 entries. The running
/// product saturates instead of overflowing, so extreme (base, alpha)
/// combinations degrade to ell_k == 1 rather than UB.
[[nodiscard]] std::vector<std::int64_t> lower_bound_lengths(
    const std::vector<double>& alphas, double base, std::int64_t target_n);

/// Decline-regime gammas for a weighted construction's skeleton lengths:
/// gamma_i = max(2, ell'_i) for the k-1 lower levels, so level-i paths
/// sit exactly at the Decline threshold — the regime of the Theorem-3
/// lower bound, where the weight waits on the level-k coloring.
[[nodiscard]] std::vector<std::int64_t> decline_gammas(
    const std::vector<std::int64_t>& skeleton_lengths, int k);

}  // namespace lcl::core
