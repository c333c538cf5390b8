// Snapshot regression gates: pairwise diff and long-horizon history.
//
// `lclbench --compare old new` loads two JSON snapshots (schema
// lclbench-v2 or -v3) through core::json::parse_file, matches scenarios
// by name and series by title, and reports
//   - schema regressions (new schema older than old, or unknown),
//   - validity regressions (a series with more non-ok runs than before,
//     including truncated / build_failed / exception statuses),
//   - coverage regressions (a series recording fewer runs than before),
//   - missing scenarios or series,
//   - fitted-exponent drift beyond --tol-exponent,
//   - node-averaged drift at matching sweep scales (--tol-avg, off by
//     default: values at different --n are not comparable),
//   - wall-time ratios (gated only when --tol-wall is set; always
//     reported).
// Exit status: 0 = no regression, 1 = regressions found, 2 = a snapshot
// could not be read or parsed. CI runs this against the committed
// BENCH_all.json so the perf/validity trajectory is machine-checked.
// `lclbench --history a.json b.json c.json ...` generalizes the gate
// from pairwise drift to trajectories: N snapshots are ordered by their
// recorded timestamp and every per-series metric becomes a time series.
// On top of the latest-vs-previous pairwise checks (coverage loss,
// validity, schema downgrades) it flags *sustained* trends — a metric
// that moved monotonically across the last --trend-window snapshots by
// more than the tolerance in total, even when every single step stayed
// under the pairwise gate. That is exactly the regression class a
// pairwise diff structurally cannot see (death by K small cuts).
#pragma once

#include <string>
#include <vector>

namespace lcl::bench {

struct CompareOptions {
  /// Absolute drift allowed in a series' fitted exponent.
  double tol_exponent = 0.15;
  /// Relative drift allowed in node_averaged at matching scales;
  /// 0 disables the check (snapshots at different --n are incomparable).
  double tol_avg = 0.0;
  /// Max allowed new/old wall-time ratio per scenario; 0 disables the
  /// gate (ratios are still reported).
  double tol_wall = 0.0;
  /// Downgrade missing scenarios/series from regression to warning
  /// (useful when the new snapshot deliberately ran a subset).
  bool allow_missing = false;
};

/// Diffs two snapshots, printing a report to stdout. Returns the process
/// exit status documented above.
[[nodiscard]] int compare_snapshots(const std::string& old_path,
                                    const std::string& new_path,
                                    const CompareOptions& opts);

struct HistoryOptions {
  /// Consecutive snapshots a sustained trend is measured over
  /// (--trend-window); clamped to the history length. Trend checks need
  /// at least 3 snapshots — with 2 the history degenerates to the
  /// pairwise checks.
  int window = 3;
  /// Total monotone exponent drift across the window that flags a trend
  /// regression (--tol-exponent).
  double tol_exponent = 0.15;
  /// Total monotone relative node-averaged drift at matching scales;
  /// 0 disables (--tol-avg; only sound when the history ran one --n).
  double tol_avg = 0.0;
  /// Max allowed monotone last/first wall-time ratio per scenario
  /// across the window; 0 disables the gate (--tol-wall; trajectories
  /// are always reported).
  double tol_wall = 0.0;
  /// Downgrade coverage loss (scenario/series present in the previous
  /// snapshot but missing from the latest) to a warning.
  bool allow_missing = false;
};

/// Loads N >= 2 JSON snapshots, orders them by recorded timestamp
/// (stable, so untimestamped files keep their given order), prints
/// per-scenario wall and per-series exponent trajectories, and gates:
/// latest-vs-previous coverage/validity/schema plus sustained monotone
/// trends across the last `window` snapshots.
/// Exit status: 0 = clean, 1 = regressions found, 2 = a snapshot could
/// not be read or parsed (or fewer than 2 were given).
[[nodiscard]] int history_snapshots(const std::vector<std::string>& paths,
                                    const HistoryOptions& opts);

}  // namespace lcl::bench
