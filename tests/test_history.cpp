// The long-horizon history gate: N JSON snapshots are ordered by
// timestamp and checked for *sustained* trends — the regression class a
// pairwise --compare structurally cannot see. The synthetic
// three-snapshot drift here (two steps of 0.10 against a 0.15
// tolerance, each step individually under the pairwise gate) is the
// canonical case the mode exists for.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "compare.hpp"

namespace lcl {
namespace {

using bench::HistoryOptions;
using bench::history_snapshots;

std::string write_temp(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream f(path, std::ios::binary);
  f << body;
  EXPECT_TRUE(f.good()) << path;
  return path;
}

/// A schema-faithful v3 snapshot with one series whose fit, scale-10
/// node-average, wall time, run count, and validity are all
/// parameterized — each knob drives one history check.
std::string snapshot_body(const std::string& timestamp, double exponent,
                          double node_avg, double wall_ms, int runs,
                          bool all_ok = true) {
  std::string run_list;
  for (int r = 0; r < runs; ++r) {
    const bool ok = all_ok || r + 1 < runs;  // last run degrades
    if (r > 0) run_list += ",\n";
    run_list += "     {\"scale\": " + std::to_string(10 * (r + 1)) +
                ", \"n\": " + std::to_string(10 * (r + 1)) +
                ", \"node_averaged\": " +
                std::to_string(node_avg * (r + 1)) +
                ", \"worst_case\": 4, \"status\": \"" +
                (ok ? "ok" : "truncated") +
                "\", \"valid\": " + (ok ? "true" : "false") + "}";
  }
  return "{\n\"schema\": \"lclbench-v3\",\n\"timestamp\": \"" + timestamp +
         "\",\n\"scenarios\": [\n"
         " {\"name\": \"s1\", \"wall_ms\": " + std::to_string(wall_ms) +
         ", \"metrics\": {},\n"
         "  \"series\": [\n"
         "   {\"title\": \"t1\", \"fitted_exponent\": " +
         std::to_string(exponent) + ",\n    \"runs\": [\n" + run_list +
         "\n    ]}\n  ]}\n]}\n";
}

std::string write_snapshot(const std::string& name,
                           const std::string& timestamp, double exponent,
                           double node_avg = 2.0, double wall_ms = 100,
                           int runs = 2, bool all_ok = true) {
  return write_temp(name, snapshot_body(timestamp, exponent, node_avg,
                                        wall_ms, runs, all_ok));
}

TEST(History, FlatHistoryIsClean) {
  const std::vector<std::string> paths = {
      write_snapshot("flat1.json", "2026-01-01T00:00:00Z", 0.50),
      write_snapshot("flat2.json", "2026-01-02T00:00:00Z", 0.50),
      write_snapshot("flat3.json", "2026-01-03T00:00:00Z", 0.50),
  };
  EXPECT_EQ(history_snapshots(paths, HistoryOptions{}), 0);
}

TEST(History, SustainedDriftUnderThePairwiseGateIsFlagged) {
  // 0.50 -> 0.60 -> 0.72: every step is under the 0.15 pairwise
  // tolerance, the three-snapshot total is not.
  const std::vector<std::string> paths = {
      write_snapshot("drift1.json", "2026-01-01T00:00:00Z", 0.50),
      write_snapshot("drift2.json", "2026-01-02T00:00:00Z", 0.60),
      write_snapshot("drift3.json", "2026-01-03T00:00:00Z", 0.72),
  };
  EXPECT_EQ(history_snapshots(paths, HistoryOptions{}), 1);
  // A pairwise compare of any adjacent pair stays clean — the trend is
  // invisible to it.
  EXPECT_EQ(bench::compare_snapshots(paths[0], paths[1],
                                     bench::CompareOptions{}),
            0);
  EXPECT_EQ(bench::compare_snapshots(paths[1], paths[2],
                                     bench::CompareOptions{}),
            0);
}

TEST(History, NoiseAroundALevelIsNotATrend) {
  // Same total excursion, but non-monotone: wobble, not drift.
  const std::vector<std::string> paths = {
      write_snapshot("noise1.json", "2026-01-01T00:00:00Z", 0.50),
      write_snapshot("noise2.json", "2026-01-02T00:00:00Z", 0.72),
      write_snapshot("noise3.json", "2026-01-03T00:00:00Z", 0.55),
  };
  EXPECT_EQ(history_snapshots(paths, HistoryOptions{}), 0);
}

TEST(History, DownwardDriftCountsToo) {
  const std::vector<std::string> paths = {
      write_snapshot("down1.json", "2026-01-01T00:00:00Z", 0.50),
      write_snapshot("down2.json", "2026-01-02T00:00:00Z", 0.40),
      write_snapshot("down3.json", "2026-01-03T00:00:00Z", 0.30),
  };
  EXPECT_EQ(history_snapshots(paths, HistoryOptions{}), 1);
}

TEST(History, TimestampsOrderTheHistoryNotTheArguments) {
  // Passed newest-first; ordered by timestamp the drift is monotone
  // and must still be flagged.
  const std::vector<std::string> paths = {
      write_snapshot("ooo3.json", "2026-01-03T00:00:00Z", 0.72),
      write_snapshot("ooo1.json", "2026-01-01T00:00:00Z", 0.50),
      write_snapshot("ooo2.json", "2026-01-02T00:00:00Z", 0.60),
  };
  EXPECT_EQ(history_snapshots(paths, HistoryOptions{}), 1);
}

TEST(History, TrendWindowBoundsTheLookback) {
  // The drift lives entirely in snapshots 1..3; snapshot 4 is flat.
  // Window 3 over the last three (0.60, 0.72, 0.72) sees no monotone
  // move beyond tolerance; window 4 sees the full 0.22 drift... but
  // the last step is flat, so even window 4 stays monotone (0.72 ==
  // 0.72 is a weakly monotone step) and flags it.
  const std::vector<std::string> paths = {
      write_snapshot("win1.json", "2026-01-01T00:00:00Z", 0.50),
      write_snapshot("win2.json", "2026-01-02T00:00:00Z", 0.60),
      write_snapshot("win3.json", "2026-01-03T00:00:00Z", 0.72),
      write_snapshot("win4.json", "2026-01-04T00:00:00Z", 0.72),
  };
  EXPECT_EQ(history_snapshots(paths, HistoryOptions{}), 0);
  HistoryOptions wide;
  wide.window = 4;
  EXPECT_EQ(history_snapshots(paths, wide), 1);
}

TEST(History, CoverageLossRespectsAllowMissing) {
  const std::string full =
      write_snapshot("cov_full.json", "2026-01-01T00:00:00Z", 0.50);
  const std::string empty = write_temp(
      "cov_empty.json",
      "{\"schema\": \"lclbench-v3\", \"timestamp\": "
      "\"2026-01-02T00:00:00Z\", \"scenarios\": []}");
  EXPECT_EQ(history_snapshots({full, empty}, HistoryOptions{}), 1);
  HistoryOptions allow;
  allow.allow_missing = true;
  EXPECT_EQ(history_snapshots({full, empty}, allow), 0);
}

TEST(History, VanishedSeriesLessScenarioIsARegression) {
  // Metrics-only scenarios (engine_micro, service_sweep, ...) record no
  // series, so only the scenario-level coverage check can see them go —
  // the same check --compare runs.
  const auto body = [](const std::string& timestamp, bool with_micro) {
    return "{\"schema\": \"lclbench-v3\", \"timestamp\": \"" +
           timestamp + "\", \"scenarios\": [" +
           (with_micro ? "{\"name\": \"engine_micro\", \"wall_ms\": 5, "
                         "\"metrics\": {\"arena_flash\": 1.5}}"
                       : "") +
           "]}";
  };
  const std::string before =
      write_temp("micro1.json", body("2026-01-01T00:00:00Z", true));
  const std::string after =
      write_temp("micro2.json", body("2026-01-02T00:00:00Z", false));
  EXPECT_EQ(bench::compare_snapshots(before, after, bench::CompareOptions{}),
            1);
  EXPECT_EQ(history_snapshots({before, after}, HistoryOptions{}), 1);
  HistoryOptions allow;
  allow.allow_missing = true;
  EXPECT_EQ(history_snapshots({before, after}, allow), 0);
}

TEST(History, ShrunkSweepAndNewFailuresAreRegressions) {
  const std::string before =
      write_snapshot("val1.json", "2026-01-01T00:00:00Z", 0.50, 2.0, 100,
                     /*runs=*/3);
  const std::string fewer =
      write_snapshot("val2.json", "2026-01-02T00:00:00Z", 0.50, 2.0, 100,
                     /*runs=*/2);
  EXPECT_EQ(history_snapshots({before, fewer}, HistoryOptions{}), 1);
  const std::string failing =
      write_snapshot("val3.json", "2026-01-02T00:00:00Z", 0.50, 2.0, 100,
                     /*runs=*/3, /*all_ok=*/false);
  EXPECT_EQ(history_snapshots({before, failing}, HistoryOptions{}), 1);
}

TEST(History, WallTrendGateIsOptIn) {
  const std::vector<std::string> paths = {
      write_snapshot("wall1.json", "2026-01-01T00:00:00Z", 0.5, 2.0, 100),
      write_snapshot("wall2.json", "2026-01-02T00:00:00Z", 0.5, 2.0, 130),
      write_snapshot("wall3.json", "2026-01-03T00:00:00Z", 0.5, 2.0, 170),
  };
  EXPECT_EQ(history_snapshots(paths, HistoryOptions{}), 0)
      << "wall gate off by default";
  HistoryOptions gated;
  gated.tol_wall = 1.5;
  EXPECT_EQ(history_snapshots(paths, gated), 1);
  gated.tol_wall = 2.0;
  EXPECT_EQ(history_snapshots(paths, gated), 0);
}

TEST(History, NodeAveragedTrendGateIsOptIn) {
  const std::vector<std::string> paths = {
      write_snapshot("avg1.json", "2026-01-01T00:00:00Z", 0.5, 2.0),
      write_snapshot("avg2.json", "2026-01-02T00:00:00Z", 0.5, 2.2),
      write_snapshot("avg3.json", "2026-01-03T00:00:00Z", 0.5, 2.5),
  };
  EXPECT_EQ(history_snapshots(paths, HistoryOptions{}), 0);
  HistoryOptions gated;
  gated.tol_avg = 0.20;
  EXPECT_EQ(history_snapshots(paths, gated), 1);
  gated.tol_avg = 0.30;
  EXPECT_EQ(history_snapshots(paths, gated), 0);
}

TEST(History, RepeatedScalesTrendByOccurrence) {
  // Two instances at one scale: only the second drifts (5.0 -> 6.5),
  // and the trend gate must follow it rather than the flat first one.
  const auto body = [](const std::string& timestamp, double second_avg) {
    return "{\"schema\": \"lclbench-v3\", \"timestamp\": \"" +
           timestamp +
           "\", \"scenarios\": [{\"name\": \"s1\", \"wall_ms\": 100, "
           "\"series\": [{\"title\": \"t1\", \"runs\": ["
           "{\"scale\": 10, \"node_averaged\": 2.0, \"status\": \"ok\", "
           "\"valid\": true}, "
           "{\"scale\": 10, \"node_averaged\": " +
           std::to_string(second_avg) +
           ", \"status\": \"ok\", \"valid\": true}]}]}]}";
  };
  const std::vector<std::string> paths = {
      write_temp("rep1.json", body("2026-01-01T00:00:00Z", 5.0)),
      write_temp("rep2.json", body("2026-01-02T00:00:00Z", 5.5)),
      write_temp("rep3.json", body("2026-01-03T00:00:00Z", 6.5)),
  };
  HistoryOptions gated;
  gated.tol_avg = 0.20;
  EXPECT_EQ(history_snapshots(paths, gated), 1);
}

TEST(History, UsageAndReadErrorsExitTwo) {
  const std::string one =
      write_snapshot("solo.json", "2026-01-01T00:00:00Z", 0.50);
  EXPECT_EQ(history_snapshots({one}, HistoryOptions{}), 2);
  EXPECT_EQ(history_snapshots({one, "/nonexistent/past.json"},
                              HistoryOptions{}),
            2);
  const std::string junk = write_temp("junk.json", "{not json");
  EXPECT_EQ(history_snapshots({one, junk}, HistoryOptions{}), 2);
  const std::string alien = write_temp(
      "alien.json", "{\"schema\": \"other-v1\", \"scenarios\": []}");
  EXPECT_EQ(history_snapshots({one, alien}, HistoryOptions{}), 2);
  // A snapshot in the retired binary format (magic "LCLB", version 1)
  // is not JSON: a clean read error, not a crash or a misparse.
  const std::string legacy = write_temp("legacy_history", "LCLB\x01");
  EXPECT_EQ(history_snapshots({one, legacy}, HistoryOptions{}), 2);
}

TEST(History, LegacyBinarySnapshotIsAReadError) {
  // In the middle of an otherwise drifting JSON history, a legacy
  // binary snapshot fails the whole gate instead of being skipped.
  const std::string legacy = write_temp("legacy_mid", "LCLB\x01");
  const std::string s1 =
      write_snapshot("mix1.json", "2026-01-01T00:00:00Z", 0.50);
  const std::string s3 =
      write_snapshot("mix3.json", "2026-01-03T00:00:00Z", 0.72);
  EXPECT_EQ(history_snapshots({s1, legacy, s3}, HistoryOptions{}), 2);
}

}  // namespace
}  // namespace lcl
