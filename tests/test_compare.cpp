// The bench layer's measurement plumbing: run_sweep aggregation through
// a real pool, the snapshot reader, and the bench-compare regression
// gate — self-diff emptiness plus each regression class the gate must
// catch (schema downgrade, validity, coverage, exponent drift, missing
// series).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "algo/registry.hpp"
#include "compare.hpp"
#include "core/batch.hpp"
#include "core/json.hpp"
#include "local/engine.hpp"
#include "problems/checkers.hpp"
#include "scenario.hpp"

namespace lcl {
namespace {

using bench::CompareOptions;
using bench::compare_snapshots;
namespace json = core::json;

std::string write_temp(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream f(path);
  f << body;
  EXPECT_TRUE(f.good()) << path;
  return path;
}

/// A sweep point whose only repetition truncates must keep the censored
/// partial measurement (flagged by the non-ok status) instead of
/// serializing zeros — the whole point of structured truncation.
TEST(RunSweep, FullyTruncatedPointKeepsCensoredStats) {
  class Stall final : public local::Program {
   public:
    void on_init(local::NodeCtx&) override {}
    void on_round(local::NodeCtx& ctx) override {
      if (ctx.node() == 0 && ctx.round() == 1) ctx.terminate(0);
    }
  };
  bench::ScenarioOptions opts;
  opts.reps = 1;
  core::BatchRunner pool(core::BatchOptions{.threads = 1});
  bench::ScenarioContext ctx(opts, pool);
  algo::SolverSpec spec;
  spec.name = "stall";
  spec.factory = [](const graph::Tree&, const algo::SolverConfig&) {
    return std::make_unique<Stall>();
  };
  spec.certify = [](const graph::Tree&, const local::Program&,
                    const local::RunStats&, const algo::SolverConfig&) {
    return problems::CheckResult::pass();
  };
  std::vector<core::BatchJob> jobs;
  jobs.push_back(core::make_solver_job("stall", 6.0, 3, spec, {}, "path", 6,
                                       /*delta=*/0, /*max_rounds=*/4));
  const auto points = ctx.run_sweep(std::move(jobs));
  ASSERT_EQ(points.size(), 1u);
  const core::MeasuredRun& p = points[0];
  EXPECT_EQ(p.status, core::RunStatus::kTruncated);
  EXPECT_EQ(p.reps_ok, 0);
  EXPECT_EQ(p.n, 6);
  EXPECT_EQ(p.worst_case, 4);                       // censored bound
  EXPECT_DOUBLE_EQ(p.node_averaged, (1 + 5 * 4) / 6.0);
  EXPECT_EQ(p.term.total(), 6);                     // survivors included
}

// Options built in code skip the CLI's --n range check, so scaled()
// must neither overflow llround (which used to come back as the floor 2
// for huge scales) nor accept a scale that is NaN or not positive.
TEST(ScenarioScaled, SaturatesAndRejectsBadScales) {
  core::BatchRunner pool(core::BatchOptions{.threads = 1});
  auto scaled_at = [&](double n_scale, std::int64_t base) {
    bench::ScenarioOptions opts;
    opts.n_scale = n_scale;
    bench::ScenarioContext ctx(opts, pool);
    return ctx.scaled(base);
  };
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(scaled_at(0.5, 1000), 500);
  EXPECT_EQ(scaled_at(1e-9, 1000), 2);  // the floor
  EXPECT_EQ(scaled_at(1e300, 1000), kMax);
  EXPECT_EQ(scaled_at(1e17, 1000), kMax);
  EXPECT_EQ(scaled_at(std::numeric_limits<double>::infinity(), 1000), kMax);
  EXPECT_EQ(scaled_at(std::numeric_limits<double>::infinity(), 0), 2);
  EXPECT_THROW(scaled_at(std::nan(""), 1000), std::invalid_argument);
  EXPECT_THROW(scaled_at(0.0, 1000), std::invalid_argument);
  EXPECT_THROW(scaled_at(-1.0, 1000), std::invalid_argument);
}

TEST(Json, ParsesScalarsContainersAndEscapes) {
  const json::Value v = json::parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\n\"y\"A",)"
      R"( "neg": -2e3, "obj": {"k": 7}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.get_number("a", 0.0), 1.5);
  const json::Value* arr = v.find("b");
  ASSERT_NE(arr, nullptr);
  ASSERT_TRUE(arr->is_array());
  ASSERT_EQ(arr->array.size(), 3u);
  EXPECT_TRUE(arr->array[0].bool_or(false));
  EXPECT_FALSE(arr->array[1].bool_or(true));
  EXPECT_TRUE(arr->array[2].is_null());
  EXPECT_EQ(v.get_string("s", ""), "x\n\"y\"A");
  EXPECT_DOUBLE_EQ(v.get_number("neg", 0.0), -2000.0);
  const json::Value* obj = v.find("obj");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->find("k")->int_or(0), 7);
  // Typed accessors never coerce: a number read as string falls back.
  EXPECT_EQ(v.find("a")->string_or("fallback"), "fallback");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, IntAccessorGuardsOutOfRangeNumbers) {
  const json::Value v =
      json::parse(R"({"huge": 1e300, "neg_huge": -1e300, "ok": -42})");
  EXPECT_EQ(v.find("huge")->int_or(7), 7);
  EXPECT_EQ(v.find("neg_huge")->int_or(7), 7);
  EXPECT_EQ(v.find("ok")->int_or(7), -42);
}

TEST(Json, BoundsNestingDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(json::parse(nested(192)).is_array());
  EXPECT_THROW((void)json::parse(nested(193)), std::runtime_error);
  EXPECT_THROW((void)json::parse(std::string(1 << 20, '{')),
               std::runtime_error);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)json::parse("[1, 2,]"), std::runtime_error);
  EXPECT_THROW((void)json::parse("{\"a\": 1} trailing"),
               std::runtime_error);
  EXPECT_THROW((void)json::parse("{\"a\": 0x10}"), std::runtime_error);
  EXPECT_THROW((void)json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)json::parse_file("/nonexistent/nope.json"),
               std::runtime_error);
}

/// A small but schema-faithful v3 snapshot.
std::string snapshot(const std::string& schema, double exponent,
                     const std::string& run2_status) {
  const bool ok2 = run2_status == "ok";
  return std::string("{\n\"schema\": \"") + schema +
         "\",\n\"scenarios\": [\n"
         " {\"name\": \"s1\", \"wall_ms\": 100, \"metrics\": {},\n"
         "  \"series\": [\n"
         "   {\"title\": \"t1\", \"fitted_exponent\": " +
         std::to_string(exponent) +
         ",\n"
         "    \"runs\": [\n"
         "     {\"scale\": 10, \"n\": 10, \"node_averaged\": 2.0, "
         "\"worst_case\": 4, \"term_p50\": 1, \"term_p90\": 2, "
         "\"term_p99\": 4, \"term_hist\": [0, 5, 4, 1], \"reps\": 1, "
         "\"reps_ok\": 1, \"status\": \"ok\", \"valid\": true},\n"
         "     {\"scale\": 20, \"n\": 20, \"node_averaged\": 3.0, "
         "\"worst_case\": 8, \"status\": \"" +
         run2_status + "\", \"valid\": " + (ok2 ? "true" : "false") +
         "}\n"
         "    ]}\n"
         "  ]}\n"
         "]}\n";
}

TEST(Compare, SelfDiffIsEmpty) {
  const std::string path =
      write_temp("self.json", snapshot("lclbench-v3", 0.5, "ok"));
  EXPECT_EQ(compare_snapshots(path, path, CompareOptions{}), 0);
}

TEST(Compare, V2PredecessorToV3IsAccepted) {
  // Upgrading the schema is not a regression; v2 run records (no
  // "status" key, only "valid") are understood.
  const std::string old_path = write_temp(
      "old_v2.json",
      "{\"schema\": \"lclbench-v2\", \"scenarios\": ["
      "{\"name\": \"s1\", \"wall_ms\": 50, \"series\": ["
      "{\"title\": \"t1\", \"fitted_exponent\": 0.5, \"runs\": ["
      "{\"scale\": 10, \"node_averaged\": 2.0, \"valid\": true}]}]}]}");
  const std::string new_path =
      write_temp("new_v3.json", snapshot("lclbench-v3", 0.51, "ok"));
  EXPECT_EQ(compare_snapshots(old_path, new_path, CompareOptions{}), 0);
}

TEST(Compare, PerScenarioPeakRssIsAdditive) {
  // lclbench records each scenario's peak resident set as an additive
  // lclbench-v3 field; snapshots with and without it compare clean in
  // either direction, whatever the figures.
  const std::string without = snapshot("lclbench-v3", 0.5, "ok");
  std::string with = without;
  const std::string wall = "\"wall_ms\": 100, ";
  const std::size_t at = with.find(wall);
  ASSERT_NE(at, std::string::npos);
  with.insert(at + wall.size(), "\"peak_rss_kb\": 250000, ");
  const std::string old_path = write_temp("rss_old.json", without);
  const std::string new_path = write_temp("rss_new.json", with);
  EXPECT_EQ(compare_snapshots(old_path, new_path, CompareOptions{}), 0);
  EXPECT_EQ(compare_snapshots(new_path, old_path, CompareOptions{}), 0);
  EXPECT_EQ(compare_snapshots(new_path, new_path, CompareOptions{}), 0);
}

TEST(Compare, SchemaDowngradeIsARegression) {
  const std::string old_path =
      write_temp("old_v3.json", snapshot("lclbench-v3", 0.5, "ok"));
  const std::string new_path =
      write_temp("new_v2.json", snapshot("lclbench-v2", 0.5, "ok"));
  EXPECT_EQ(compare_snapshots(old_path, new_path, CompareOptions{}), 1);
}

TEST(Compare, ValidityRegressionIsCaught) {
  const std::string old_path =
      write_temp("valid_old.json", snapshot("lclbench-v3", 0.5, "ok"));
  // One run degrades to a truncation: a typed, non-ok status.
  const std::string new_path = write_temp(
      "valid_new.json", snapshot("lclbench-v3", 0.5, "truncated"));
  EXPECT_EQ(compare_snapshots(old_path, new_path, CompareOptions{}), 1);
  // The reverse direction (a failure got fixed) is fine.
  EXPECT_EQ(compare_snapshots(new_path, old_path, CompareOptions{}), 0);
}

TEST(Compare, ExponentDriftHonorsTolerance) {
  const std::string old_path =
      write_temp("exp_old.json", snapshot("lclbench-v3", 0.50, "ok"));
  const std::string new_path =
      write_temp("exp_new.json", snapshot("lclbench-v3", 0.80, "ok"));
  CompareOptions strict;
  strict.tol_exponent = 0.1;
  EXPECT_EQ(compare_snapshots(old_path, new_path, strict), 1);
  CompareOptions loose;
  loose.tol_exponent = 0.5;
  EXPECT_EQ(compare_snapshots(old_path, new_path, loose), 0);
}

TEST(Compare, NodeAveragedDriftIsOptInAtMatchingScales) {
  const std::string old_path =
      write_temp("avg_old.json", snapshot("lclbench-v3", 0.5, "ok"));
  // Same scales, node_averaged 2.0 -> 3.2 at scale 10 via a hand-edited
  // copy.
  std::string body = snapshot("lclbench-v3", 0.5, "ok");
  const std::string needle = "\"node_averaged\": 2.0";
  body.replace(body.find(needle), needle.size(),
               "\"node_averaged\": 3.2");
  const std::string new_path = write_temp("avg_new.json", body);
  EXPECT_EQ(compare_snapshots(old_path, new_path, CompareOptions{}), 0)
      << "disabled by default";
  CompareOptions gated;
  gated.tol_avg = 0.25;
  EXPECT_EQ(compare_snapshots(old_path, new_path, gated), 1);
  gated.tol_avg = 1.0;
  EXPECT_EQ(compare_snapshots(old_path, new_path, gated), 0);
}

/// One series sweeping two instances at the same scale (the
/// problem_sweep shape), with the second instance's node-average set.
std::string repeated_scale_snapshot(double second_avg) {
  return "{\"schema\": \"lclbench-v3\", \"scenarios\": ["
         "{\"name\": \"s1\", \"wall_ms\": 100, \"series\": ["
         "{\"title\": \"t1\", \"runs\": ["
         "{\"scale\": 10, \"node_averaged\": 2.0, \"status\": \"ok\", "
         "\"valid\": true}, "
         "{\"scale\": 10, \"node_averaged\": " +
         std::to_string(second_avg) +
         ", \"status\": \"ok\", \"valid\": true}]}]}]}";
}

TEST(Compare, RepeatedScalesPairByOccurrence) {
  // Runs pair up by scale and occurrence: a self-diff stays clean at a
  // near-zero tolerance, and drift in the second run at a scale is
  // caught rather than measured against the first.
  CompareOptions gated;
  gated.tol_avg = 1e-9;
  const std::string same =
      write_temp("rep_same.json", repeated_scale_snapshot(5.0));
  EXPECT_EQ(compare_snapshots(same, same, gated), 0);
  const std::string drifted =
      write_temp("rep_drift.json", repeated_scale_snapshot(2.0));
  EXPECT_EQ(compare_snapshots(same, drifted, gated), 1);
}

TEST(Compare, LostRunCoverageIsARegression) {
  // A series that silently dropped sweep points must not read as
  // healthy just because none of its surviving runs failed.
  const std::string old_path =
      write_temp("cov_old.json", snapshot("lclbench-v3", 0.5, "ok"));
  std::string body = snapshot("lclbench-v3", 0.5, "ok");
  const std::size_t second_run = body.find("{\"scale\": 20");
  ASSERT_NE(second_run, std::string::npos);
  // Drop run 2 along with the separating comma.
  const std::size_t comma = body.rfind(',', second_run);
  const std::size_t end = body.find('}', second_run);
  ASSERT_NE(comma, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  body.erase(comma, end - comma + 1);
  const std::string new_path = write_temp("cov_new.json", body);
  // Sanity: the mutated snapshot still parses and has one run.
  EXPECT_EQ(json::parse_file(new_path)
                .find("scenarios")->array[0]
                .find("series")->array[0]
                .find("runs")->array.size(),
            1u);
  EXPECT_EQ(compare_snapshots(old_path, new_path, CompareOptions{}), 1);
}

TEST(Compare, MissingScenarioRespectsAllowMissing) {
  const std::string old_path =
      write_temp("miss_old.json", snapshot("lclbench-v3", 0.5, "ok"));
  const std::string new_path = write_temp(
      "miss_new.json", "{\"schema\": \"lclbench-v3\", \"scenarios\": []}");
  EXPECT_EQ(compare_snapshots(old_path, new_path, CompareOptions{}), 1);
  CompareOptions allow;
  allow.allow_missing = true;
  EXPECT_EQ(compare_snapshots(old_path, new_path, allow), 0);
}

TEST(Compare, UnreadableSnapshotIsUsageError) {
  const std::string ok_path =
      write_temp("ok.json", snapshot("lclbench-v3", 0.5, "ok"));
  EXPECT_EQ(compare_snapshots("/nonexistent/a.json", ok_path,
                              CompareOptions{}),
            2);
  const std::string bad_path = write_temp("bad.json", "{not json");
  EXPECT_EQ(compare_snapshots(ok_path, bad_path, CompareOptions{}), 2);
  // A snapshot in the retired binary format (magic "LCLB", version 1).
  const std::string legacy_path = write_temp("legacy_compare", "LCLB\x01");
  EXPECT_EQ(compare_snapshots(legacy_path, ok_path, CompareOptions{}), 2);
}

}  // namespace
}  // namespace lcl
