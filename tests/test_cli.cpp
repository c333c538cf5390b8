// lclbench CLI hardening: malformed --algo-opt pairs, duplicate flags,
// out-of-range scales, non-integer counts and unknown scenario names
// must fail with exit code 2 and a clear one-line error, and a snapshot
// that cannot be written must fail the run with exit code 1 — pinned
// here with exact-message death tests so a parser refactor can't
// silently regress the messages users script against.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario.hpp"

namespace lcl {
namespace {

/// Runs cli_main on a fresh argv inside a death-test child and asserts
/// on (exit code, stderr). cli_main both std::exit()s on usage errors
/// and returns codes; wrapping the return in std::exit covers both.
void expect_cli_failure(const std::vector<std::string>& args,
                        const std::string& message_regex, int code = 2) {
  std::vector<std::string> storage = args;
  storage.insert(storage.begin(), "lclbench");
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (std::string& s : storage) argv.push_back(s.data());
  EXPECT_EXIT(
      std::exit(bench::cli_main(static_cast<int>(argv.size()), argv.data())),
      ::testing::ExitedWithCode(code), message_regex);
}

TEST(CliHardening, AlgoOptMissingEquals) {
  expect_cli_failure({"--run", "solver_matrix", "--algo-opt", "k3"},
                     "lclbench: --algo-opt malformed option 'k3' "
                     "\\(expected key=value\\)");
}

TEST(CliHardening, AlgoOptEmptyKey) {
  expect_cli_failure({"--run", "solver_matrix", "--algo-opt", "=3"},
                     "lclbench: --algo-opt malformed option '=3' "
                     "\\(expected key=value\\)");
}

TEST(CliHardening, AlgoOptNonIntegerValue) {
  // Syntactically fine, semantically bad: caught at the post-selection
  // validation with the solver named.
  expect_cli_failure({"--run", "solver_matrix", "--algo-opt", "k=lots"},
                     "--algo-opt .*expects an integer, got 'lots'");
}

TEST(CliHardening, AlgoOptUnknownKey) {
  expect_cli_failure({"--run", "solver_matrix", "--algo-opt", "zeta=1"},
                     "no selected solver has an option 'zeta'");
}

TEST(CliHardening, DuplicateScaleFlag) {
  expect_cli_failure({"--run", "engine_micro", "--n", "0.1", "--n", "1.0"},
                     "lclbench: duplicate --n");
}

TEST(CliHardening, DuplicateSeedFlag) {
  expect_cli_failure({"--seed", "1", "--seed", "2"},
                     "lclbench: duplicate --seed");
}

TEST(CliHardening, DuplicateRunFlag) {
  expect_cli_failure({"--run", "engine_micro", "--run", "cor60_gap"},
                     "lclbench: duplicate --run");
}

TEST(CliHardening, DuplicateProblemsFlag) {
  expect_cli_failure({"--problems", "10", "--problems", "20"},
                     "lclbench: duplicate --problems");
}

TEST(CliHardening, EngineFlagIsAnUnknownArgument) {
  // The dispatch mode is chosen where an engine is built, not per
  // process, and there is one kernel, so the CLI has no engine flag.
  expect_cli_failure({"--engine", "simd"},
                     "lclbench: unknown argument --engine");
  // JSON is the only snapshot format: the retired binary-snapshot
  // writer and converter flags are unknown too.
  expect_cli_failure({"--binary", "x"},
                     "lclbench: unknown argument --binary");
  expect_cli_failure({"--export", "a", "b"},
                     "lclbench: unknown argument --export");
}

TEST(CliHardening, DuplicateValuelessFlags) {
  // The "at most once" contract covers the boolean flags too.
  expect_cli_failure({"--list", "--list"}, "lclbench: duplicate --list");
  expect_cli_failure(
      {"--compare", "a.json", "b.json", "--allow-missing",
       "--allow-missing"},
      "lclbench: duplicate --allow-missing");
}

TEST(CliHardening, UnknownScenario) {
  expect_cli_failure({"--run", "nope"},
                     "lclbench: unknown scenario 'nope' \\(try --list\\)");
}

TEST(CliHardening, UnknownFlag) {
  expect_cli_failure({"--bogus"}, "lclbench: unknown argument --bogus");
}

TEST(CliHardening, NonPositiveProblems) {
  expect_cli_failure({"--run", "problem_sweep", "--problems", "0"},
                     "lclbench: --problems expects a positive count");
}

TEST(CliHardening, NegativeSeedRejected) {
  expect_cli_failure(
      {"--seed", "-3"},
      "lclbench: --seed expects an unsigned integer, got '-3'");
}

TEST(CliHardening, MissingValue) {
  expect_cli_failure({"--run"}, "lclbench: --run requires a value");
}

TEST(CliHardening, TrendWindowMustBeAtLeastTwo) {
  expect_cli_failure({"--history", "a.json", "b.json", "--trend-window",
                      "1"},
                     "lclbench: --trend-window expects a window >= 2");
}

TEST(CliHardening, CompareNeedsBothPaths) {
  expect_cli_failure({"--compare", "only_old.json"},
                     "lclbench: --compare needs <old.json> <new.json>");
  expect_cli_failure({"--compare"},
                     "lclbench: --compare requires a value");
}

TEST(CliHardening, HistoryNeedsTwoSnapshots) {
  expect_cli_failure({"--history", "only_one.json"},
                     "lclbench --history: needs at least 2 snapshots");
  expect_cli_failure({"--history"},
                     "lclbench: --history requires a value");
}

TEST(CliHardening, DuplicateSnapshotModeFlags) {
  expect_cli_failure({"--json", "a.json", "--json", "b.json"},
                     "lclbench: duplicate --json");
  expect_cli_failure({"--compare", "a", "b", "--compare", "c", "d"},
                     "lclbench: duplicate --compare");
}

TEST(CliHardening, FailedSnapshotWriteExitsOne) {
  // The scenario runs, but its snapshot is lost: that must fail the
  // run, not just print.
  expect_cli_failure({"--run", "cor60_gap", "--n", "0.02", "--threads",
                      "1", "--json", "/no/such/dir/x.json"},
                     "lclbench: failed to write /no/such/dir/x.json", 1);
}

TEST(CliHardening, ScaleRejectsNan) {
  // --list would otherwise exit 0: the scale is checked as it is parsed.
  expect_cli_failure({"--list", "--n", "nan"},
                     "lclbench: --n expects a scale in \\(0, 100], "
                     "got 'nan'");
}

TEST(CliHardening, ScaleRejectsInfinity) {
  expect_cli_failure({"--list", "--n", "inf"},
                     "lclbench: --n expects a scale in \\(0, 100], "
                     "got 'inf'");
}

TEST(CliHardening, ScaleRejectsNonPositive) {
  expect_cli_failure({"--list", "--n", "-1"},
                     "lclbench: --n expects a scale in \\(0, 100], "
                     "got '-1'");
  expect_cli_failure({"--list", "--n", "0"},
                     "lclbench: --n expects a scale in \\(0, 100], "
                     "got '0'");
}

TEST(CliHardening, ScaleRejectsHugeValues) {
  // 1e300 used to overflow llround in ScenarioContext::scaled, dropping
  // every instance to its floor size.
  expect_cli_failure({"--list", "--n", "1e300"},
                     "lclbench: --n expects a scale in \\(0, 100], "
                     "got '1e300'");
  expect_cli_failure({"--list", "--n", "100.5"},
                     "lclbench: --n expects a scale in \\(0, 100], "
                     "got '100.5'");
}

TEST(CliHardening, IntegerFlagsRejectFractions) {
  for (const char* flag : {"--reps", "--threads", "--problems"}) {
    expect_cli_failure({"--list", flag, "2.5"},
                       std::string("lclbench: ") + flag +
                           " expects an integer, got '2.5'");
  }
}

TEST(CliHardening, IntegerFlagsRejectNan) {
  for (const char* flag : {"--reps", "--threads", "--problems"}) {
    expect_cli_failure({"--list", flag, "nan"},
                       std::string("lclbench: ") + flag +
                           " expects an integer, got 'nan'");
  }
}

TEST(CliHardening, IntegerFlagsRejectValuesBeyondInt) {
  for (const char* flag : {"--reps", "--threads", "--problems"}) {
    expect_cli_failure({"--list", flag, "2147483648"},
                       std::string("lclbench: ") + flag +
                           " expects an integer, got '2147483648'");
    expect_cli_failure({"--list", flag, "-2147483649"},
                       std::string("lclbench: ") + flag +
                           " expects an integer, got '-2147483649'");
  }
}

TEST(CliHardening, RepeatableAlgoOptStaysRepeatable) {
  // Two --algo-opt pairs must NOT trip the duplicate detector; with a
  // bad scenario name the parse still has to get past both pairs to the
  // scenario lookup.
  expect_cli_failure({"--run", "nope", "--algo-opt", "k=2", "--algo-opt",
                      "d=3"},
                     "unknown scenario 'nope'");
}

}  // namespace
}  // namespace lcl
