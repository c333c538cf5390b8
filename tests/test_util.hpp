// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "graph/builders.hpp"
#include "graph/tree.hpp"
#include "local/engine.hpp"
#include "problems/checkers.hpp"

namespace lcl::test {

/// Asserts a CheckResult passed, printing the checker's reason otherwise.
inline void expect_valid(const problems::CheckResult& r) {
  EXPECT_TRUE(r.ok) << r.reason;
}

inline void assert_valid(const problems::CheckResult& r) {
  ASSERT_TRUE(r.ok) << r.reason;
}

/// All primary outputs of a run.
inline std::vector<int> primaries(const local::RunStats& stats) {
  return stats.primaries();
}

/// Runs the registered solver `name` through `algo::run_registered`, the
/// path every scenario takes, and expects its certificate to pass.
inline algo::SolverRun run_solver(const std::string& name,
                                  const graph::Tree& tree,
                                  const algo::SolverConfig& config) {
  algo::SolverRun run =
      algo::run_registered(algo::solver(name), tree, config);
  EXPECT_TRUE(run.verdict.ok) << name << ": " << run.verdict.reason;
  return run;
}

}  // namespace lcl::test
