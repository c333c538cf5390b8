// Checker failure injection: valid solutions pass; every class of
// corruption is rejected with a pinpointing reason.
#include <gtest/gtest.h>

#include "graph/builders.hpp"
#include "problems/checkers.hpp"
#include "problems/labels.hpp"
#include "problems/levels.hpp"
#include "test_util.hpp"

namespace lcl {
namespace {

using graph::NodeId;
using graph::Tree;
using problems::Color;
using problems::Variant;

/// A certified generic-solver run with every gamma set to `gamma`.
std::vector<int> valid_hier_solution(const Tree& t, int k, Variant variant,
                                     std::int64_t gamma = 4) {
  algo::SolverConfig cfg;
  cfg.set("k", k);
  cfg.set("gammas",
          std::vector<std::int64_t>(static_cast<std::size_t>(k - 1), gamma));
  return test::run_solver(variant == Variant::kTwoHalf ? "generic_hier_25"
                                                       : "generic_hier_35",
                          t, cfg)
      .stats.primaries();
}

TEST(Checkers, RejectsOutOfAlphabet) {
  const Tree t = graph::make_path(10);
  auto out = valid_hier_solution(t, 1, Variant::kTwoHalf);
  out[3] = 99;
  const auto r = problems::check_hierarchical_coloring(
      t, 1, Variant::kTwoHalf, out);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("alphabet"), std::string::npos);
}

TEST(Checkers, RejectsThreeColorInTwoHalf) {
  const Tree t = graph::make_path(10);
  auto out = valid_hier_solution(t, 1, Variant::kTwoHalf);
  out[0] = static_cast<int>(Color::kR);
  EXPECT_FALSE(problems::check_hierarchical_coloring(t, 1,
                                                     Variant::kTwoHalf, out)
                   .ok);
}

TEST(Checkers, RejectsMonochromeEdge) {
  const Tree t = graph::make_path(10);
  auto out = valid_hier_solution(t, 1, Variant::kTwoHalf);
  out[4] = out[5];
  EXPECT_FALSE(problems::check_hierarchical_coloring(t, 1,
                                                     Variant::kTwoHalf, out)
                   .ok);
}

TEST(Checkers, RejectsLevelOneExempt) {
  const Tree t = graph::make_path(10);
  auto out = valid_hier_solution(t, 1, Variant::kTwoHalf);
  out[2] = static_cast<int>(Color::kE);
  const auto r = problems::check_hierarchical_coloring(
      t, 1, Variant::kTwoHalf, out);
  EXPECT_FALSE(r.ok);
}

TEST(Checkers, RejectsLevelKDecline) {
  const auto inst = graph::make_hierarchical_lower_bound({9, 10});
  Tree t = inst.tree;
  auto out = valid_hier_solution(t, 2, Variant::kTwoHalf);
  const auto levels = problems::compute_levels(t, 2);
  for (NodeId v = 0; v < t.size(); ++v) {
    if (levels[static_cast<std::size_t>(v)] == 2) {
      out[static_cast<std::size_t>(v)] = static_cast<int>(Color::kD);
      break;
    }
  }
  EXPECT_FALSE(problems::check_hierarchical_coloring(t, 2,
                                                     Variant::kTwoHalf, out)
                   .ok);
}

TEST(Checkers, RejectsMissedExempt) {
  // Short level-1 paths color, so level-2 must be E; flip one to W.
  const auto inst = graph::make_hierarchical_lower_bound({3, 10});
  Tree t = inst.tree;
  auto out = valid_hier_solution(t, 2, Variant::kTwoHalf, 10);
  const auto levels = problems::compute_levels(t, 2);
  for (NodeId v = 0; v < t.size(); ++v) {
    if (levels[static_cast<std::size_t>(v)] == 2) {
      out[static_cast<std::size_t>(v)] = static_cast<int>(Color::kW);
      break;
    }
  }
  const auto r = problems::check_hierarchical_coloring(
      t, 2, Variant::kTwoHalf, out);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("must be E"), std::string::npos);
}

TEST(Checkers, RejectsColorAdjacentToSameLevelDecline) {
  // Construct by hand: a path of 5 level-1 nodes labeled W,B,W,B,D —
  // the last W/B pair touches a same-level D.
  const Tree t = graph::make_path(5);
  std::vector<int> out = {
      static_cast<int>(Color::kW), static_cast<int>(Color::kB),
      static_cast<int>(Color::kW), static_cast<int>(Color::kB),
      static_cast<int>(Color::kD)};
  EXPECT_FALSE(problems::check_hierarchical_coloring(t, 2,
                                                     Variant::kTwoHalf, out)
                   .ok);
}

TEST(Checkers, AllDeclineOnLevelOnePathIsFine) {
  const Tree t = graph::make_path(5);
  std::vector<int> out(5, static_cast<int>(Color::kD));
  test::expect_valid(problems::check_hierarchical_coloring(
      t, 2, Variant::kTwoHalf, out));
}

TEST(Checkers, ThreeColoringChecker) {
  const Tree t = graph::make_path(4);
  std::vector<int> ok = {
      static_cast<int>(Color::kR), static_cast<int>(Color::kG),
      static_cast<int>(Color::kY), static_cast<int>(Color::kR)};
  test::expect_valid(problems::check_three_coloring(t, ok));
  ok[1] = static_cast<int>(Color::kR);
  EXPECT_FALSE(problems::check_three_coloring(t, ok).ok);
}

TEST(Checkers, DFreeChecker) {
  // Star with A center: center must not decline.
  Tree t = graph::make_star(4);
  t.set_input(0, static_cast<int>(problems::DFreeInput::kA));
  for (NodeId v = 1; v <= 4; ++v) {
    t.set_input(v, static_cast<int>(problems::DFreeInput::kW));
  }
  using problems::WeightOut;
  std::vector<int> out(5, static_cast<int>(WeightOut::kDecline));
  out[0] = static_cast<int>(WeightOut::kCopy);
  // Copy with 4 declining neighbors: needs d >= 4.
  EXPECT_TRUE(problems::check_dfree_weight(t, 4, out).ok);
  EXPECT_FALSE(problems::check_dfree_weight(t, 3, out).ok);
  // An A node declining is always invalid.
  out[0] = static_cast<int>(WeightOut::kDecline);
  EXPECT_FALSE(problems::check_dfree_weight(t, 4, out).ok);
  // Connect needs support.
  out[0] = static_cast<int>(WeightOut::kConnect);
  EXPECT_FALSE(problems::check_dfree_weight(t, 4, out).ok);
}

TEST(Checkers, OrientationConsistency) {
  using problems::EdgeDir;
  const Tree t = graph::make_path(2);
  problems::OrientationMap orient(2);
  orient[0] = {EdgeDir::kOutgoing};
  orient[1] = {EdgeDir::kOutgoing};  // both claim outgoing: inconsistent
  std::vector<int> labels = {problems::rake_label(1),
                             problems::rake_label(1)};
  const auto r = problems::check_hierarchical_labeling(t, 1, labels, orient);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("inconsistent"), std::string::npos);
}

TEST(Checkers, HierarchicalLabelingSmoke) {
  using problems::EdgeDir;
  // A 3-node path, all rake label R1, oriented toward node 2.
  const Tree t = graph::make_path(3);
  problems::OrientationMap orient(3);
  orient[0] = {EdgeDir::kOutgoing};
  orient[1] = {EdgeDir::kIncoming, EdgeDir::kOutgoing};
  orient[2] = {EdgeDir::kIncoming};
  std::vector<int> labels(3, problems::rake_label(1));
  test::expect_valid(
      problems::check_hierarchical_labeling(t, 2, labels, orient));
  // Unoriented edge at a rake node fails Rule 1.
  orient[0][0] = EdgeDir::kNone;
  orient[1][0] = EdgeDir::kNone;
  EXPECT_FALSE(
      problems::check_hierarchical_labeling(t, 2, labels, orient).ok);
}

}  // namespace
}  // namespace lcl
