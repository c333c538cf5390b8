// A short tour of the problem generator and classifier: sample a few
// random black-white tree LCLs, predict their landscape rows, and solve
// one end to end on a random tree with the certified generic pipeline.
//
// Build & run:  ./build/problem_zoo
#include <cstdio>

#include "algo/bw_generic.hpp"
#include "bw/tree_problem.hpp"
#include "graph/families.hpp"
#include "problems/classify.hpp"
#include "problems/lclgen.hpp"

int main() {
  using namespace lcl;

  std::printf("Sampled problems (base seed 7):\n");
  std::printf("  %-16s %-24s %-13s %s\n", "seed", "name", "predicted",
              "landscape row");
  const auto tables = problems::sample_problems(/*base_seed=*/7,
                                                /*count=*/8);
  for (const problems::BwTable& t : tables) {
    const problems::Classification c = problems::classify_table(t);
    std::printf("  %-16llu %-24.24s %-13s %s\n",
                static_cast<unsigned long long>(t.seed), t.name.c_str(),
                problems::to_string(c.predicted).c_str(),
                c.region.range.c_str());
  }

  // Solve the first sampled problem on a random delta-3 tree and check
  // the labeling with the independent checker.
  const problems::BwTable& table = tables.front();
  const graph::Tree tree =
      graph::make_family_instance("prufer", 400, /*seed=*/3, /*delta=*/3);
  const algo::BwGenericProgram program(tree, table);
  std::printf("\n%s on a 400-node prufer tree: mode %s\n",
              table.name.c_str(), algo::to_string(program.mode()));
  if (program.solved()) {
    const std::string err =
        bw::check_tree_bw(tree, table, program.edge_labels());
    std::printf("  independent checker: %s\n",
                err.empty() ? "accepted" : err.c_str());
  } else {
    std::printf("  no labeling exists: %s\n", program.failure().c_str());
  }

  std::printf("\nThe problem_sweep scenario does this at scale:\n"
              "  ./build/lclbench --run problem_sweep --problems 60\n");
  return 0;
}
