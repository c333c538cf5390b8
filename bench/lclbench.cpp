// Unified experiment runner: every paper scenario behind one CLI.
// Flags (see cli_main in scenario.cpp): --list, --run <name|all>,
// --n <scale>, --reps <r>, --threads <t>, --seed <s>,
// --families <csv|all>, --json [path]; plus the snapshot tooling: the
// pairwise regression gate --compare <old> <new> and the long-horizon
// trend gate --history <snap> <snap>... [--trend-window <k>] (see
// bench/compare.hpp for the checks and exit codes).
#include "scenario.hpp"

int main(int argc, char** argv) {
  return lcl::bench::cli_main(argc, argv);
}
