// The workloads and the plumbing they share.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string lcld;       ///< path of the lcld binary (service workloads)
  std::string trace_dir;  ///< where the traced run writes its spans
};

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The i-th derived seed of a workload seed. Every input the program
/// receives (IDs, problem seeds, the Zipf draws) comes from these.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i) {
  return splitmix64(splitmix64(seed) ^ (i * 0x9e3779b97f4a7c15ull));
}

/// pi25_setup and pi35_rounds.
int run_sweep(const Options& opt, Report& report);
/// lcld_classify and lcld_mixed.
int run_service(const Options& opt, Report& report);
/// The benchmark's own math on synthetic inputs; returns failures.
int run_selftest();

/// Adds every per-layer metric in its fixed order and unit; a layer a
/// workload does not exercise reads 0.
void emit_layers(const std::map<std::string, double>& values,
                 Report& report);

/// Writes the traced run's spans under `opt.trace_dir`.
void write_trace(const Options& opt, const Tracer& tracer);

}  // namespace perfbench
