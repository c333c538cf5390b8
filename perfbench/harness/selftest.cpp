// Self-tests of the benchmark's own math on synthetic inputs: the
// nearest-rank percentile and the ten-samples-beyond rule, the rate
// ladder pick including a growing backlog, and span self time.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("selftest FAILED: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentiles() {
  const std::vector<double> v = iota(100);
  expect(near(nearest_rank(v, 0.5), 50), "p50 of 1..100 is 50");
  expect(near(nearest_rank(v, 0.99), 99), "p99 of 1..100 is 99");
  expect(near(nearest_rank(v, 1.0), 100), "p100 is the max");
  expect(near(nearest_rank(iota(10), 0.01), 1), "tiny p is the min");
  expect(near(nearest_rank({}, 0.5), 0), "empty input yields 0");
  expect(near(nearest_rank({7}, 0.99), 7), "single sample");
  expect(near(median({3, 1, 2, 4}), 2), "even-count median is lower");

  // Ten samples beyond: p99 needs n - ceil(0.99 n) >= 10.
  expect(samples_beyond(100, 0.99) == 1, "p99 of 100 has 1 beyond");
  expect(!percentile_supported(100, 0.99), "p99 of 100 unsupported");
  expect(!percentile_supported(999, 0.99), "p99 of 999 unsupported");
  expect(percentile_supported(1000, 0.99), "p99 of 1000 supported");
  expect(percentile_supported(20, 0.5), "p50 of 20 supported");
  expect(!percentile_supported(19, 0.5), "p50 of 19 unsupported");
}

Rung rung(double rate, int n, double latency_ms, bool growing = false,
          bool valid = true) {
  return {rate, std::vector<double>(static_cast<std::size_t>(n), latency_ms),
          growing, valid};
}

void ladder() {
  // The limit applies to p99; the top rung breaks it.
  std::vector<Rung> rungs = {rung(1000, 2000, 0.2), rung(2000, 2000, 0.4),
                             rung(4000, 2000, 3.0)};
  expect(near(max_rate_meeting(rungs, 1.0), 2000), "highest rung under 1 ms");
  // A growing backlog disqualifies a rung whose p99 looks fine.
  rungs[1].growing = true;
  expect(near(max_rate_meeting(rungs, 1.0), 1000), "growing rung excluded");
  // A generator-bound rung is excluded, too.
  rungs[0].valid = false;
  expect(near(max_rate_meeting(rungs, 1.0), 0), "invalid rung excluded");
  // A rung too short to support p99 never qualifies.
  expect(near(max_rate_meeting({rung(8000, 500, 0.1)}, 1.0), 0),
         "unsupported p99 excluded");
  // One slow sample in 1000 stays within p99; eleven do not.
  Rung r = rung(1000, 1000, 0.1);
  r.latency_ms[0] = 50;
  expect(near(max_rate_meeting({r}, 1.0), 1000), "one outlier tolerated");
  for (int i = 0; i < 11; ++i) r.latency_ms[static_cast<std::size_t>(i)] = 50;
  expect(near(max_rate_meeting({r}, 1.0), 0), "eleven outliers break p99");

  // Backlog: flat, jittery, and growing series.
  expect(!backlog_growing(std::vector<double>(100, 3)), "flat backlog");
  std::vector<double> jitter;
  for (int i = 0; i < 100; ++i) jitter.push_back(i % 7);
  expect(!backlog_growing(jitter), "jittery backlog is not growing");
  std::vector<double> ramp;
  for (int i = 0; i < 100; ++i) ramp.push_back(i);
  expect(backlog_growing(ramp), "linear ramp is growing");
  expect(!backlog_growing({0, 50, 100}), "too few samples to judge");
}

void self_time() {
  // root [0, 10] with children [1, 4] and [3, 6] (overlapping) and a
  // grandchild [2, 3] under the first child.
  std::vector<Span> spans = {
      {0, -1, 1, "job", 0, 10},
      {1, 0, 1, "factory", 1, 4},
      {2, 0, 1, "engine", 3, 6},
      {3, 1, 1, "alloc", 2, 3},
  };
  auto self = self_time_s(spans);
  expect(near(self["job"], 5), "root self = 10 - union(1..6)");
  expect(near(self["factory"], 2), "child self = 3 - grandchild 1");
  expect(near(self["engine"], 3), "leaf self = duration");
  expect(near(self["alloc"], 1), "grandchild self = duration");

  // A child sticking out of its parent is clipped; two traces with the
  // same span names add up.
  spans = {{0, -1, 1, "job", 0, 4},  {1, 0, 1, "engine", 2, 9},
           {2, -1, 2, "job", 10, 12}, {3, 2, 2, "engine", 10, 11}};
  self = self_time_s(spans);
  expect(near(self["job"], 2 + 1), "clipped child, summed over traces");
  expect(near(self["engine"], 7 + 1), "leaf durations sum");
}

}  // namespace

int run_selftest() {
  failures = 0;
  percentiles();
  ladder();
  self_time();
  return failures;
}

}  // namespace perfbench
