// perfbench — the benchmark harness. `perfbench/run.py` builds it and
// runs one workload per invocation:
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--lcld PATH] [--trace-dir DIR]
//   perfbench --selftest
//
// The last line of stdout is the JSON result. The exit code is 0 when
// every output check passed and 1 otherwise (2 for bad arguments).
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Fixed order of the per-layer metrics; BENCHMARK.json lists the same.
constexpr LayerMetric kLayers[] = {
    {"graph.build_ms", "ms"},
    {"algo.prepare_ms", "ms"},
    {"algo.factory_ms", "ms"},
    {"local.engine_ms", "ms"},
    {"local.node_rounds", "count"},
    {"local.rounds", "count"},
    {"local.node_rounds_per_s", "1/s"},
    {"local.ws_alloc_events", "count"},
    {"problems.certify_ms", "ms"},
    {"problems.certify_failed", "count"},
    {"core.job_wait_ms", "ms"},
    {"core.worker_busy_ratio", "share"},
    {"core.slowest_job_share", "share"},
    {"service.parse_us", "us"},
    {"service.classify_exec_us", "us"},
    {"service.cache_hit_ratio", "share"},
    {"service.cache_evictions", "count"},
    {"problems.classify_us", "us"},
    {"service.queue_wait_ms.classify", "ms"},
    {"service.queue_wait_ms.solve", "ms"},
    {"service.solve_exec_ms", "ms"},
    {"service.rejected", "count"},
    {"transport.overhead_us", "us"},
    {"transport.read_pauses", "count"},
    {"transport.peak_backlog_bytes", "bytes"},
    {"lcld.classify_p50_ms", "ms"},
    {"lcld.classify_p90_ms", "ms"},
    {"bench.send_lag_p99_ms", "ms"},
    {"trace.overhead_s", "s"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--lcld PATH] [--trace-dir DIR]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

void emit_layers(const std::map<std::string, double>& values,
                 Report& report) {
  for (const LayerMetric& m : kLayers) {
    const auto it = values.find(m.name);
    report.add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

void write_trace(const Options& opt, const Tracer& tracer) {
  if (opt.trace_dir.empty()) return;
  const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".spans.jsonl";
  if (tracer.write_jsonl(path)) {
    std::printf("spans written to %s\n", path.c_str());
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "--selftest") {
    const int failures = run_selftest();
    std::printf("selftest: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  try {
    for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
      const std::string& key = args[i];
      const std::string& value = args[i + 1];
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--lcld") {
        opt.lcld = value;
      } else if (key == "--trace-dir") {
        opt.trace_dir = value;
      } else {
        return usage();
      }
    }
    if (args.size() % 2 != 0 || opt.seconds <= 0) return usage();
  } catch (const std::exception&) {
    return usage();
  }

  Report report;
  try {
    if (opt.workload == "pi25_setup" || opt.workload == "pi35_rounds") {
      run_sweep(opt, report);
    } else if (opt.workload == "lcld_classify" ||
               opt.workload == "lcld_mixed") {
      run_service(opt, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
