#include "scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "algo/registry.hpp"
#include "compare.hpp"
#include "core/json.hpp"
#include "graph/families.hpp"

namespace lcl::bench {

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Restarts the process's peak resident set (VmHWM in
/// /proc/self/status) from its current resident set. False where that
/// is not possible, e.g. off Linux.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// The process's peak resident set in KiB (VmHWM), or -1 if unknown.
std::int64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::int64_t kb = -1;
      status >> kb;
      return kb;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return -1;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  // Integral values inside the exactly-representable double range are
  // printed in full: %.6g would silently round e.g. the 53-bit problem
  // seeds the problem_sweep metrics list per disagreement. The cutoff
  // logic is shared with core::json::dump so the golden round-trip
  // test keeps the writer and the serializer in sync.
  return core::json::format_number(v, "%.6g");
}

struct ScenarioReport {
  std::string name;
  double wall_ms = 0.0;
  /// Peak resident memory of the process while the scenario ran, in KiB
  /// (VmHWM, restarted before it; it includes what earlier scenarios
  /// left resident). -1 when it could not be measured.
  std::int64_t peak_rss_kb = -1;
  ScenarioResult result;
};

/// Renders the snapshot JSON text (schema lclbench-v3) that `--json`
/// writes verbatim.
std::string render_json(const ScenarioOptions& opts,
                        const std::vector<ScenarioReport>& reports,
                        double total_wall_ms) {
  std::ostringstream os;
  const std::time_t now = std::time(nullptr);
  char stamp[64];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ",
                std::gmtime(&now));
  os << "{\n";
  os << "  \"schema\": \"lclbench-v3\",\n";
  os << "  \"timestamp\": \"" << stamp << "\",\n";
  os << "  \"n_scale\": " << json_number(opts.n_scale) << ",\n";
  os << "  \"reps\": " << opts.reps << ",\n";
  os << "  \"threads\": " << opts.threads << ",\n";
  os << "  \"seed\": " << opts.seed << ",\n";
  // Problem-axis selection (additive to schema lclbench-v3): the
  // problem_sweep scenario's sampled-problem count and generator seed,
  // so snapshots pin exactly which LCLs were classified.
  os << "  \"problems\": " << opts.problems << ",\n";
  os << "  \"problem_seed\": " << opts.problem_seed << ",\n";
  os << "  \"families\": [";
  for (std::size_t i = 0; i < opts.families.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(opts.families[i])
       << "\"";
  }
  os << "],\n";
  // Algorithm-axis selection (additive to schema lclbench-v3): the
  // solvers swept by algorithm-driven scenarios and any --algo-opt
  // overrides, so snapshots record the full cross-product provenance.
  os << "  \"algos\": [";
  for (std::size_t i = 0; i < opts.algos.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(opts.algos[i]) << "\"";
  }
  os << "],\n";
  os << "  \"algo_opts\": [";
  for (std::size_t i = 0; i < opts.algo_opts.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(opts.algo_opts[i])
       << "\"";
  }
  os << "],\n";
  os << "  \"total_wall_ms\": " << json_number(total_wall_ms) << ",\n";
  os << "  \"scenarios\": [\n";
  for (std::size_t si = 0; si < reports.size(); ++si) {
    const ScenarioReport& rep = reports[si];
    os << "    {\n";
    os << "      \"name\": \"" << json_escape(rep.name) << "\",\n";
    os << "      \"wall_ms\": " << json_number(rep.wall_ms) << ",\n";
    // Additive to schema lclbench-v3; absent when not measured.
    if (rep.peak_rss_kb >= 0) {
      os << "      \"peak_rss_kb\": " << rep.peak_rss_kb << ",\n";
    }
    os << "      \"metrics\": {";
    std::size_t mi = 0;
    for (const auto& [key, value] : rep.result.metrics) {
      os << (mi++ ? ", " : "") << "\"" << json_escape(key)
         << "\": " << json_number(value);
    }
    os << "},\n";
    os << "      \"series\": [\n";
    for (std::size_t i = 0; i < rep.result.series.size(); ++i) {
      const Series& s = rep.result.series[i];
      os << "        {\n";
      os << "          \"title\": \"" << json_escape(s.title) << "\",\n";
      os << "          \"scale_name\": \"" << json_escape(s.scale_name)
         << "\",\n";
      os << "          \"predicted_lo\": " << json_number(s.predicted_lo)
         << ",\n";
      os << "          \"predicted_hi\": " << json_number(s.predicted_hi)
         << ",\n";
      const core::PowerFit fit = core::fit_power_law(core::to_samples(s.runs));
      if (fit.ok) {
        os << "          \"fitted_exponent\": "
           << json_number(fit.exponent) << ",\n";
        os << "          \"r_squared\": " << json_number(fit.r_squared)
           << ",\n";
      }
      os << "          \"runs\": [";
      for (std::size_t r = 0; r < s.runs.size(); ++r) {
        const core::MeasuredRun& run = s.runs[r];
        os << (r ? ", " : "") << "{\"scale\": " << json_number(run.scale)
           << ", \"n\": " << run.n
           << ", \"node_averaged\": " << json_number(run.node_averaged)
           << ", \"worst_case\": " << run.worst_case;
        // Omitted entirely when the job did not measure construction
        // time, so a reader never mistakes "unrecorded" for "0 ms".
        if (run.build_ms >= 0.0) {
          os << ", \"build_ms\": " << json_number(run.build_ms);
        }
        // Only runs on a multi-worker pool shard; at --threads 1 the
        // field is absent and the snapshot is what it always was.
        if (run.sharded_rounds > 0) {
          os << ", \"sharded_rounds\": " << run.sharded_rounds;
        }
        // Termination-round distribution: exact tail percentiles (max is
        // worst_case) plus the log-bucketed histogram — bucket 0 is
        // T_v == 0, bucket b >= 1 is T_v in [2^(b-1), 2^b - 1].
        os << ", \"term_p50\": " << run.term.p50
           << ", \"term_p90\": " << run.term.p90
           << ", \"term_p99\": " << run.term.p99;
        os << ", \"term_hist\": [";
        for (std::size_t b = 0; b < run.term.hist.size(); ++b) {
          os << (b ? ", " : "") << run.term.hist[b];
        }
        os << "]";
        // Repetition spread (mean is node_averaged itself; at reps == 1
        // the spread degenerates to stddev 0, min == max == mean).
        os << ", \"reps\": " << run.reps << ", \"reps_ok\": " << run.reps_ok
           << ", \"na_stddev\": " << json_number(run.na_stddev)
           << ", \"na_min\": " << json_number(run.na_min)
           << ", \"na_max\": " << json_number(run.na_max);
        os << ", \"status\": \"" << core::to_string(run.status) << "\""
           << ", \"valid\": " << (run.ok() ? "true" : "false");
        if (!run.ok() && !run.check_reason.empty()) {
          os << ", \"check_reason\": \"" << json_escape(run.check_reason)
             << "\"";
        }
        os << "}";
      }
      os << "]\n";
      os << "        }" << (i + 1 < rep.result.series.size() ? "," : "")
         << "\n";
    }
    os << "      ]\n";
    os << "    }" << (si + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

/// Returns false (after saying so on stderr) when the file cannot be
/// written, so a lost snapshot fails the run.
bool write_json(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  f.close();
  if (!f) {
    std::fprintf(stderr, "lclbench: failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

void print_usage() {
  std::printf(
      "lclbench — unified runner for the paper's experiment scenarios\n"
      "\n"
      "usage: lclbench [--list] [--list-algos] [--run <name|all>]\n"
      "                [--n <scale>] [--reps <r>] [--threads <t>]\n"
      "                [--seed <s>] [--families <csv|all>]\n"
      "                [--algos <csv|all>] [--algo-opt <k=v>]...\n"
      "                [--problems <count>] [--problem-seed <s>]\n"
      "                [--json [path]]\n"
      "       lclbench --compare <old> <new>\n"
      "                [--tol-exponent <e>] [--tol-avg <rel>]\n"
      "                [--tol-wall <ratio>] [--allow-missing]\n"
      "       lclbench --history <snap> <snap> [<snap>...]\n"
      "                [--trend-window <k>] [--tol-exponent <e>]\n"
      "                [--tol-avg <rel>] [--tol-wall <ratio>]\n"
      "                [--allow-missing]\n"
      "\n"
      "  --list          enumerate registered scenarios and exit\n"
      "  --list-algos    enumerate the algorithm registry (solvers,\n"
      "                  paper bindings, options) and exit\n"
      "  --run <name>    run one scenario, or `all` for the full sweep\n"
      "  --n <scale>     instance-size multiplier in (0, 100] (default\n"
      "                  1.0 = paper scale)\n"
      "  --reps <r>      repetitions per measurement point (default 1);\n"
      "                  points carry mean/stddev/min/max and a pooled\n"
      "                  termination histogram over the ok reps\n"
      "  --threads <t>   sweep worker threads (default: hardware)\n"
      "  --seed <s>      global seed mixed into every job seed (default 0\n"
      "                  = the historical deterministic sweeps)\n"
      "  --families <f>  comma-separated instance families for the\n"
      "                  family-driven scenarios (default/`all` = every\n"
      "                  tree family in the registry)\n"
      "  --algos <a>     comma-separated solvers for the algorithm-driven\n"
      "                  scenarios, e.g. solver_matrix (default/`all` =\n"
      "                  every registered solver)\n"
      "  --algo-opt k=v  solver option override, repeatable; applied to\n"
      "                  every selected solver that declares the key\n"
      "                  (see --list-algos for keys and ranges)\n"
      "  --problems <p>  distinct sampled LCL problems for the\n"
      "                  problem_sweep scenario (default 60)\n"
      "  --problem-seed <s>  base seed of the problem generator\n"
      "                  (default 1); per-problem sub-seeds are recorded\n"
      "                  in the snapshot\n"
      "  --json [path]   write a BENCH_*.json snapshot (schema\n"
      "                  lclbench-v3; default path BENCH_<run>.json);\n"
      "                  a failed write exits 1\n"
      "\n"
      "  every flag except --algo-opt may be given at most once;\n"
      "  duplicates are a usage error\n"
      "\n"
      "  --compare       diff two JSON snapshots and exit nonzero on\n"
      "                  regression (schema, validity/status, exponent\n"
      "                  drift > --tol-exponent [0.15], node-averaged\n"
      "                  drift at matching scales > --tol-avg [off],\n"
      "                  wall-time ratio > --tol-wall [off]);\n"
      "                  --allow-missing downgrades missing\n"
      "                  scenarios/series to warnings\n"
      "  --history       order N >= 2 snapshots by timestamp and gate\n"
      "                  trajectories: latest-vs-previous coverage and\n"
      "                  validity plus *sustained* monotone drift (of\n"
      "                  fitted exponents, node-averages, wall time)\n"
      "                  across the last --trend-window [3] snapshots\n");
}

/// --list-algos: one block per registered solver — paper binding,
/// predicted complexity, declared input needs, and every option with its
/// default and range.
void print_algo_registry() {
  for (const algo::SolverSpec& s : algo::registry()) {
    std::printf("  %-18s %s\n", s.name.c_str(), s.summary.c_str());
    std::printf("    %-16s %s — %s\n", "solves:", s.problem.c_str(),
                s.theorem.c_str());
    std::printf("    %-16s %s\n", "node-averaged:", s.complexity.c_str());
    std::string needs;
    if (s.needs & algo::kNeedShuffledIds) needs += " shuffled-ids";
    if (s.needs & algo::kNeedWeightInputs) needs += " weight-marking";
    if (s.needs & algo::kNeedDFreeInputs) needs += " dfree-marking";
    if (s.needs & algo::kNeedRng) needs += " rng";
    std::printf("    %-16s%s\n", "needs:",
                needs.empty() ? " (topology only)" : needs.c_str());
    for (const algo::OptionSpec& o : s.options) {
      char range[64];
      std::snprintf(range, sizeof(range), "[%lld, %s]",
                    static_cast<long long>(o.min),
                    o.max > (std::int64_t{1} << 40)
                        ? "inf"
                        : std::to_string(o.max).c_str());
      if (o.is_list) {
        std::printf("      %-14s %-14s %s\n", o.key.c_str(),
                    (std::string("list ") + range).c_str(),
                    o.summary.c_str());
      } else {
        std::printf("      %-14s %-14s %s (default %lld)\n",
                    o.key.c_str(), range, o.summary.c_str(),
                    static_cast<long long>(o.def));
      }
    }
  }
}

}  // namespace

std::int64_t ScenarioContext::scaled(std::int64_t base,
                                     std::int64_t floor) const {
  const double scale = opts_.n_scale;
  if (!(scale > 0.0)) {
    throw std::invalid_argument("ScenarioContext: n_scale must be > 0, got " +
                                std::to_string(scale));
  }
  // Clamp in double before converting: llround's result is unspecified
  // beyond the int64 range (glibc returns INT64_MIN, which the floor then
  // turned into a silent 2). 0x1p63 is the first double past INT64_MAX.
  const double scaled = static_cast<double>(base) * scale;
  if (scaled >= 0x1p63) return std::numeric_limits<std::int64_t>::max();
  // Also catches 0 * inf, the one NaN a positive scale can produce.
  if (!(scaled >= static_cast<double>(floor))) return floor;
  return std::max<std::int64_t>(floor, std::llround(scaled));
}

std::vector<core::MeasuredRun> ScenarioContext::run_sweep(
    std::vector<core::BatchJob> jobs) {
  const int reps = std::max(1, opts_.reps);
  std::vector<core::BatchJob> expanded;
  expanded.reserve(jobs.size() * static_cast<std::size_t>(reps));
  for (const core::BatchJob& job : jobs) {
    for (int r = 0; r < reps; ++r) {
      core::BatchJob rep = job;
      // Distinct deterministic seed per repetition, with the global
      // --seed mixed in; rep 0 at --seed 0 keeps the job's own seed so
      // the historical sweeps are reproduced exactly.
      rep.seed = job.seed +
                 static_cast<std::uint64_t>(r) * 0x9e3779b97f4a7c15ULL +
                 opts_.seed * 0xd1b54a32d192ed03ULL;
      expanded.push_back(std::move(rep));
    }
  }
  const std::vector<core::MeasuredRun> raw = pool_.run_all(expanded);
  // Aggregate each point's repetitions. Statistics (mean/stddev/min/max
  // of node-averaged, pooled T_v histogram, max worst-case) are computed
  // over the *ok* repetitions only, so a failed rep's zeroed stats never
  // pollute the averages; the point's status is kOk iff every rep was,
  // otherwise the first failure is surfaced. build_ms averages over the
  // reps that actually recorded one, preserving the -1 "not recorded"
  // sentinel instead of averaging it in as a sample.
  std::vector<core::MeasuredRun> averaged;
  averaged.reserve(jobs.size());
  // A rep that ran the engine still carries a real measurement even when
  // it is not ok: truncated reps hold censored lower bounds and
  // check-failed reps hold the full (rejected) run. build_failed /
  // exception reps carry nothing.
  const auto has_measurement = [](const core::MeasuredRun& rep) {
    return rep.status == core::RunStatus::kOk ||
           rep.status == core::RunStatus::kCheckFailed ||
           rep.status == core::RunStatus::kTruncated;
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::size_t base = i * static_cast<std::size_t>(reps);
    core::MeasuredRun acc;
    acc.scale = raw[base].scale;
    acc.n = raw[base].n;
    acc.status = core::RunStatus::kOk;
    acc.reps = reps;
    acc.reps_ok = 0;
    double build_sum = 0.0;
    int build_count = 0;
    for (int r = 0; r < reps; ++r) {
      const core::MeasuredRun& rep = raw[base + static_cast<std::size_t>(r)];
      acc.sharded_rounds += rep.sharded_rounds;
      if (rep.build_ms >= 0.0) {
        build_sum += rep.build_ms;
        ++build_count;
      }
      if (rep.ok()) {
        ++acc.reps_ok;
      } else if (acc.status == core::RunStatus::kOk) {
        acc.status = rep.status;
        acc.check_reason = rep.check_reason;
      }
    }
    // Statistics pool over the ok reps; with no ok rep at all, fall back
    // to the measured non-ok reps so e.g. a fully-truncated point keeps
    // its censored lower bounds (clearly flagged by the non-ok status)
    // instead of zeroing out. to_samples still ignores non-ok points.
    const bool use_ok = acc.reps_ok > 0;
    double sum = 0.0;
    double sum_sq = 0.0;
    int contributors = 0;
    for (int r = 0; r < reps; ++r) {
      const core::MeasuredRun& rep = raw[base + static_cast<std::size_t>(r)];
      if (use_ok ? !rep.ok() : !has_measurement(rep)) continue;
      ++contributors;
      sum += rep.node_averaged;
      sum_sq += rep.node_averaged * rep.node_averaged;
      if (contributors == 1) {
        acc.n = rep.n;
        acc.na_min = rep.node_averaged;
        acc.na_max = rep.node_averaged;
      } else {
        acc.na_min = std::min(acc.na_min, rep.node_averaged);
        acc.na_max = std::max(acc.na_max, rep.node_averaged);
      }
      acc.worst_case = std::max(acc.worst_case, rep.worst_case);
      acc.term.merge(rep.term);
    }
    if (contributors > 0) {
      const double mean = sum / contributors;
      acc.node_averaged = mean;
      const double var = sum_sq / contributors - mean * mean;
      acc.na_stddev = var > 0.0 ? std::sqrt(var) : 0.0;
      // Pooled percentiles are bucket upper edges; never report a
      // percentile beyond the observed maximum.
      acc.term.p50 = std::min(acc.term.p50, acc.worst_case);
      acc.term.p90 = std::min(acc.term.p90, acc.worst_case);
      acc.term.p99 = std::min(acc.term.p99, acc.worst_case);
    }
    acc.build_ms = build_count > 0 ? build_sum / build_count : -1.0;
    averaged.push_back(std::move(acc));
  }
  return averaged;
}

void ScenarioContext::report(const std::string& title,
                             const std::string& scale_name,
                             double predicted_lo, double predicted_hi,
                             std::vector<core::MeasuredRun> runs) {
  core::print_experiment(title, runs, scale_name, predicted_lo,
                         predicted_hi);
  record(title, scale_name, predicted_lo, predicted_hi, std::move(runs));
}

void ScenarioContext::record(const std::string& title,
                             const std::string& scale_name,
                             double predicted_lo, double predicted_hi,
                             std::vector<core::MeasuredRun> runs) {
  Series s;
  s.title = title;
  s.scale_name = scale_name;
  s.predicted_lo = predicted_lo;
  s.predicted_hi = predicted_hi;
  s.runs = std::move(runs);
  result_.series.push_back(std::move(s));
}

void ScenarioContext::metric(const std::string& key, double value) {
  result_.metrics[key] = value;
}

const std::vector<Scenario>& all_scenarios() {
  static const std::vector<Scenario> registry = {
      {"fig2_landscape", "E1: the completed landscape + measured witnesses",
       run_fig2_landscape},
      {"thm11_hier35",
       "E2: Theorem 11 — k-hierarchical 3.5-coloring ~ (log* n)^{1/2^{k-1}}",
       run_thm11_hier35},
      {"thm2_pi25",
       "E3: Theorems 2/3 — Pi^{2.5} node-average Theta(n^{alpha1})",
       run_thm2_pi25},
      {"thm4_pi35",
       "E4: Theorems 4/5 — Pi^{3.5} between (log* n)^{alpha1(x)} and "
       "(log* n)^{alpha1(x')}",
       run_thm4_pi35},
      {"thm1_density", "E5: Theorem 1 — density of the polynomial regime",
       run_thm1_density},
      {"thm6_density", "E6: Theorem 6 — density of the log* regime",
       run_thm6_density},
      {"lemma69_weightaug",
       "E7: Lemma 69 — weight-augmented 2.5-coloring Theta(n^{1/k})",
       run_lemma69_weightaug},
      {"cor60_gap", "E8: Corollary 60 — the omega(sqrt n)..o(n) gap",
       run_cor60_gap},
      {"thm7_decidability",
       "E9: Theorem 7 — the omega(1)..(log* n)^{o(1)} gap & decidability",
       run_thm7_decidability},
      {"lemma72_decomposition",
       "E10: Lemma 72 — rake & compress decompositions", run_lemma72_decomposition},
      {"lemma23_dfree", "E11: Lemmas 23/40/52 — weight-gadget efficiency",
       run_lemma23_dfree},
      {"linial_logstar",
       "E12: Linial / Corollary 17 — 3-coloring paths in Theta(log* n)",
       run_linial_logstar},
      {"fig2_randomized",
       "E13: randomized dichotomy — O(1) or n^{Omega(1)}",
       run_fig2_randomized},
      {"ablation", "E14: ablations of the design choices", run_ablation},
      {"engine_micro",
       "substrate micro-benchmarks: engine and dispatch throughput",
       run_engine_micro},
      {"family_sweep",
       "registry coverage: distributed decomposition across --families",
       run_family_sweep},
      {"solver_matrix",
       "algorithm-registry coverage: every --algos solver certified on "
       "every compatible --families instance",
       run_solver_matrix},
      {"problem_sweep",
       "problem-space sweep: sampled bw tables classified, solved "
       "through the registry, certified, agreement reported",
       run_problem_sweep},
      {"service_sweep",
       "lcld load generator: Zipf repeat-query mix through the service "
       "layer — cache-hit rate, warm p50/p99 latency, throughput",
       run_service_sweep},
  };
  return registry;
}

int cli_main(int argc, char** argv) {
  ScenarioOptions opts;
  bool list = false;
  bool list_algos = false;
  bool want_json = false;
  std::string json_path;
  std::string run_name;
  bool compare_mode = false;
  std::string compare_old;
  std::string compare_new;
  CompareOptions compare_opts;
  bool history_mode = false;
  std::vector<std::string> history_paths;
  HistoryOptions history_opts;

  // Duplicate-flag detection: every flag except the deliberately
  // repeatable --algo-opt may appear at most once. Without this, the
  // silent last-one-wins made `--n 0.1 ... --n 1.0` typos unfindable.
  std::set<std::string> seen_flags;
  auto once = [&seen_flags](const std::string& flag) {
    if (!seen_flags.insert(flag).second) {
      std::fprintf(stderr, "lclbench: duplicate %s\n", flag.c_str());
      std::exit(2);
    }
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lclbench: %s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto parse_uint64 = [&](const char* flag) -> std::uint64_t {
      const std::string value = next_value(flag);
      try {
        // stoull would silently wrap a negative value to 2^64 - |v|.
        if (value.empty() || value[0] == '-') {
          throw std::invalid_argument(value);
        }
        std::size_t used = 0;
        const std::uint64_t parsed = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return parsed;
      } catch (const std::exception&) {
        std::fprintf(stderr,
                     "lclbench: %s expects an unsigned integer, got "
                     "'%s'\n",
                     flag, value.c_str());
        std::exit(2);
      }
    };
    auto parse_double = [&](const char* flag) {
      const std::string value = next_value(flag);
      try {
        std::size_t used = 0;
        const double parsed = std::stod(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return parsed;
      } catch (const std::exception&) {
        std::fprintf(stderr, "lclbench: %s expects a number, got '%s'\n",
                     flag, value.c_str());
        std::exit(2);
      }
    };
    auto parse_int = [&](const char* flag) -> int {
      const std::string value = next_value(flag);
      try {
        std::size_t used = 0;
        const long long parsed = std::stoll(value, &used);
        if (used != value.size() ||
            parsed < std::numeric_limits<int>::min() ||
            parsed > std::numeric_limits<int>::max()) {
          throw std::invalid_argument(value);
        }
        return static_cast<int>(parsed);
      } catch (const std::exception&) {
        std::fprintf(stderr, "lclbench: %s expects an integer, got '%s'\n",
                     flag, value.c_str());
        std::exit(2);
      }
    };
    if (arg == "--list") {
      once("--list");
      list = true;
    } else if (arg == "--list-algos") {
      once("--list-algos");
      list_algos = true;
    } else if (arg == "--run") {
      once("--run");
      run_name = next_value("--run");
    } else if (arg == "--n") {
      once("--n");
      opts.n_scale = parse_double("--n");
      // Also rejects nan: every comparison with it is false.
      if (!(opts.n_scale > 0.0 && opts.n_scale <= 100.0)) {
        std::fprintf(stderr,
                     "lclbench: --n expects a scale in (0, 100], got '%s'\n",
                     argv[i]);
        print_usage();
        std::exit(2);
      }
    } else if (arg == "--reps") {
      once("--reps");
      opts.reps = parse_int("--reps");
    } else if (arg == "--threads") {
      once("--threads");
      opts.threads = parse_int("--threads");
    } else if (arg == "--seed") {
      once("--seed");
      opts.seed = parse_uint64("--seed");
    } else if (arg == "--problems") {
      once("--problems");
      opts.problems = parse_int("--problems");
      if (opts.problems <= 0) {
        std::fprintf(stderr,
                     "lclbench: --problems expects a positive count\n");
        std::exit(2);
      }
    } else if (arg == "--problem-seed") {
      once("--problem-seed");
      opts.problem_seed = parse_uint64("--problem-seed");
    } else if (arg == "--families") {
      once("--families");
      const std::string value = next_value("--families");
      try {
        opts.families = graph::parse_family_list(value);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "lclbench: %s (try one of:", e.what());
        for (const std::string& name : graph::family_names()) {
          std::fprintf(stderr, " %s", name.c_str());
        }
        std::fprintf(stderr, ")\n");
        std::exit(2);
      }
    } else if (arg == "--algos") {
      once("--algos");
      const std::string value = next_value("--algos");
      try {
        opts.algos = algo::parse_solver_list(value);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "lclbench: %s\n", e.what());
        std::exit(2);
      }
    } else if (arg == "--algo-opt") {
      const std::string value = next_value("--algo-opt");
      try {
        (void)algo::split_option(value);  // syntactic check only here
      } catch (const std::exception& e) {
        std::fprintf(stderr, "lclbench: --algo-opt %s\n", e.what());
        std::exit(2);
      }
      // Semantic validation (key known, value parses and is in range)
      // happens below, once the --algos selection is resolved.
      opts.algo_opts.push_back(value);
    } else if (arg == "--json") {
      once("--json");
      want_json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (arg == "--history") {
      once("--history");
      history_mode = true;
      history_paths.push_back(next_value("--history"));
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        history_paths.push_back(argv[++i]);
      }
    } else if (arg == "--trend-window") {
      once("--trend-window");
      history_opts.window = parse_int("--trend-window");
      if (history_opts.window < 2) {
        std::fprintf(stderr,
                     "lclbench: --trend-window expects a window >= 2\n");
        std::exit(2);
      }
    } else if (arg == "--compare") {
      once("--compare");
      compare_mode = true;
      compare_old = next_value("--compare");
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "lclbench: --compare needs <old.json> <new.json>\n");
        std::exit(2);
      }
      compare_new = argv[++i];
    } else if (arg == "--tol-exponent") {
      once("--tol-exponent");
      compare_opts.tol_exponent = parse_double("--tol-exponent");
      history_opts.tol_exponent = compare_opts.tol_exponent;
    } else if (arg == "--tol-avg") {
      once("--tol-avg");
      compare_opts.tol_avg = parse_double("--tol-avg");
      history_opts.tol_avg = compare_opts.tol_avg;
    } else if (arg == "--tol-wall") {
      once("--tol-wall");
      compare_opts.tol_wall = parse_double("--tol-wall");
      history_opts.tol_wall = compare_opts.tol_wall;
    } else if (arg == "--allow-missing") {
      once("--allow-missing");
      compare_opts.allow_missing = true;
      history_opts.allow_missing = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else {
      std::fprintf(stderr, "lclbench: unknown argument %s\n", arg.c_str());
      print_usage();
      return 2;
    }
  }

  if (compare_mode) {
    return compare_snapshots(compare_old, compare_new, compare_opts);
  }
  if (history_mode) {
    return history_snapshots(history_paths, history_opts);
  }
  if (list) {
    for (const Scenario& s : all_scenarios()) {
      std::printf("  %-22s %s\n", s.name.c_str(), s.summary.c_str());
    }
    return 0;
  }
  if (list_algos) {
    print_algo_registry();
    return 0;
  }
  if (run_name.empty()) {
    print_usage();
    return 2;
  }

  std::vector<const Scenario*> to_run;
  for (const Scenario& s : all_scenarios()) {
    if (run_name == "all" || run_name == s.name) to_run.push_back(&s);
  }
  if (to_run.empty()) {
    std::fprintf(stderr,
                 "lclbench: unknown scenario '%s' (try --list)\n",
                 run_name.c_str());
    return 2;
  }

  // Resolve the family and solver selections once; every consumer
  // (scenarios, JSON snapshot) reads the same resolved lists.
  if (opts.families.empty()) {
    opts.families = graph::parse_family_list("all");
  }
  if (opts.algos.empty()) {
    opts.algos = algo::parse_solver_list("all");
  }
  // Validate every --algo-opt against the *selected* solvers now, so a
  // bad key or out-of-range value is a clean usage error here — never
  // an uncaught throw mid-scenario or on a worker thread. Each pair
  // must be accepted by every selected solver that declares its key,
  // which is exactly the set the algorithm-driven scenarios apply it to.
  for (const std::string& kv : opts.algo_opts) {
    try {
      bool known = false;
      for (const std::string& name : opts.algos) {
        const algo::SolverSpec& s = algo::solver(name);
        if (s.find_option(algo::split_option(kv).first) == nullptr) {
          continue;
        }
        known = true;
        algo::SolverConfig probe;
        algo::apply_option(s, probe, kv);
        probe.validate(s);
      }
      if (!known) {
        throw std::invalid_argument(
            "no selected solver has an option '" +
            algo::split_option(kv).first + "' (see --list-algos)");
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lclbench: --algo-opt %s\n", e.what());
      return 2;
    }
  }

  core::BatchOptions pool_opts;
  pool_opts.threads = opts.threads;
  core::BatchRunner pool(pool_opts);
  opts.threads = pool.threads();

  std::vector<ScenarioReport> reports;
  const auto total_start = std::chrono::steady_clock::now();
  for (const Scenario* s : to_run) {
    ScenarioContext ctx(opts, pool);
    const bool rss_reset = reset_peak_rss();
    const auto start = std::chrono::steady_clock::now();
    try {
      s->run(ctx);
    } catch (const std::exception& e) {
      // A scenario-level failure (misconfiguration that survived the
      // eager checks, a builder edge case, ...) is a clean error exit,
      // not an abort-with-core.
      std::fprintf(stderr, "lclbench: scenario %s failed: %s\n",
                   s->name.c_str(), e.what());
      return 1;
    }
    ScenarioReport rep;
    rep.name = s->name;
    rep.wall_ms = wall_ms_since(start);
    if (rss_reset) rep.peak_rss_kb = peak_rss_kb();
    rep.result = std::move(ctx.result());
    if (rep.peak_rss_kb >= 0) {
      std::printf("[%s: %.0f ms, peak RSS %.1f MiB]\n\n", s->name.c_str(),
                  rep.wall_ms, static_cast<double>(rep.peak_rss_kb) / 1024);
    } else {
      std::printf("[%s: %.0f ms]\n\n", s->name.c_str(), rep.wall_ms);
    }
    reports.push_back(std::move(rep));
  }
  const double total_wall_ms = wall_ms_since(total_start);

  if (want_json) {
    if (json_path.empty()) json_path = "BENCH_" + run_name + ".json";
    if (!write_json(json_path, render_json(opts, reports, total_wall_ms))) {
      return 1;
    }
  }
  return 0;
}

}  // namespace lcl::bench
