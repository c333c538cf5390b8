// The sweep workloads: paper constructions solved through the registry
// surface, timed call by call from outside liblcl.
//
// Each job makes the calls `algo::run_registered` makes, in its order:
// `SolverConfig::validate` + `SolverSpec::factory`, `local::Engine::run`
// on `local::tls_workspace()`, then `SolverSpec::certify` (skipped for a
// truncated run). Instances are built once per set-up and reused by
// every measured pass; programs never mutate their tree.
//
// Output check: before measuring, every job runs once with the scalar
// kernels and per-node dispatch. Every measured pass (auto kernels and
// dispatch) must reproduce that run's sum of T_v, round count and worst
// case exactly and pass its certificate, since results are bit-identical
// across modes by contract.
#include <malloc.h>

#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.hpp"
#include "bench.hpp"
#include "core/batch.hpp"
#include "core/experiment.hpp"
#include "core/exponents.hpp"
#include "graph/builders.hpp"
#include "local/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace lcl;

struct JobSpec {
  std::string label;
  std::string solver;  ///< "apoly" (Pi^2.5) or "pi35" (Pi^3.5)
  int delta = 0, d = 0, k = 0;
  std::int64_t target_n = 0;
  std::int64_t lambda = 0;  ///< Lambda padding; 0 for apoly
};

/// Pi^2.5 on Definition-25 constructions, Delta=5 d=2 k=3, single
/// threaded: Algorithm A's precomputation dominates here.
std::vector<JobSpec> pi25_jobs() {
  std::vector<JobSpec> jobs;
  for (const std::int64_t n : {72000, 216000, 648000}) {
    jobs.push_back({"pi25-n" + std::to_string(n), "apoly", 5, 2, 3, n, 0});
  }
  return jobs;
}

/// Pi^3.5 with Lambda padding, k=2 on two (Delta, d) pairs plus one
/// k=3 job of ~955k nodes: engine rounds dominate here.
std::vector<JobSpec> pi35_jobs() {
  std::vector<JobSpec> jobs;
  for (const auto& [delta, d] : {std::pair{6, 3}, std::pair{9, 5}}) {
    for (const std::int64_t lambda : {64, 192, 576, 1728, 5184}) {
      jobs.push_back({"pi35-D" + std::to_string(delta) + "-L" +
                          std::to_string(lambda),
                      "pi35", delta, d, 2, 30000, lambda});
    }
  }
  jobs.push_back({"pi35-D6-k3-L1728", "pi35", 6, 3, 3, 30000, 1728});
  return jobs;
}

struct Prepared {
  graph::WeightedInstance inst;
  algo::SolverConfig cfg;
  const algo::SolverSpec* spec = nullptr;
};

struct SetupTimes {
  double build_s = 0.0;
  double prepare_s = 0.0;
};

/// Builds and prepares one job's instance (the set-up the sweep pays
/// before any solver runs).
Prepared prepare(const JobSpec& j, std::uint64_t id_seed, SetupTimes& t) {
  const auto t0 = Clock::now();
  const bool logstar = j.lambda > 0;
  const double x = logstar ? core::efficiency_x_prime(j.delta, j.d)
                           : core::efficiency_x(j.delta, j.d);
  const auto alphas = logstar ? core::alpha_profile_logstar(x, j.k)
                              : core::alpha_profile_poly(x, j.k);
  const double base = logstar ? static_cast<double>(j.lambda)
                              : static_cast<double>(j.target_n);
  const auto ell = core::lower_bound_lengths(alphas, base, j.target_n);
  Prepared p;
  p.inst = graph::make_weighted_construction(ell, j.delta);
  const auto t1 = Clock::now();
  graph::assign_ids(p.inst.tree, graph::IdScheme::kShuffled, id_seed);
  p.spec = &algo::solver(j.solver);
  p.cfg.set("k", j.k);
  p.cfg.set("d", j.d);
  // Decline-regime gammas, as in the thm2/thm4 scenarios.
  std::vector<std::int64_t> gammas;
  for (int i = 0; i + 1 < j.k; ++i) {
    gammas.push_back(std::max<std::int64_t>(
        2, p.inst.skeleton_lengths[static_cast<std::size_t>(i)]));
  }
  p.cfg.set("gammas", std::move(gammas));
  if (logstar) p.cfg.set("symmetry_pad", j.lambda);
  const auto t2 = Clock::now();
  t.build_s += seconds_between(t0, t1);
  t.prepare_s += seconds_between(t1, t2);
  return p;
}

/// What one execution of a job produced, with its call boundaries on
/// the pass clock.
struct Outcome {
  bool done = false;
  bool certified = false;
  bool truncated = false;
  std::string reason;
  std::int64_t node_rounds = 0;
  std::int64_t rounds = 0;
  std::int64_t worst = 0;
  std::int64_t alloc_events = 0;
  double start_s = 0, factory_s = 0, engine_s = 0, certify_s = 0;
};

void execute(const Prepared& p, local::KernelMode km,
             local::DispatchMode dm, const Tracer& clock, Outcome& out) {
  out.start_s = clock.now_s();
  algo::SolverConfig cfg = p.cfg;
  cfg.validate(*p.spec);
  const std::unique_ptr<local::Program> program =
      p.spec->factory(p.inst.tree, cfg);
  out.factory_s = clock.now_s();
  local::Engine engine(p.inst.tree, km, dm);
  local::Engine::Workspace& ws = local::tls_workspace();
  const std::int64_t allocs = ws.alloc_events();
  const local::RunStats stats = engine.run(*program, ws);
  out.alloc_events = ws.alloc_events() - allocs;
  out.engine_s = clock.now_s();
  out.truncated = stats.truncated;
  if (!stats.truncated) {
    const auto verdict = p.spec->certify(p.inst.tree, *program, stats, cfg);
    out.certified = verdict.ok;
    out.reason = verdict.reason;
  } else {
    out.reason = "truncated";
  }
  out.certify_s = clock.now_s();
  out.node_rounds = stats.total_rounds;
  out.rounds = stats.rounds;
  out.worst = stats.worst_case;
  out.done = true;
}

/// Runs every job once on `runner`; outcomes land in job order.
std::vector<Outcome> run_pass(core::BatchRunner& runner,
                              const std::vector<Prepared>& prepared,
                              local::KernelMode km, local::DispatchMode dm,
                              const Tracer& clock) {
  std::vector<Outcome> out(prepared.size());
  std::vector<core::BatchJob> jobs(prepared.size());
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    jobs[i].run = [&, i](std::uint64_t) {
      execute(prepared[i], km, dm, clock, out[i]);
      return core::MeasuredRun{};
    };
  }
  (void)runner.run_all(jobs);
  return out;
}

struct PassSummary {
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  std::map<std::string, double> layer;  ///< per-layer values of the pass
};

/// Summarizes one pass that started at `t0_s` on `threads` workers,
/// recording its spans into `tracer` when given.
PassSummary summarize(const std::vector<Outcome>& out, double t0_s,
                      int threads, int pass, Tracer* tracer) {
  PassSummary s;
  double first = out.empty() ? t0_s : out[0].start_s;
  double last = first;
  double busy = 0.0;
  double slowest = 0.0;
  std::int64_t node_rounds = 0, rounds = 0, allocs = 0, failed = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Outcome& o = out[i];
    first = std::min(first, o.start_s);
    last = std::max(last, o.certify_s);
    busy += o.certify_s - o.start_s;
    slowest = std::max(slowest, o.certify_s - o.start_s);
    node_rounds += o.node_rounds;
    rounds += o.rounds;
    allocs += o.alloc_events;
    if (!o.certified) ++failed;
    if (tracer != nullptr) {
      const std::int64_t trace = pass * 1000 + static_cast<int>(i);
      // The job span opens when the job is due, so its self time is the
      // time it waited for a worker.
      const int root =
          tracer->record(trace, -1, "core.job", t0_s, o.certify_s);
      tracer->record(trace, root, "algo.factory", o.start_s, o.factory_s);
      tracer->record(trace, root, "local.engine", o.factory_s, o.engine_s);
      tracer->record(trace, root, "problems.certify", o.engine_s,
                     o.certify_s);
    }
  }
  s.wall_s = last - first;
  s.layer["local.node_rounds"] = static_cast<double>(node_rounds);
  s.layer["local.rounds"] = static_cast<double>(rounds);
  s.layer["local.ws_alloc_events"] = static_cast<double>(allocs);
  s.layer["problems.certify_failed"] = static_cast<double>(failed);
  s.layer["core.worker_busy_ratio"] =
      s.wall_s > 0 ? busy / (threads * s.wall_s) : 0.0;
  s.layer["core.slowest_job_share"] = s.wall_s > 0 ? slowest / s.wall_s : 0;
  return s;
}

}  // namespace

int run_sweep(const Options& opt, Report& report) {
  const bool pi25 = opt.workload == "pi25_setup";
  const std::vector<JobSpec> specs = pi25 ? pi25_jobs() : pi35_jobs();
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = pi25 ? 1 : std::max(1, hw);

  // --- Set-up, repeated; the last set of instances is kept. ----------
  constexpr int kSetupReps = 9;
  std::vector<double> setup_s, build_ms, prepare_ms;
  std::vector<Prepared> prepared;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    prepared.clear();
    SetupTimes t;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      prepared.push_back(prepare(specs[i], mix_seed(opt.seed, i), t));
    }
    setup_s.push_back(t.build_s + t.prepare_s);
    build_ms.push_back(t.build_s * 1e3);
    prepare_ms.push_back(t.prepare_s * 1e3);
  }
  std::int64_t nodes = 0;
  for (const Prepared& p : prepared) nodes += p.inst.tree.size();

  // --- Reference outcomes in the other kernel and dispatch modes. ----
  Tracer clock;
  std::vector<Outcome> reference;
  {
    core::BatchRunner ref_runner({std::max(1, hw)});
    reference = run_pass(ref_runner, prepared, local::KernelMode::kScalar,
                         local::DispatchMode::kPerNode, clock);
  }
  // Freed memory goes back to the system before each pass, and the peak
  // resident memory restarts from what is left.
  ::malloc_trim(0);
  reset_peak_rss();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (!reference[i].done || !reference[i].certified) {
      report.note("reference run of " + specs[i].label + " failed: " +
                  reference[i].reason);
      ++report.failed;
    }
  }

  // --- Measured passes. ------------------------------------------------
  core::BatchRunner runner({threads});
  std::vector<PassSummary> plain, traced;
  std::deque<Tracer> tracers;  // stable addresses: passes hold pointers
  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    const bool trace_this = opt.trace && pass % 2 == 1;
    Tracer* tracer = nullptr;
    if (trace_this) tracer = &tracers.emplace_back();
    const Tracer& pclock = tracer != nullptr ? *tracer : clock;
    const double t0 = pclock.now_s();
    const std::vector<Outcome> out =
        run_pass(runner, prepared, local::KernelMode::kAuto,
                 local::DispatchMode::kAuto, pclock);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ++report.attempted;
      const Outcome& o = out[i];
      const Outcome& r = reference[i];
      const bool same = o.done && o.certified && !o.truncated &&
                        o.node_rounds == r.node_rounds &&
                        o.rounds == r.rounds && o.worst == r.worst;
      if (!same) {
        ++report.failed;
        report.note("check failed: " + specs[i].label + " pass " +
                    std::to_string(pass) + " (" + o.reason + ")");
      }
    }
    const double rss = peak_rss_mb(0);
    ::malloc_trim(0);
    reset_peak_rss();
    PassSummary s = summarize(out, t0, threads, pass, tracer);
    s.peak_rss_mb = rss;
    (trace_this ? traced : plain).push_back(std::move(s));
    const double elapsed = seconds_between(start, Clock::now());
    const bool enough = opt.trace ? (!plain.empty() && !traced.empty())
                                  : plain.size() >= 2;
    if (enough && elapsed >= opt.seconds) break;
  }

  std::vector<double> wall, rss;
  for (const PassSummary& s : plain) {
    wall.push_back(s.wall_s);
    rss.push_back(s.peak_rss_mb);
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %zu jobs, %lld nodes, %d worker(s), %zu untraced "
                "pass(es)",
                opt.workload.c_str(), specs.size(),
                static_cast<long long>(nodes), threads, plain.size());
  report.note(line);
  std::string walls = "  pass wall_s:";
  for (const double w : wall) walls += " " + std::to_string(w);
  report.note(walls);
  std::string rss_line = "  pass peak_rss_mb:";
  for (const double r : rss) rss_line += " " + std::to_string(r);
  report.note(rss_line);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::snprintf(line, sizeof(line),
                  "  %-20s n=%-8lld sum_T=%-11lld rounds=%-6lld worst=%lld",
                  specs[i].label.c_str(),
                  static_cast<long long>(prepared[i].inst.tree.size()),
                  static_cast<long long>(reference[i].node_rounds),
                  static_cast<long long>(reference[i].rounds),
                  static_cast<long long>(reference[i].worst));
    report.note(line);
  }

  if (!opt.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("wall_s", median(wall), "s");
    // Later passes inherit worker arenas fragmented by whichever thread
    // ran the largest job before, so only the first pass's peak is
    // comparable from run to run.
    report.add("peak_rss_mb", rss.front(), "MiB");
    return 0;
  }

  // Per-layer: self time per span name, per traced pass, then medians.
  std::map<std::string, std::vector<double>> layer;
  for (std::size_t t = 0; t < traced.size(); ++t) {
    const auto self = self_time_s(tracers[t].spans());
    const auto get = [&](const char* n) {
      auto it = self.find(n);
      return it == self.end() ? 0.0 : it->second;
    };
    layer["algo.factory_ms"].push_back(get("algo.factory") * 1e3);
    layer["local.engine_ms"].push_back(get("local.engine") * 1e3);
    layer["problems.certify_ms"].push_back(get("problems.certify") * 1e3);
    layer["core.job_wait_ms"].push_back(get("core.job") * 1e3);
    const double engine_s = get("local.engine");
    for (const auto& [k, v] : traced[t].layer) layer[k].push_back(v);
    layer["local.node_rounds_per_s"].push_back(
        engine_s > 0 ? traced[t].layer.at("local.node_rounds") / engine_s
                     : 0.0);
  }
  std::vector<double> traced_wall;
  for (const PassSummary& s : traced) traced_wall.push_back(s.wall_s);
  std::map<std::string, double> values;
  values["graph.build_ms"] = median(build_ms);
  values["algo.prepare_ms"] = median(prepare_ms);
  for (const auto& [k, v] : layer) values[k] = median(v);
  values["trace.overhead_s"] = median(traced_wall) - median(wall);
  emit_layers(values, report);
  if (!tracers.empty()) {
    write_trace(opt, tracers.back());
  }
  return 0;
}

}  // namespace perfbench
