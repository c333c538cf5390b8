#include "core/experiment.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "problems/labels.hpp"

namespace lcl::core {

namespace {

/// Log-bucket index of a termination round: 0 for t == 0, else
/// bit_width(t), i.e. bucket b >= 1 holds t in [2^(b-1), 2^b - 1].
std::size_t bucket_of(std::int64_t t) {
  return t <= 0 ? 0
               : static_cast<std::size_t>(
                     std::bit_width(static_cast<std::uint64_t>(t)));
}

/// Upper edge of a log bucket — the value a pooled percentile reports.
std::int64_t bucket_edge(std::size_t b) {
  return b == 0 ? 0 : (std::int64_t{1} << b) - 1;
}

/// Nearest-rank percentile out of `count_by_value[t]` = #{v : T_v == t}.
std::int64_t percentile_from_counts(
    const std::vector<std::int64_t>& count_by_value, std::int64_t total,
    double q) {
  if (total <= 0) return 0;
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q * static_cast<double>(total))));
  std::int64_t seen = 0;
  for (std::size_t t = 0; t < count_by_value.size(); ++t) {
    seen += count_by_value[t];
    if (seen >= rank) return static_cast<std::int64_t>(t);
  }
  return static_cast<std::int64_t>(count_by_value.size()) - 1;
}

/// Nearest-rank percentile from log buckets, reported at bucket
/// resolution (upper edge).
std::int64_t percentile_from_buckets(
    const std::vector<std::int64_t>& buckets, std::int64_t total,
    double q) {
  if (total <= 0) return 0;
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q * static_cast<double>(total))));
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) return bucket_edge(b);
  }
  return buckets.empty() ? 0 : bucket_edge(buckets.size() - 1);
}

}  // namespace

const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kCheckFailed: return "check_failed";
    case RunStatus::kTruncated: return "truncated";
    case RunStatus::kBuildFailed: return "build_failed";
    case RunStatus::kException: return "exception";
  }
  return "exception";
}

TermSummary TermSummary::from_rounds(
    const std::vector<std::int64_t>& termination_round) {
  TermSummary s;
  if (termination_round.empty()) return s;
  std::int64_t max_t = 0;
  for (const std::int64_t t : termination_round) {
    max_t = std::max(max_t, t);
  }
  s.hist.assign(bucket_of(max_t) + 1, 0);
  // Exact percentiles need exact counts; build the by-round counting
  // vector once (O(n + max T_v)) and derive both.
  std::vector<std::int64_t> counts(static_cast<std::size_t>(max_t) + 1, 0);
  for (const std::int64_t t : termination_round) {
    ++counts[static_cast<std::size_t>(std::max<std::int64_t>(0, t))];
    ++s.hist[bucket_of(t)];
  }
  const auto total = static_cast<std::int64_t>(termination_round.size());
  s.p50 = percentile_from_counts(counts, total, 0.50);
  s.p90 = percentile_from_counts(counts, total, 0.90);
  s.p99 = percentile_from_counts(counts, total, 0.99);
  return s;
}

TermSummary TermSummary::from_counts(
    const std::vector<std::int64_t>& count_by_round) {
  TermSummary s;
  std::int64_t total = 0;
  for (std::size_t t = 0; t < count_by_round.size(); ++t) {
    if (count_by_round[t] == 0) continue;
    total += count_by_round[t];
    const std::size_t b = bucket_of(static_cast<std::int64_t>(t));
    if (s.hist.size() <= b) s.hist.resize(b + 1, 0);
    s.hist[b] += count_by_round[t];
  }
  if (total == 0) {
    s.hist.clear();
    return s;
  }
  s.p50 = percentile_from_counts(count_by_round, total, 0.50);
  s.p90 = percentile_from_counts(count_by_round, total, 0.90);
  s.p99 = percentile_from_counts(count_by_round, total, 0.99);
  return s;
}

void TermSummary::merge(const TermSummary& other) {
  if (other.hist.empty()) return;
  if (hist.empty()) {
    *this = other;  // keep the donor's exact percentiles
    return;
  }
  if (hist.size() < other.hist.size()) hist.resize(other.hist.size(), 0);
  for (std::size_t b = 0; b < other.hist.size(); ++b) {
    hist[b] += other.hist[b];
  }
  const std::int64_t n = total();
  p50 = percentile_from_buckets(hist, n, 0.50);
  p90 = percentile_from_buckets(hist, n, 0.90);
  p99 = percentile_from_buckets(hist, n, 0.99);
}

std::int64_t TermSummary::total() const {
  std::int64_t n = 0;
  for (const std::int64_t c : hist) n += c;
  return n;
}

MeasuredRun measure_run(double scale, const local::RunStats& stats,
                        const problems::CheckResult& verdict) {
  MeasuredRun r;
  r.scale = scale;
  r.node_averaged = stats.node_averaged;
  r.worst_case = stats.worst_case;
  r.n = stats.n;
  r.term = TermSummary::from_rounds(stats.termination_round);
  r.sharded_rounds = stats.sharded_rounds;
  if (stats.truncated) {
    r.status = RunStatus::kTruncated;
    r.check_reason = "round limit " + std::to_string(stats.rounds) +
                     " hit with " + std::to_string(stats.unterminated) +
                     " nodes alive (stats censored)";
  } else if (verdict.ok) {
    r.status = RunStatus::kOk;
  } else {
    r.status = RunStatus::kCheckFailed;
    r.check_reason = verdict.reason;
  }
  r.reps = 1;
  r.reps_ok = r.ok() ? 1 : 0;
  r.na_min = r.node_averaged;
  r.na_max = r.node_averaged;
  return r;
}

MeasuredRun measure_run_weight_adjusted(
    double scale, const graph::Tree& tree, const local::RunStats& stats,
    const problems::CheckResult& verdict) {
  MeasuredRun r = measure_run(scale, stats, verdict);
  r.node_averaged = weight_adjusted_average(tree, stats);
  r.na_min = r.node_averaged;
  r.na_max = r.node_averaged;
  return r;
}

void print_experiment(const std::string& title,
                      const std::vector<MeasuredRun>& runs,
                      const std::string& scale_name, double predicted_lo,
                      double predicted_hi) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("  %12s %10s %14s %7s %7s %7s %12s %9s  %s\n",
              scale_name.c_str(), "n", "node-avg", "p50", "p90", "p99",
              "worst-case", "spread", "status");
  for (const MeasuredRun& r : runs) {
    // Build the whole row as a string before printing: handing
    // `("NO: " + reason).c_str()` straight to printf would pass a
    // pointer into a destroyed temporary.
    char cols[160];
    std::snprintf(cols, sizeof(cols),
                  "  %12.0f %10lld %14.3f %7lld %7lld %7lld %12lld",
                  r.scale, static_cast<long long>(r.n), r.node_averaged,
                  static_cast<long long>(r.term.p50),
                  static_cast<long long>(r.term.p90),
                  static_cast<long long>(r.term.p99),
                  static_cast<long long>(r.worst_case));
    std::string row = cols;
    char spread[32];
    if (r.reps > 1) {
      std::snprintf(spread, sizeof(spread), " %c%7.3f",
                    r.reps_ok == r.reps ? ' ' : '*', r.na_stddev);
    } else {
      std::snprintf(spread, sizeof(spread), " %9s", "-");
    }
    row += spread;
    if (r.ok()) {
      row += "  yes";
    } else {
      row += "  ";
      row += to_string(r.status);
      if (!r.check_reason.empty()) row += ": " + r.check_reason;
    }
    std::printf("%s\n", row.c_str());
  }
  const std::vector<Sample> samples = to_samples(runs);
  const PowerFit fit = fit_power_law(samples);
  if (fit.ok) {
    if (predicted_lo == predicted_hi) {
      std::printf(
          "  fitted exponent: %.3f (R^2 %.3f)   paper predicts: %.3f\n",
          fit.exponent, fit.r_squared, predicted_lo);
    } else {
      std::printf(
          "  fitted exponent: %.3f (R^2 %.3f)   paper predicts: "
          "[%.3f, %.3f]\n",
          fit.exponent, fit.r_squared, predicted_lo, predicted_hi);
    }
  }
  std::printf("\n");
}

std::vector<Sample> to_samples(const std::vector<MeasuredRun>& runs) {
  std::vector<Sample> samples;
  for (const MeasuredRun& r : runs) {
    if (r.ok() && r.scale > 0 && r.node_averaged > 0) {
      samples.push_back({r.scale, r.node_averaged});
    }
  }
  return samples;
}

double weight_adjusted_average(const graph::Tree& tree,
                               const local::RunStats& stats) {
  std::int64_t total = 0;
  for (graph::NodeId v = 0; v < tree.size(); ++v) {
    const bool weight =
        tree.input(v) == static_cast<int>(graph::WeightInput::kWeight);
    const bool copy =
        stats.output[static_cast<std::size_t>(v)].primary ==
        static_cast<int>(problems::WeightOut::kCopy);
    if (weight && !copy) continue;
    total += stats.termination_round[static_cast<std::size_t>(v)];
  }
  return static_cast<double>(total) / static_cast<double>(tree.size());
}

std::uint64_t stable_name_seed(std::string_view name) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV-1a prime
  }
  return h;
}

std::vector<std::int64_t> lower_bound_lengths(
    const std::vector<double>& alphas, double base, std::int64_t target_n) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> ell;
  std::int64_t prod = 1;
  for (double a : alphas) {
    const double raw = std::pow(base, a);
    // Saturate both the length itself and the running product: at
    // extreme (base, alpha) the construction degrades to ell_k == 1
    // instead of signed-overflow UB.
    const std::int64_t l =
        raw < static_cast<double>(kMax)
            ? std::max<std::int64_t>(1, std::llround(raw))
            : kMax;
    ell.push_back(l);
    prod = prod > kMax / l ? kMax : prod * l;
  }
  ell.push_back(std::max<std::int64_t>(1, target_n / std::max<std::int64_t>(
                                               prod, 1)));
  return ell;
}

std::vector<std::int64_t> decline_gammas(
    const std::vector<std::int64_t>& skeleton_lengths, int k) {
  std::vector<std::int64_t> gammas;
  for (int i = 0; i + 1 < k; ++i) {
    gammas.push_back(std::max<std::int64_t>(
        2, skeleton_lengths[static_cast<std::size_t>(i)]));
  }
  return gammas;
}

}  // namespace lcl::core
