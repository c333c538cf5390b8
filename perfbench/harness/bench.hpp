// Shared pieces of the perfbench harness: the clock, the statistics the
// report is made of (nearest-rank percentiles, the rate-ladder pick,
// span self time), the in-memory span recorder, and the result line.
//
// The statistics live here, header-only and free of liblcl, so the
// self-tests (selftest.cpp) exercise exactly the code the workloads use.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the report says it is unsupported.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of `values` (p in (0, 1]): the smallest value
/// with at least p * N samples at or below it. Sorts a copy. Empty input
/// yields 0.
inline double nearest_rank(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// Samples strictly after the nearest-rank position of p.
inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

/// Whether the p-th percentile of n samples may be reported.
inline bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinBeyond;
}

inline double median(std::vector<double> values) {
  return nearest_rank(std::move(values), 0.5);
}

/// Backlog (requests sent and not yet answered) sampled evenly over one
/// ladder rung. The backlog grows when its mean over the second half of
/// the rung exceeds twice its mean over the first half plus a slack of
/// a few requests, so scheduling jitter on an idle server never counts.
inline constexpr double kBacklogSlack = 4.0;

inline bool backlog_growing(const std::vector<double>& backlog) {
  if (backlog.size() < 4) return false;
  const std::size_t half = backlog.size() / 2;
  double first = 0.0;
  double second = 0.0;
  for (std::size_t i = 0; i < half; ++i) first += backlog[i];
  for (std::size_t i = half; i < backlog.size(); ++i) second += backlog[i];
  first /= static_cast<double>(half);
  second /= static_cast<double>(backlog.size() - half);
  return second > 2.0 * first + kBacklogSlack;
}

/// One rung of the fixed rate ladder, as measured.
struct Rung {
  double rate = 0.0;  ///< requests per second offered
  std::vector<double> latency_ms;
  bool growing = false;  ///< backlog_growing over the rung
  bool valid = true;     ///< the generator kept to its schedule
};

/// The highest offered rate whose p99 is supported, at most `limit_ms`,
/// and whose backlog did not grow. 0 when no rung qualifies. Rungs need
/// not be sorted; invalid rungs (generator-bound) never qualify.
inline double max_rate_meeting(const std::vector<Rung>& rungs,
                               double limit_ms) {
  double best = 0.0;
  for (const Rung& r : rungs) {
    if (!r.valid || r.growing) continue;
    if (!percentile_supported(r.latency_ms.size(), 0.99)) continue;
    if (nearest_rank(r.latency_ms, 0.99) > limit_ms) continue;
    best = std::max(best, r.rate);
  }
  return best;
}

/// One traced interval. Spans of one job or request share `trace`;
/// `parent` is the id of the span that caused it (-1 for a root).
struct Span {
  int id = 0;
  int parent = -1;
  std::int64_t trace = 0;
  std::string name;
  double start_s = 0.0;  ///< seconds since the recorder's epoch
  double end_s = 0.0;
};

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its children (overlapping children are merged,
/// and children are clipped to the parent), summed over spans.
inline std::map<std::string, double> self_time_s(
    const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_s, s.end_s});
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = 0.0;
      double hi = -1.0;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_s);
        b = std::min(b, s.end_s);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    self[s.name] += (s.end_s - s.start_s) - covered;
  }
  return self;
}

/// Thread-safe in-memory span recorder. Nothing is written until the
/// benchmark ends (`write_jsonl`).
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  [[nodiscard]] double now_s() const {
    return seconds_between(epoch_, Clock::now());
  }

  /// Records a finished span and returns its id.
  int record(std::int64_t trace, int parent, std::string name,
             double start_s, double end_s) {
    std::lock_guard<std::mutex> lock(mu_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({id, parent, trace, std::move(name), start_s, end_s});
    return id;
  }

  /// Reserves an id for a parent span recorded after its children.
  int open(std::int64_t trace, int parent, std::string name,
           double start_s) {
    return record(trace, parent, std::move(name), start_s, start_s);
  }
  void close(int id, double end_s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = end_s;
  }

  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Writes one JSON object per span. Returns false on an I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// The benchmark's result: the metrics plus the attempted/failed count.
/// `print` writes the human-readable lines and then, last, the one JSON
/// line the contract asks for.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< diagnostics, printed before JSON

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  [[nodiscard]] bool correct() const { return failed == 0 && attempted > 0; }
  void print() const;
};

/// Resets this process's peak resident memory (VmHWM) to its current
/// resident memory.
void reset_peak_rss();
/// Peak resident memory (VmHWM) in MiB of process `pid` since its start,
/// or of this process (pid 0) since the last `reset_peak_rss`.
double peak_rss_mb(int pid);

}  // namespace perfbench
