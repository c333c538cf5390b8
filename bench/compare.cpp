#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/json.hpp"

namespace lcl::bench {

namespace {

using core::json::Value;

/// Schema version of "lclbench-v<k>"; -1 for anything else.
int schema_version(const std::string& schema) {
  const std::string prefix = "lclbench-v";
  if (schema.rfind(prefix, 0) != 0) return -1;
  try {
    std::size_t used = 0;
    const int v = std::stoi(schema.substr(prefix.size()), &used);
    if (used != schema.size() - prefix.size()) return -1;
    return v;
  } catch (const std::exception&) {
    return -1;
  }
}

/// Whether a run record is ok under either schema: v3 writes a "status"
/// string, v2 only the "valid" bool.
bool run_ok(const Value& run) {
  const Value* status = run.find("status");
  if (status != nullptr) return status->string_or("") == "ok";
  return run.get_bool("valid", false);
}

struct Tally {
  int series_compared = 0;
  int regressions = 0;
  int warnings = 0;

  void regression(const std::string& what) {
    ++regressions;
    std::printf("REGRESSION: %s\n", what.c_str());
  }
  void warning(const std::string& what) {
    ++warnings;
    std::printf("warning: %s\n", what.c_str());
  }
};

const Value* find_by_key(const Value& arr, std::string_view key,
                         const std::string& value) {
  if (!arr.is_array()) return nullptr;
  for (const Value& e : arr.array) {
    if (e.get_string(key, "") == value) return &e;
  }
  return nullptr;
}

int count_not_ok(const Value& series) {
  const Value* runs = series.find("runs");
  if (runs == nullptr || !runs->is_array()) return 0;
  int bad = 0;
  for (const Value& run : runs->array) {
    if (!run_ok(run)) ++bad;
  }
  return bad;
}

int count_runs(const Value& series) {
  const Value* runs = series.find("runs");
  return runs != nullptr && runs->is_array()
             ? static_cast<int>(runs->array.size())
             : 0;
}

/// The `k`-th run (0-based, in recorded order) at `scale`, or nullptr.
/// A series may sweep several instances at one scale (problem_sweep runs
/// every family at each size), so runs pair up across snapshots by
/// scale *and* occurrence, never by scale alone.
const Value* run_at_scale(const Value& runs, double scale, int k) {
  for (const Value& run : runs.array) {
    if (run.get_number("scale", -2.0) == scale && k-- == 0) return &run;
  }
  return nullptr;
}

/// The pairwise coverage and validity gate `--compare` and `--history`
/// share. Every scenario and series of `old_snap` must still be in
/// `new_snap` (`allow_missing` downgrades a missing one to a warning,
/// reported against the `new_name` snapshot), and no matched series may
/// record fewer runs or more non-ok runs. `on_scenario` and `on_series`
/// (either may be empty) see each matched pair after its checks, in
/// `old_snap` order. Both snapshots must carry a "scenarios" array.
void check_pair(
    const Value& old_snap, const Value& new_snap, const char* new_name,
    bool allow_missing, Tally& tally,
    const std::function<void(const std::string&, const Value&,
                             const Value&)>& on_scenario,
    const std::function<void(const std::string&, const Value&,
                             const Value&)>& on_series) {
  const auto missing = [&](const std::string& what) {
    const std::string msg = what + " missing from " + new_name + " snapshot";
    if (allow_missing) {
      tally.warning(msg);
    } else {
      tally.regression(msg);
    }
  };
  const Value& new_scenarios = *new_snap.find("scenarios");
  for (const Value& old_scenario : old_snap.find("scenarios")->array) {
    const std::string name = old_scenario.get_string("name", "?");
    const Value* new_scenario = find_by_key(new_scenarios, "name", name);
    if (new_scenario == nullptr) {
      missing("scenario '" + name + "'");
      continue;
    }
    if (on_scenario) on_scenario(name, old_scenario, *new_scenario);

    const Value* old_series_arr = old_scenario.find("series");
    const Value* new_series_arr = new_scenario->find("series");
    if (old_series_arr == nullptr || !old_series_arr->is_array()) continue;
    for (const Value& old_series : old_series_arr->array) {
      const std::string title = old_series.get_string("title", "?");
      const Value* new_series =
          new_series_arr == nullptr
              ? nullptr
              : find_by_key(*new_series_arr, "title", title);
      const std::string where = name + " / \"" + title + "\"";
      if (new_series == nullptr) {
        missing(where + ": series");
        continue;
      }

      // Coverage: losing sweep points is a regression — a series that
      // silently recorded fewer (or no) runs must not read as healthy
      // just because nothing in it failed.
      const int old_count = count_runs(old_series);
      const int new_count = count_runs(*new_series);
      if (new_count < old_count) {
        tally.regression(where + ": only " + std::to_string(new_count) +
                         " runs recorded (was " +
                         std::to_string(old_count) + ")");
      }

      // Validity: the new snapshot must not have more failing runs than
      // the old one (statuses truncated/build_failed/exception all
      // count).
      const int old_bad = count_not_ok(old_series);
      const int new_bad = count_not_ok(*new_series);
      if (new_bad > old_bad) {
        tally.regression(where + ": " + std::to_string(new_bad) +
                         " non-ok runs (was " + std::to_string(old_bad) +
                         ")");
      }
      if (on_series) on_series(where, old_series, *new_series);
    }
  }
}

/// Drift checks on one matched series pair, beyond `check_pair`'s
/// coverage and validity.
void compare_series(const std::string& where, const Value& old_series,
                    const Value& new_series, const CompareOptions& opts,
                    Tally& tally) {
  ++tally.series_compared;

  // Exponent drift, when both snapshots managed a fit.
  const Value* old_fit = old_series.find("fitted_exponent");
  const Value* new_fit = new_series.find("fitted_exponent");
  if (old_fit != nullptr && new_fit != nullptr) {
    const double drift =
        std::abs(new_fit->number_or(0.0) - old_fit->number_or(0.0));
    if (drift > opts.tol_exponent) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "exponent drift %.4f > %.4f (%.4f -> %.4f)", drift,
                    opts.tol_exponent, old_fit->number_or(0.0),
                    new_fit->number_or(0.0));
      tally.regression(where + ": " + buf);
    }
  } else if (old_fit != nullptr && new_fit == nullptr) {
    tally.warning(where + ": fitted exponent disappeared (too few valid "
                          "samples in the new snapshot)");
  }

  // Node-averaged drift at matching sweep scales (opt-in: only sound
  // when both snapshots ran the same --n).
  if (opts.tol_avg > 0.0) {
    const Value* old_runs = old_series.find("runs");
    const Value* new_runs = new_series.find("runs");
    if (old_runs != nullptr && old_runs->is_array() &&
        new_runs != nullptr && new_runs->is_array()) {
      std::map<double, int> seen;
      for (const Value& old_run : old_runs->array) {
        const double scale = old_run.get_number("scale", -1.0);
        const Value* new_run = run_at_scale(*new_runs, scale, seen[scale]++);
        if (!run_ok(old_run) || new_run == nullptr || !run_ok(*new_run)) {
          continue;
        }
        const double old_avg = old_run.get_number("node_averaged", 0.0);
        const double new_avg = new_run->get_number("node_averaged", 0.0);
        if (old_avg > 0.0 &&
            std::abs(new_avg / old_avg - 1.0) > opts.tol_avg) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "node-averaged at scale %.0f drifted %.1f%% "
                        "(%.3f -> %.3f)",
                        scale, 100.0 * (new_avg / old_avg - 1.0), old_avg,
                        new_avg);
          tally.regression(where + ": " + buf);
        }
      }
    }
  }
}

}  // namespace

int compare_snapshots(const std::string& old_path,
                      const std::string& new_path,
                      const CompareOptions& opts) {
  Value old_snap;
  Value new_snap;
  try {
    old_snap = core::json::parse_file(old_path);
    new_snap = core::json::parse_file(new_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lclbench --compare: %s\n", e.what());
    return 2;
  }

  const std::string old_schema = old_snap.get_string("schema", "");
  const std::string new_schema = new_snap.get_string("schema", "");
  std::printf("comparing %s (%s) -> %s (%s)\n", old_path.c_str(),
              old_schema.c_str(), new_path.c_str(), new_schema.c_str());

  Tally tally;
  const int old_version = schema_version(old_schema);
  const int new_version = schema_version(new_schema);
  if (old_version < 0) {
    std::fprintf(stderr, "lclbench --compare: %s has unknown schema '%s'\n",
                 old_path.c_str(), old_schema.c_str());
    return 2;
  }
  if (new_version < 0) {
    tally.regression("new snapshot has unknown schema '" + new_schema +
                     "'");
  } else if (new_version < old_version) {
    tally.regression("schema downgraded " + old_schema + " -> " +
                     new_schema);
  }

  const Value* old_scenarios = old_snap.find("scenarios");
  const Value* new_scenarios = new_snap.find("scenarios");
  if (old_scenarios == nullptr || !old_scenarios->is_array() ||
      new_scenarios == nullptr || !new_scenarios->is_array()) {
    std::fprintf(stderr,
                 "lclbench --compare: snapshot missing \"scenarios\"\n");
    return 2;
  }

  double old_wall_total = 0.0;
  double new_wall_total = 0.0;
  check_pair(
      old_snap, new_snap, "new", opts.allow_missing, tally,
      [&](const std::string& name, const Value& old_scenario,
          const Value& new_scenario) {
        const double old_wall = old_scenario.get_number("wall_ms", 0.0);
        const double new_wall = new_scenario.get_number("wall_ms", 0.0);
        old_wall_total += old_wall;
        new_wall_total += new_wall;
        if (old_wall <= 0.0 || new_wall <= 0.0) return;
        const double ratio = new_wall / old_wall;
        std::printf("  %-22s wall %8.0f ms -> %8.0f ms (%.2fx)\n",
                    name.c_str(), old_wall, new_wall, ratio);
        if (opts.tol_wall > 0.0 && ratio > opts.tol_wall) {
          char buf[96];
          std::snprintf(buf, sizeof(buf), "wall time %.2fx > %.2fx budget",
                        ratio, opts.tol_wall);
          tally.regression(name + ": " + buf);
        }
      },
      [&](const std::string& where, const Value& old_series,
          const Value& new_series) {
        compare_series(where, old_series, new_series, opts, tally);
      });

  if (old_wall_total > 0.0 && new_wall_total > 0.0) {
    std::printf("total wall: %.0f ms -> %.0f ms (%.2fx)\n", old_wall_total,
                new_wall_total, new_wall_total / old_wall_total);
  }
  std::printf(
      "summary: %d series compared, %d regression(s), %d warning(s)\n",
      tally.series_compared, tally.regressions, tally.warnings);
  return tally.regressions > 0 ? 1 : 0;
}

namespace {

/// One loaded history entry, in chronological order after sorting.
struct HistoryEntry {
  std::string path;
  std::string timestamp;
  Value snap;
};

const Value* find_series(const Value& snap, const std::string& scenario,
                         const std::string& title) {
  const Value* scenarios = snap.find("scenarios");
  if (scenarios == nullptr) return nullptr;
  const Value* sc = find_by_key(*scenarios, "name", scenario);
  if (sc == nullptr) return nullptr;
  const Value* series = sc->find("series");
  if (series == nullptr) return nullptr;
  return find_by_key(*series, "title", title);
}

/// Strictly one-directional movement with at least one nonzero step —
/// the shape of a drift, as opposed to measurement noise wobbling
/// around a level.
bool is_monotone(const std::vector<double>& w) {
  bool up = true;
  bool down = true;
  bool moved = false;
  for (std::size_t i = 1; i < w.size(); ++i) {
    if (w[i] < w[i - 1]) up = false;
    if (w[i] > w[i - 1]) down = false;
    if (w[i] != w[i - 1]) moved = true;
  }
  return moved && (up || down);
}

std::string trajectory_str(const std::vector<double>& values,
                           const char* fmt) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), fmt, values[i]);
    if (i > 0) out += " -> ";
    out += buf;
  }
  return out;
}

}  // namespace

int history_snapshots(const std::vector<std::string>& paths,
                      const HistoryOptions& opts) {
  if (paths.size() < 2) {
    std::fprintf(stderr,
                 "lclbench --history: needs at least 2 snapshots, got "
                 "%zu\n",
                 paths.size());
    return 2;
  }

  std::vector<HistoryEntry> history;
  history.reserve(paths.size());
  for (const std::string& path : paths) {
    HistoryEntry e;
    e.path = path;
    try {
      e.snap = core::json::parse_file(path);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "lclbench --history: %s\n", ex.what());
      return 2;
    }
    if (schema_version(e.snap.get_string("schema", "")) < 0) {
      std::fprintf(stderr,
                   "lclbench --history: %s has unknown schema '%s'\n",
                   path.c_str(), e.snap.get_string("schema", "").c_str());
      return 2;
    }
    if (const Value* sc = e.snap.find("scenarios");
        sc == nullptr || !sc->is_array()) {
      std::fprintf(stderr,
                   "lclbench --history: %s missing \"scenarios\"\n",
                   path.c_str());
      return 2;
    }
    e.timestamp = e.snap.get_string("timestamp", "");
    history.push_back(std::move(e));
  }
  // Chronological order: ISO-8601 timestamps sort lexicographically;
  // the stable sort keeps untimestamped snapshots in argument order.
  std::stable_sort(history.begin(), history.end(),
                   [](const HistoryEntry& a, const HistoryEntry& b) {
                     return a.timestamp < b.timestamp;
                   });

  const int n = static_cast<int>(history.size());
  const int window = std::min(std::max(opts.window, 2), n);
  std::printf("history of %d snapshots (trend window %d):\n", n, window);
  for (const HistoryEntry& e : history) {
    std::printf("  %s  %s (%s)\n",
                e.timestamp.empty() ? "(no timestamp)  "
                                    : e.timestamp.c_str(),
                e.path.c_str(), e.snap.get_string("schema", "?").c_str());
  }

  Tally tally;
  const HistoryEntry& latest = history.back();
  const HistoryEntry& previous = history[history.size() - 2];

  // Schema must never move backwards along the history.
  int max_seen = -1;
  for (const HistoryEntry& e : history) {
    const int v = schema_version(e.snap.get_string("schema", ""));
    if (v < max_seen) {
      tally.regression(e.path + ": schema downgraded to " +
                       e.snap.get_string("schema", "") +
                       " mid-history");
    }
    max_seen = std::max(max_seen, v);
  }

  // Latest vs previous: the same coverage and validity gate as
  // --compare, so a scenario or series that vanished is never silent.
  check_pair(previous.snap, latest.snap, "latest", opts.allow_missing,
             tally, {}, {});

  // Collect the series universe in first-appearance order, and the
  // scenario universe likewise.
  std::vector<std::pair<std::string, std::string>> series_keys;
  std::vector<std::string> scenario_names;
  for (const HistoryEntry& e : history) {
    for (const Value& sc : e.snap.find("scenarios")->array) {
      const std::string name = sc.get_string("name", "?");
      if (std::find(scenario_names.begin(), scenario_names.end(), name) ==
          scenario_names.end()) {
        scenario_names.push_back(name);
      }
      const Value* series = sc.find("series");
      if (series == nullptr || !series->is_array()) continue;
      for (const Value& se : series->array) {
        const std::pair<std::string, std::string> key = {
            name, se.get_string("title", "?")};
        if (std::find(series_keys.begin(), series_keys.end(), key) ==
            series_keys.end()) {
          series_keys.push_back(key);
        }
      }
    }
  }

  // Per-scenario wall trajectories (reported always, gated by
  // --tol-wall over the window).
  for (const std::string& name : scenario_names) {
    std::vector<double> walls;
    for (const HistoryEntry& e : history) {
      const Value* sc =
          find_by_key(*e.snap.find("scenarios"), "name", name);
      walls.push_back(sc == nullptr ? -1.0
                                    : sc->get_number("wall_ms", -1.0));
    }
    std::printf("  %-22s wall %s ms\n", name.c_str(),
                trajectory_str(walls, "%.0f").c_str());
    const std::vector<double> w(walls.end() - window, walls.end());
    if (opts.tol_wall > 0.0 &&
        std::all_of(w.begin(), w.end(), [](double v) { return v > 0.0; }) &&
        is_monotone(w) && w.back() > w.front() &&
        w.back() / w.front() > opts.tol_wall) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "wall time drifted %.2fx over %d snapshots (> %.2fx)",
                    w.back() / w.front(), window, opts.tol_wall);
      tally.regression(name + ": " + buf);
    }
  }

  for (const auto& [scenario, title] : series_keys) {
    ++tally.series_compared;
    // Coverage and validity were gated above; a series missing from the
    // latest snapshot has no trend left to check.
    const Value* last_series = find_series(latest.snap, scenario, title);
    if (last_series == nullptr) continue;
    const std::string where = scenario + " / \"" + title + "\"";

    // Sustained exponent drift across the window: every step in one
    // direction, total beyond tolerance — even when each pairwise step
    // is individually under --tol-exponent.
    if (window >= 3) {
      std::vector<double> fits;
      bool all_fitted = true;
      for (int i = n - window; i < n; ++i) {
        const Value* se =
            find_series(history[static_cast<std::size_t>(i)].snap,
                        scenario, title);
        const Value* fit = se == nullptr ? nullptr
                                         : se->find("fitted_exponent");
        if (fit == nullptr) {
          all_fitted = false;
          break;
        }
        fits.push_back(fit->number_or(0.0));
      }
      if (all_fitted && is_monotone(fits) &&
          std::abs(fits.back() - fits.front()) > opts.tol_exponent) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      " (total %.4f > %.4f over %d snapshots)",
                      std::abs(fits.back() - fits.front()),
                      opts.tol_exponent, window);
        tally.regression(where + ": sustained exponent drift " +
                         trajectory_str(fits, "%.4f") + buf);
      }

      // Sustained node-averaged drift at matching scales (opt-in).
      if (opts.tol_avg > 0.0) {
        const Value* last_runs = last_series->find("runs");
        if (last_runs != nullptr && last_runs->is_array()) {
          std::map<double, int> seen;
          for (const Value& anchor : last_runs->array) {
            const double scale = anchor.get_number("scale", -1.0);
            const int k = seen[scale]++;
            if (!run_ok(anchor)) continue;
            std::vector<double> avgs;
            bool complete = true;
            for (int i = n - window; i < n && complete; ++i) {
              const Value* se =
                  find_series(history[static_cast<std::size_t>(i)].snap,
                              scenario, title);
              const Value* runs = se == nullptr ? nullptr
                                                : se->find("runs");
              const Value* run =
                  runs == nullptr || !runs->is_array()
                      ? nullptr
                      : run_at_scale(*runs, scale, k);
              complete = run != nullptr && run_ok(*run);
              if (complete) {
                avgs.push_back(run->get_number("node_averaged", 0.0));
              }
            }
            if (complete && avgs.front() > 0.0 && is_monotone(avgs) &&
                std::abs(avgs.back() / avgs.front() - 1.0) >
                    opts.tol_avg) {
              char buf[192];
              std::snprintf(buf, sizeof(buf),
                            "node-averaged at scale %.0f drifted %.1f%% "
                            "over %d snapshots (%s)",
                            scale,
                            100.0 * (avgs.back() / avgs.front() - 1.0),
                            window, trajectory_str(avgs, "%.3f").c_str());
              tally.regression(where + ": " + buf);
            }
          }
        }
      }
    }
  }

  std::printf(
      "history summary: %d series tracked, %d regression(s), "
      "%d warning(s)\n",
      tally.series_compared, tally.regressions, tally.warnings);
  return tally.regressions > 0 ? 1 : 0;
}

}  // namespace lcl::bench
