// Algorithm registry: every paper algorithm as a first-class, sweepable
// citizen.
//
// The paper's landscape results are statements about *classes* of
// algorithms — the Θ(n^{1/(2k)}) / Θ(n^{1/k}) hierarchies are
// instantiated by many concrete solvers — yet solvers used to be bespoke
// `local::Program` subclasses with incompatible option structs, each
// hand-wired into exactly one scenario. The registry gives them one
// uniform surface, mirroring the instance-family registry
// (graph/families.hpp) on the algorithm axis:
//
//   * `SolverSpec` — name, paper binding (problem / theorem / predicted
//     complexity), the input preparations the solver needs (shuffled
//     IDs, Definition-22 Active/Weight marking, Section-7 A/W marking,
//     a per-run RNG seed), typed options with defaults and ranges, a
//     `factory` building the program from a (Tree, SolverConfig) pair,
//     and a `certify` hook that grades the run with the problem's own
//     independent checker (solver-side artifacts such as orientation
//     maps are recovered from the program instance, so every solver is
//     certifiable through the same call).
//   * `SolverConfig` — typed key=value options (scalars and small
//     integer lists), validated in one place (`SolverConfig::validate`)
//     with clear out-of-range errors instead of silent clamping.
//   * `prepare_instance` — applies a spec's declared input needs to a
//     freshly built instance, so any solver runs on any compatible
//     family through one code path (`core::make_solver_job` composes
//     the family build, this, and `run_registered`).
//
// The `solver_matrix` bench scenario sweeps the full compatible
// algorithm × family cross-product through exactly this surface.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/families.hpp"
#include "graph/tree.hpp"
#include "local/engine.hpp"
#include "problems/checkers.hpp"

namespace lcl::algo {

/// Input preparations a registered solver declares. `prepare_instance`
/// applies them to a freshly built instance; everything is deterministic
/// in (topology, seed).
enum InputNeed : unsigned {
  /// Distinct shuffled LOCAL IDs (symmetry breaking). Families emit
  /// identity IDs; solvers whose measured behavior assumes random ID
  /// assignment declare this.
  kNeedShuffledIds = 1u << 0,
  /// Definition-22 Active/Weight input marking. Nodes deeper than half
  /// the component depth become Weight, so weight subtrees hang off an
  /// active skeleton exactly as in the paper's constructions.
  kNeedWeightInputs = 1u << 1,
  /// Section-7 d-free A/W marking: a sparse deterministic set of
  /// input-A nodes (component roots plus a seeded sprinkle), rest W.
  kNeedDFreeInputs = 1u << 2,
  /// The solver consumes the per-run seed (`SolverConfig::seed`).
  kNeedRng = 1u << 3,
};

/// One typed option of a registered solver. All option values are
/// int64 words; a list option (e.g. `gammas`) holds several, a scalar
/// exactly one, and flags are scalars restricted to [0, 1].
struct OptionSpec {
  std::string key;
  std::string summary;
  std::int64_t def = 0;  ///< default for scalar options
  std::int64_t min = 0;  ///< inclusive per-element range
  std::int64_t max = std::numeric_limits<std::int64_t>::max();
  /// List options take comma-separated values on the CLI and have no
  /// static default — the factory derives one from the instance (the
  /// theory profile) when the option is absent.
  bool is_list = false;
};

struct SolverSpec;

/// Typed key=value option assignment for one solver instantiation.
class SolverConfig {
 public:
  /// Per-run seed, consumed by solvers that declare `kNeedRng`.
  std::uint64_t seed = 0;

  void set(const std::string& key, std::int64_t value) {
    values_[key] = {value};
  }
  void set(const std::string& key, std::vector<std::int64_t> values) {
    values_[key] = std::move(values);
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }
  /// Scalar accessor; throws std::invalid_argument if absent or a list.
  [[nodiscard]] std::int64_t get(const std::string& key) const;
  /// List accessor; throws std::invalid_argument if absent.
  [[nodiscard]] const std::vector<std::int64_t>& list(
      const std::string& key) const;

  [[nodiscard]] const std::map<std::string, std::vector<std::int64_t>>&
  values() const {
    return values_;
  }

  /// Validates against a spec and resolves defaults, the one place all
  /// option checking funnels through: every set key must be a declared
  /// option, every element must lie in the option's [min, max] range
  /// (clear errors name the solver, key, value, and range — no silent
  /// clamping), and absent scalar options are filled with their
  /// defaults. Returns *this for chaining.
  SolverConfig& validate(const SolverSpec& spec);

 private:
  std::map<std::string, std::vector<std::int64_t>> values_;
};

/// A registered solver.
struct SolverSpec {
  std::string name;        ///< stable CLI/JSON key
  std::string summary;     ///< one-line description
  std::string problem;     ///< the LCL it solves (checker binding)
  std::string theorem;     ///< paper theorem/lemma it instantiates
  std::string complexity;  ///< predicted node-averaged complexity
  unsigned needs = 0;      ///< InputNeed bitmask
  std::vector<OptionSpec> options;

  /// Builds the program. The tree must already carry the inputs the
  /// spec's `needs` declare (see `prepare_instance`); `config` must be
  /// validated. Factories raise std::invalid_argument with the solver
  /// name for relational option errors (e.g. |gammas| != k-1).
  std::function<std::unique_ptr<local::Program>(const graph::Tree&,
                                                const SolverConfig&)>
      factory;

  /// Grades a completed run with the problem's independent checker.
  /// Receives the program that ran so solver-side artifacts (e.g. the
  /// weight-augmented orientation map) stay certifiable through the
  /// uniform surface.
  std::function<problems::CheckResult(
      const graph::Tree&, const local::Program&, const local::RunStats&,
      const SolverConfig&)>
      certify;

  /// Which instance families the solver can run on (default: every tree
  /// family; non-forest edge-case families must be opted into).
  std::function<bool(const graph::Family&)> compatible;

  [[nodiscard]] const OptionSpec* find_option(const std::string& key) const;
};

/// The full registry, in paper order. Names are stable CLI/JSON keys.
[[nodiscard]] const std::vector<SolverSpec>& registry();

/// Looks up a solver by name; nullptr if unknown.
[[nodiscard]] const SolverSpec* find_solver(const std::string& name);

/// Looks up a solver by name; throws std::invalid_argument (listing the
/// registered names) if unknown.
[[nodiscard]] const SolverSpec& solver(const std::string& name);

/// All registered solver names, in registry order.
[[nodiscard]] std::vector<std::string> solver_names();

/// Parses a comma-separated solver selection. "all" (or an empty
/// string) yields every registered solver. Throws std::invalid_argument
/// on an unknown name.
[[nodiscard]] std::vector<std::string> parse_solver_list(
    const std::string& csv);

/// Applies one CLI "key=value" pair to `config`: scalar options parse
/// one integer, list options a comma-separated sequence. Throws
/// std::invalid_argument on malformed pairs or keys the spec does not
/// declare.
void apply_option(const SolverSpec& spec, SolverConfig& config,
                  const std::string& kv);

/// Splits a "key=value" CLI pair; throws std::invalid_argument when the
/// '=' or the key is missing.
[[nodiscard]] std::pair<std::string, std::string> split_option(
    const std::string& kv);

/// Applies a solver's declared input needs to a freshly built instance.
/// Deterministic in (topology, seed); see `InputNeed` for the exact
/// markings.
void prepare_instance(graph::Tree& tree, unsigned needs,
                      std::uint64_t seed);

/// Outcome of running a registered solver once.
struct SolverRun {
  local::RunStats stats;
  problems::CheckResult verdict;
};

/// One uniform run, the only code that executes a solver (scenarios,
/// lcld and the solver tests all run through it): validates
/// `config`, builds the program through the spec's factory, executes it
/// on a fresh engine over this thread's workspace, and certifies the
/// outputs with the spec's checker binding. A truncated run is measured
/// but not certified (partial outputs are not checkable). The instance
/// must already be prepared (or be a paper construction that carries
/// its own inputs). `core::make_solver_job` wraps this for batches and
/// is the only code that turns a (solver, family) request into a job —
/// sweeps and lcld's `solve` both go through it.
[[nodiscard]] SolverRun run_registered(
    const SolverSpec& spec, const graph::Tree& tree, SolverConfig config,
    std::int64_t max_rounds = std::numeric_limits<int>::max());

}  // namespace lcl::algo
