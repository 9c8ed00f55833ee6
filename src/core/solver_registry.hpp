#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cop_solvers.hpp"

namespace adsd {

/// Key=value configuration of one registry solver, parsed from a spec
/// string or built programmatically. Keys are solver-specific and strictly
/// validated: the registry rejects any key the chosen solver does not
/// declare, so typos fail loudly instead of silently running defaults.
class SolverConfig {
 public:
  SolverConfig() = default;

  /// Sets (or overwrites) one key.
  void set(const std::string& key, const std::string& value);

  bool has(const std::string& key) const;
  const std::map<std::string, std::string>& values() const { return values_; }

  /// Typed getters; return `fallback` when the key is absent and throw
  /// std::invalid_argument when present but malformed.
  std::size_t get_size(const std::string& key, std::size_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// String-keyed factory for every CoreCopSolver in the repo: the single
/// construction path shared by the CLI, the experiment harnesses, the
/// examples, and the tests (direct `SomeSolver(...)` construction outside
/// the registry and its unit tests is a review error).
///
/// Canonical names follow the CLI convention (prop / dalta / dalta-lit /
/// ilp / ba / alt / exhaustive); each entry also accepts the class
/// `name()` string as an alias (ising-bsb, dalta-greedy, ilp-bnb,
/// ba-anneal, alternating), so trace paths and registry lookups agree.
class SolverRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<CoreCopSolver>(const SolverConfig&)>;

  struct Entry {
    std::string name;                   // canonical CLI name
    std::string summary;                // one line for `adsd_cli info`
    std::vector<std::string> aliases;   // accepted alternate names
    std::vector<std::string> keys;      // declared config keys ("key=doc")
    Factory factory;

    /// True when `query` is the canonical name or an alias.
    bool accepts(const std::string& query) const;
  };

  /// Registers an entry; throws std::invalid_argument when the name or an
  /// alias collides with an existing entry.
  void add(Entry entry);

  /// Builds a solver by name with strict key validation.
  std::unique_ptr<CoreCopSolver> make(const std::string& name,
                                      const SolverConfig& config = {}) const;

  /// Builds from a one-string spec "name,key=value,key=value".
  std::unique_ptr<CoreCopSolver> make_from_spec(const std::string& spec) const;

  /// Splits a spec string into (name, config) without building.
  static std::pair<std::string, SolverConfig> parse_spec(
      const std::string& spec);

  const std::vector<Entry>& entries() const { return entries_; }
  const Entry* find(const std::string& name) const;

  /// The process-wide registry, pre-populated with every built-in solver.
  static const SolverRegistry& global();

 private:
  std::vector<Entry> entries_;
};

}  // namespace adsd
