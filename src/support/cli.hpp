#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace adsd {

/// Minimal command-line parser for the bench/example binaries.
///
/// Accepts `--name value`, `--name=value`, and bare `--flag` forms. Unknown
/// options are collected rather than rejected so that harness scripts can
/// pass experiment-specific knobs through a shared runner; a tool whose
/// flags are all its own rejects them with reject_unknown().
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if `--name` appeared (with or without a value).
  bool has(const std::string& name) const;

  /// Throws std::invalid_argument naming the first `--name` that is not
  /// in `known`.
  void reject_unknown(const std::vector<std::string_view>& known) const;

  std::string get_string(const std::string& name, std::string fallback) const;

  /// Integer getters: the whole value must parse as a base-10 integer in
  /// range (get_size: non-negative); "4x", "abc", "-1" for a size and
  /// out-of-range values throw std::invalid_argument naming the flag. An
  /// absent or empty value keeps the fallback.
  int get_int(const std::string& name, int fallback) const;
  std::size_t get_size(const std::string& name, std::size_t fallback) const;

  /// Strict variant for counted resources (--threads): the
  /// whole value must parse as a base-10 integer >= 1. Rejects 0,
  /// negatives, empty values, and trailing garbage ("4x") instead of
  /// silently falling back.
  std::size_t get_positive_size(const std::string& name,
                                std::size_t fallback) const;

  /// The whole value must parse as a finite number; "5x", "nan", "inf"
  /// and "abc" throw std::invalid_argument naming the flag.
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non `--`) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program() const { return program_; }

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace adsd
