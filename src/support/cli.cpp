#include "support/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace adsd {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) {
    program_ = argv[0];
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is itself an option or absent.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[i + 1];
      ++i;
    } else {
      options_[arg] = "";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return options_.count(name) != 0;
}

void CliArgs::reject_unknown(
    std::initializer_list<std::string_view> known) const {
  for (const auto& [name, value] : options_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw std::invalid_argument("unknown flag '--" + name + "'");
    }
  }
}

std::optional<std::string> CliArgs::raw(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::string CliArgs::get_string(const std::string& name,
                                std::string fallback) const {
  const auto v = raw(name);
  return v ? *v : fallback;
}

namespace {

// The whole of `value` as a base-10 T; std::stoll alone would read "4x"
// as 4 and fail "abc" with the bare message "stoll".
template <class T>
T parse_whole(const std::string& name, const std::string& value,
              const char* want) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("--" + name + ": expected " + want +
                                ", got '" + value + "'");
  }
  return parsed;
}

}  // namespace

int CliArgs::get_int(const std::string& name, int fallback) const {
  const auto v = raw(name);
  if (!v || v->empty()) {
    return fallback;
  }
  return parse_whole<int>(name, *v, "an integer");
}

std::size_t CliArgs::get_size(const std::string& name,
                              std::size_t fallback) const {
  const auto v = raw(name);
  if (!v || v->empty()) {
    return fallback;
  }
  return parse_whole<std::size_t>(name, *v, "a non-negative integer");
}

std::size_t CliArgs::get_positive_size(const std::string& name,
                                       std::size_t fallback) const {
  const auto v = raw(name);
  if (!v) {
    return fallback;
  }
  const char* want = "a positive integer";
  const auto parsed = parse_whole<std::size_t>(name, *v, want);
  if (parsed == 0) {
    throw std::invalid_argument("--" + name + ": expected " + want +
                                ", got '" + *v + "'");
  }
  return parsed;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto v = raw(name);
  if (!v || v->empty()) {
    return fallback;
  }
  // Whole value, finite: std::stod alone would read "5x" as 5, accept
  // "nan"/"inf", and fail "abc" with the bare message "stod".
  const auto bad = [&]() {
    return std::invalid_argument("--" + name +
                                 ": expected a finite number, got '" + *v +
                                 "'");
  };
  double parsed = 0.0;
  std::size_t used = 0;
  try {
    parsed = std::stod(*v, &used);
  } catch (const std::logic_error&) {
    throw bad();
  }
  if (used != v->size() || !std::isfinite(parsed)) {
    throw bad();
  }
  return parsed;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto v = raw(name);
  if (!v) {
    return fallback;
  }
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes" || *v == "on") {
    return true;
  }
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") {
    return false;
  }
  throw std::invalid_argument("--" + name + ": expected a boolean, got '" +
                              *v + "'");
}

}  // namespace adsd
