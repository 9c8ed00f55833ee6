#include "core/solver_registry.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace adsd {

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* want) {
  throw std::invalid_argument("solver config key '" + key + "': '" + value +
                              "' is not a valid " + want);
}

/// A count key (restarts): `fallback` when absent, and 0, which would run
/// no start, throws naming the key.
std::size_t get_count(const SolverConfig& c, const std::string& key,
                      std::size_t fallback = 1) {
  const std::size_t count = c.get_size(key, fallback);
  if (count == 0) {
    bad_value(key, "0", "positive integer");
  }
  return count;
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    out += out.empty() ? item : ", " + item;
  }
  return out;
}

}  // namespace

void SolverConfig::set(const std::string& key, const std::string& value) {
  if (key.empty()) {
    throw std::invalid_argument("solver config: empty key");
  }
  values_[key] = value;
}

bool SolverConfig::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::size_t SolverConfig::get_size(const std::string& key,
                                   std::size_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& v = it->second;
  std::size_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size()) {
    bad_value(key, v, "non-negative integer");
  }
  return out;
}

double SolverConfig::get_double(const std::string& key,
                                double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& v = it->second;
  // std::stod also accepts "nan" and "inf", which no key means: a NaN dt
  // or stop epsilon runs to completion on garbage instead of failing.
  double out = 0.0;
  std::size_t used = 0;
  try {
    out = std::stod(v, &used);
  } catch (const std::logic_error&) {  // invalid_argument, out_of_range
    bad_value(key, v, "finite number");
  }
  if (used != v.size() || !std::isfinite(out)) {
    bad_value(key, v, "finite number");
  }
  return out;
}

std::string SolverConfig::get_string(const std::string& key,
                                     const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool SolverConfig::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "on" || v == "yes") {
    return true;
  }
  if (v == "0" || v == "false" || v == "off" || v == "no") {
    return false;
  }
  bad_value(key, v, "boolean (1/0/true/false/on/off/yes/no)");
}

bool SolverRegistry::Entry::accepts(const std::string& query) const {
  return query == name ||
         std::find(aliases.begin(), aliases.end(), query) != aliases.end();
}

void SolverRegistry::add(Entry entry) {
  auto check = [this](const std::string& candidate) {
    for (const Entry& existing : entries_) {
      if (existing.accepts(candidate)) {
        throw std::invalid_argument("solver registry: name '" + candidate +
                                    "' already registered");
      }
    }
  };
  check(entry.name);
  for (const std::string& alias : entry.aliases) {
    check(alias);
  }
  entries_.push_back(std::move(entry));
}

const SolverRegistry::Entry* SolverRegistry::find(
    const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.accepts(name)) {
      return &entry;
    }
  }
  return nullptr;
}

std::unique_ptr<CoreCopSolver> SolverRegistry::make(
    const std::string& name, const SolverConfig& config) const {
  const Entry* entry = find(name);
  if (entry == nullptr) {
    // Enumerate everything a valid spec could have named — canonical names
    // and aliases, each sorted — so a typo'd spec is self-correcting.
    std::vector<std::string> names;
    std::vector<std::string> aliases;
    for (const Entry& e : entries_) {
      names.push_back(e.name);
      aliases.insert(aliases.end(), e.aliases.begin(), e.aliases.end());
    }
    std::sort(names.begin(), names.end());
    std::sort(aliases.begin(), aliases.end());
    std::string message = "unknown solver '" + name + "' (known: ";
    message += join(names);
    if (!aliases.empty()) {
      message += "; aliases: " + join(aliases);
    }
    message += ")";
    throw std::invalid_argument(message);
  }
  for (const auto& [key, value] : config.values()) {
    if (std::find(entry->keys.begin(), entry->keys.end(), key) ==
        entry->keys.end()) {
      std::vector<std::string> keys = entry->keys;
      std::sort(keys.begin(), keys.end());
      throw std::invalid_argument(
          "solver '" + entry->name + "' does not take key '" + key + "'" +
          (keys.empty() ? std::string(" (no keys)")
                        : " (keys: " + join(keys) + ")"));
    }
  }
  return entry->factory(config);
}

std::pair<std::string, SolverConfig> SolverRegistry::parse_spec(
    const std::string& spec) {
  SolverConfig config;
  std::size_t pos = spec.find(',');
  const std::string name = spec.substr(0, pos);
  if (name.empty()) {
    throw std::invalid_argument("solver spec: empty name in '" + spec + "'");
  }
  while (pos != std::string::npos) {
    const std::size_t start = pos + 1;
    pos = spec.find(',', start);
    const std::string item =
        spec.substr(start, pos == std::string::npos ? pos : pos - start);
    if (item.empty()) {
      continue;
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("solver spec item '" + item +
                                  "' is not key=value");
    }
    config.set(item.substr(0, eq), item.substr(eq + 1));
  }
  return {name, std::move(config)};
}

std::unique_ptr<CoreCopSolver> SolverRegistry::make_from_spec(
    const std::string& spec) const {
  auto [name, config] = parse_spec(spec);
  return make(name, config);
}

const SolverRegistry& SolverRegistry::global() {
  static const SolverRegistry registry = [] {
    SolverRegistry r;

    // Shared stop-key plumbing of the Ising entries: every one takes the
    // same stop / stop-interval / stop-window / stop-epsilon keys over
    // paper-default dynamic-stop settings.
    const auto apply_stop_keys = [](const SolverConfig& c,
                                    DynamicStopParams& stop,
                                    const DynamicStopParams& defaults) {
      stop = defaults;
      stop.enabled = c.get_bool("stop", stop.enabled);
      stop.sample_interval =
          c.get_size("stop-interval", stop.sample_interval);
      stop.window = c.get_size("stop-window", stop.window);
      stop.epsilon = c.get_double("stop-epsilon", stop.epsilon);
    };
    const auto apply_shared_keys = [](const SolverConfig& c,
                                      IsingCoreSolver::Options& options) {
      options.restarts = get_count(c, "restarts");
      options.use_theorem3 = c.get_bool("theorem3", true);
      options.anti_collapse = c.get_bool("anti-collapse", true);
      options.final_polish = c.get_bool("polish", true);
      options.column_seed_init = c.get_bool("seed-init", true);
    };

    r.add({"prop",
           "Ising/bSB solver proposed by the paper (dynamic stop + "
           "Theorem-3 feedback)",
           {"ising-bsb"},
           {"n", "restarts", "theorem3", "anti-collapse", "polish",
            "seed-init", "max-iter", "dt", "discrete", "stop",
            "stop-interval", "stop-window", "stop-epsilon", "pack"},
           [apply_stop_keys,
            apply_shared_keys](const SolverConfig& c)
               -> std::unique_ptr<CoreCopSolver> {
             auto options = IsingCoreSolver::Options::paper_defaults(
                 static_cast<unsigned>(c.get_size("n", 9)));
             apply_shared_keys(c, options);
             options.sb.max_iterations =
                 c.get_size("max-iter", options.sb.max_iterations);
             options.sb.dt = c.get_double("dt", options.sb.dt);
             options.sb.discrete = c.get_bool("discrete", false);
             apply_stop_keys(c, options.sb.stop, options.sb.stop);
             // pack=K (K > 0) makes the solver batched: DALTA hands it each
             // output-round's candidates as one solve_batch call, and every
             // member runs as the standalone solve over the pool.
             if (c.get_size("pack", 0) > 0) {
               return std::make_unique<PackedCoreCopSolver>(options);
             }
             return std::make_unique<IsingCoreSolver>(options);
           }});

    r.add({"sa",
           "Metropolis simulated annealing on the Ising formulation "
           "(engine-rehosted baseline)",
           {"ising-sa"},
           {"n", "restarts", "polish", "seed-init", "sweeps",
            "beta-start", "beta-end", "stop", "stop-interval", "stop-window",
            "stop-epsilon"},
           [apply_stop_keys,
            apply_shared_keys](const SolverConfig& c)
               -> std::unique_ptr<CoreCopSolver> {
             auto options = IsingCoreSolver::Options::paper_defaults(
                 static_cast<unsigned>(c.get_size("n", 9)));
             options.engine = IsingEngineKind::kSa;
             apply_shared_keys(c, options);
             // Spin-flip dynamics have no oscillator planes: the Theorem-3
             // feedback and anti-collapse interventions don't apply.
             options.use_theorem3 = false;
             options.anti_collapse = false;
             options.sa.sweeps = c.get_size("sweeps", options.sa.sweeps);
             options.sa.beta_start =
                 c.get_double("beta-start", options.sa.beta_start);
             options.sa.beta_end =
                 c.get_double("beta-end", options.sa.beta_end);
             apply_stop_keys(c, options.sa.stop, options.sb.stop);
             return std::make_unique<IsingCoreSolver>(options);
           }});

    r.add({"doch",
           "Difference-of-convex heuristic (ADOCH with momentum > 0) on "
           "the shared engine chassis",
           {"ising-doch"},
           {"n", "restarts", "theorem3", "anti-collapse", "polish",
            "seed-init", "max-iter", "rho", "momentum", "init-amp",
            "stop", "stop-interval", "stop-window", "stop-epsilon"},
           [apply_stop_keys,
            apply_shared_keys](const SolverConfig& c)
               -> std::unique_ptr<CoreCopSolver> {
             auto options = IsingCoreSolver::Options::paper_defaults(
                 static_cast<unsigned>(c.get_size("n", 9)));
             options.engine = IsingEngineKind::kDoch;
             apply_shared_keys(c, options);
             options.doch.max_iterations =
                 c.get_size("max-iter", options.doch.max_iterations);
             options.doch.rho = c.get_double("rho", options.doch.rho);
             options.doch.momentum =
                 c.get_double("momentum", options.doch.momentum);
             options.doch.init_amp =
                 c.get_double("init-amp", options.doch.init_amp);
             apply_stop_keys(c, options.doch.stop, options.sb.stop);
             return std::make_unique<IsingCoreSolver>(options);
           }});

    r.add({"dalta",
           "DALTA-style greedy heuristic with alternating refinement",
           {"dalta-greedy"},
           {"sweeps"},
           [](const SolverConfig& c) -> std::unique_ptr<CoreCopSolver> {
             return std::make_unique<HeuristicCoreSolver>(
                 c.get_size("sweeps", 4));
           }});

    r.add({"dalta-lit",
           "One-shot greedy heuristic (literal ICCAD'21 reconstruction)",
           {},
           {},
           [](const SolverConfig&) -> std::unique_ptr<CoreCopSolver> {
             return std::make_unique<HeuristicCoreSolver>(0);
           }});

    r.add({"ilp",
           "Anytime exact branch-and-bound (stands in for DALTA-ILP)",
           {"ilp-bnb"},
           {"budget", "warm-restarts"},
           [](const SolverConfig& c) -> std::unique_ptr<CoreCopSolver> {
             BnbCoreSolver::Options opt;
             opt.time_budget_s = c.get_double("budget", opt.time_budget_s);
             opt.warm_restarts =
                 c.get_size("warm-restarts", opt.warm_restarts);
             return std::make_unique<BnbCoreSolver>(opt);
           }});

    r.add({"ba",
           "BA-style simulated annealing over setting bits (DATE'23)",
           {"ba-anneal"},
           {"sweeps", "beta-start", "beta-end", "restarts"},
           [](const SolverConfig& c) -> std::unique_ptr<CoreCopSolver> {
             AnnealCoreSolver::Options opt;
             opt.sweeps = c.get_size("sweeps", opt.sweeps);
             opt.beta_start = c.get_double("beta-start", opt.beta_start);
             opt.beta_end = c.get_double("beta-end", opt.beta_end);
             opt.restarts = get_count(c, "restarts", opt.restarts);
             return std::make_unique<AnnealCoreSolver>(opt);
           }});

    r.add({"alt",
           "Lloyd-style alternating minimization, best of restarts",
           {"alternating"},
           {"restarts", "sweeps"},
           [](const SolverConfig& c) -> std::unique_ptr<CoreCopSolver> {
             return std::make_unique<AlternatingCoreSolver>(
                 get_count(c, "restarts", 8), c.get_size("sweeps", 64));
           }});

    r.add({"exhaustive",
           "Exact oracle: exhaustive spin enumeration (2r + c <= 24)",
           {},
           {},
           [](const SolverConfig&) -> std::unique_ptr<CoreCopSolver> {
             return std::make_unique<ExhaustiveCoreSolver>();
           }});

    return r;
  }();
  return registry;
}

}  // namespace adsd
