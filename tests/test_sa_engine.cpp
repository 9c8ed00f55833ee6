// SA-on-engine coverage (DESIGN.md §4.8): the rehosted SaEngine must keep
// the historical solver's exact fixed-seed trajectories (the hex-float
// goldens below were captured from the pre-refactor standalone loop), agree
// with its registry-built counterpart, and honor RunContext deadlines the
// shared sweep driver now supplies.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "core/column_cop.hpp"
#include "core/solver_registry.hpp"
#include "ising/engine.hpp"
#include "ising/model.hpp"
#include "ising/sa.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"

namespace adsd {
namespace {

// Identical construction to the golden-capture harness that produced the
// hex-float energies below (biases in (-0.5, 0.5), couplings in (-1, 1)).
IsingModel random_model(std::size_t n, double density, Rng& rng) {
  IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.set_bias(i, rng.next_double(-0.5, 0.5));
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.next_double() < density) {
        m.add_coupling(i, j, rng.next_double(-1.0, 1.0));
      }
    }
  }
  m.finalize();
  return m;
}

ColumnCop random_cop(std::uint64_t seed, std::size_t r, std::size_t c) {
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

// ------------------------------------------------ the sweep driver

/// Records the steps run_engine() takes and the steps after which it
/// samples, and checks that every advance() call runs from the last step
/// up to the next sampling point or the cap, whichever comes first. Every
/// sampled energy is 1.0, so an enabled dynamic stop (window 2) fires at
/// the second sampling point. A nonzero `lowered_cap` replaces the cap at
/// the first sampling point, as the budget rescale does.
class CountingEngine final : public IsingEngine {
 public:
  CountingEngine(std::size_t cap, std::size_t interval, bool stop,
                 std::size_t lowered_cap = 0)
      : cap_(cap), interval_(interval), lowered_cap_(lowered_cap) {
    stop_.enabled = stop;
    stop_.sample_interval = interval;
    stop_.window = 2;
  }
  const char* telemetry_prefix() const override { return "test/count"; }
  const char* trace_prefix() const override { return "test/count"; }
  std::string curve_name() const override { return "test/count"; }
  std::size_t max_iterations() const override { return cap_; }
  std::size_t sample_interval() const override { return interval_; }
  const DynamicStopParams& stop_params() const override { return stop_; }
  void begin(IsingSolveResult& result) override { result.energy = 2.0; }
  void advance(std::size_t iter, std::size_t steps) override {
    EXPECT_EQ(iter, steps_);
    EXPECT_EQ(iter + steps, std::min((iter / interval_ + 1) * interval_, cap_))
        << "chunk from " << iter;
    steps_ += steps;
    chunks.push_back(steps);
  }
  double observe(IsingSolveResult& /*result*/) override {
    if (sampled_after.empty() && lowered_cap_ != 0) {
      cap_ = lowered_cap_;
    }
    sampled_after.push_back(steps_);
    return 1.0;
  }
  std::vector<std::size_t> sampled_after;
  std::vector<std::size_t> chunks;

 private:
  std::size_t cap_;
  std::size_t interval_;
  std::size_t lowered_cap_;
  DynamicStopParams stop_;
  std::size_t steps_ = 0;
};

TEST(RunEngine, SamplingPointsFallEveryInterval) {
  // Caps that are not multiples of the interval: the last partial interval
  // runs without a sampling point, and a dynamic stop counts the step it
  // fires on.
  struct Case {
    std::size_t cap;
    std::size_t interval;
    bool stop;
    std::vector<std::size_t> sampled_after;
    std::size_t iterations;
  };
  for (const Case& c : {Case{23, 7, false, {7, 14, 21}, 23},
                        Case{5, 1, false, {1, 2, 3, 4, 5}, 5},
                        Case{23, 7, true, {7, 14}, 14},
                        Case{5, 1, true, {1, 2}, 2},
                        Case{6, 7, true, {}, 6}}) {
    CountingEngine engine(c.cap, c.interval, c.stop);
    const IsingSolveResult result = run_engine(engine);
    const std::string where = "cap " + std::to_string(c.cap) + " interval " +
                              std::to_string(c.interval) +
                              (c.stop ? " stop" : "");
    EXPECT_EQ(engine.sampled_after, c.sampled_after) << where;
    EXPECT_EQ(result.iterations, c.iterations) << where;
    EXPECT_EQ(result.stopped_early, c.stop && !c.sampled_after.empty())
        << where;
  }
}

TEST(RunEngine, ChunksHonorACapLoweredAtTheFirstSamplingPoint) {
  // The budget rescale shrinks the cap at the first sampling point; the
  // driver re-reads it before the next chunk, so the run stops at the new
  // cap, inside an interval (17) or at the point already reached (5).
  struct Case {
    std::size_t lowered_cap;
    std::vector<std::size_t> sampled_after;
    std::vector<std::size_t> chunks;
    std::size_t iterations;
  };
  for (const Case& c : {Case{17, {7, 14}, {7, 7, 3}, 17},
                        Case{21, {7, 14, 21}, {7, 7, 7}, 21},
                        Case{5, {7}, {7}, 7}}) {
    CountingEngine engine(100, 7, false, c.lowered_cap);
    const IsingSolveResult result = run_engine(engine);
    const std::string where = "lowered to " + std::to_string(c.lowered_cap);
    EXPECT_EQ(engine.sampled_after, c.sampled_after) << where;
    EXPECT_EQ(engine.chunks, c.chunks) << where;
    EXPECT_EQ(result.iterations, c.iterations) << where;
    EXPECT_FALSE(result.stopped_early) << where;
  }
}

// ------------------------------------------------ fixed-seed goldens

// Captured from the pre-engine-refactor solve_sa() at exactly these
// parameters; bit-for-bit equality is the refactor's contract, so these are
// compared with == on the doubles, not with a tolerance.
TEST(SaEngine, FixedSeedBitReproducibility) {
  Rng model_rng(7);
  const auto m = random_model(14, 0.5, model_rng);

  const struct {
    std::uint64_t seed;
    double energy;
  } goldens[] = {
      {1, -0x1.e58a229b8643cp+3},
      {9, -0x1.e58a229b8644p+3},
      {123, -0x1.e58a229b8643ap+3},
  };
  for (const auto& g : goldens) {
    SaParams p;
    p.sweeps = 200;
    p.seed = g.seed;
    const auto res = solve_sa(m, p);
    EXPECT_EQ(res.energy, g.energy) << "seed " << g.seed;
    EXPECT_EQ(res.iterations, 200u);
    EXPECT_FALSE(res.stopped_early);
    EXPECT_NEAR(m.energy(res.spins), res.energy, 1e-9);
  }
}

TEST(SaEngine, FixedSeedDynamicStopGolden) {
  Rng model_rng(7);
  const auto m = random_model(14, 0.5, model_rng);
  SaParams p;
  p.sweeps = 400;
  p.seed = 5;
  p.stop.enabled = true;
  p.stop.sample_interval = 1;
  p.stop.window = 12;
  p.stop.epsilon = 1e-10;
  const auto res = solve_sa(m, p);
  EXPECT_EQ(res.energy, -0x1.e58a229b86443p+3);
  EXPECT_EQ(res.iterations, 243u);
  EXPECT_TRUE(res.stopped_early);
}

TEST(SaEngine, RerunIsBitIdentical) {
  Rng model_rng(21);
  const auto m = random_model(12, 0.6, model_rng);
  SaParams p;
  p.sweeps = 150;
  p.seed = 77;
  const auto a = solve_sa(m, p);
  const auto b = solve_sa(m, p);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.spins, b.spins);
  EXPECT_EQ(a.iterations, b.iterations);
}

// ------------------------------------------------ registry equivalence

// A registry-built "sa" solver and a hand-configured IsingCoreSolver with
// the same options must be the same solver: identical objective and
// setting on the same COP and seed.
TEST(SaEngine, RegistryMatchesDirectConstruction) {
  SolverConfig config;
  config.set("n", "5");
  config.set("replicas", "2");
  config.set("sweeps", "150");
  const auto from_registry = SolverRegistry::global().make("sa", config);

  auto options = IsingCoreSolver::Options::paper_defaults(5);
  options.engine = IsingEngineKind::kSa;
  options.use_theorem3 = false;
  options.anti_collapse = false;
  options.replicas = 2;
  options.sa.sweeps = 150;
  options.sa.stop = options.sb.stop;
  const IsingCoreSolver direct(options);

  const RunContext ctx{RunContext::Options{}};
  for (std::uint64_t seed : {11ull, 42ull, 99ull}) {
    const ColumnCop cop = random_cop(seed, 5, 12);
    CoreSolveStats reg_stats;
    CoreSolveStats direct_stats;
    const ColumnSetting a = from_registry->solve(cop, ctx, seed, &reg_stats);
    const ColumnSetting b = direct.solve(cop, ctx, seed, &direct_stats);
    EXPECT_EQ(reg_stats.objective, direct_stats.objective) << "seed " << seed;
    EXPECT_EQ(reg_stats.iterations, direct_stats.iterations);
    EXPECT_TRUE(a.v1 == b.v1 && a.v2 == b.v2 && a.t == b.t);
  }
}

TEST(SaEngine, RegistryAliasAndSpinFlipKeysAreWired) {
  const auto& reg = SolverRegistry::global();
  ASSERT_NE(reg.find("sa"), nullptr);
  EXPECT_EQ(reg.find("ising-sa"), reg.find("sa"));
  // Spin-flip dynamics take no kernel/dt keys; asking for one must fail
  // the strict-key check rather than being silently ignored.
  EXPECT_THROW((void)reg.make_from_spec("sa,kernel=avx2"),
               std::invalid_argument);
  EXPECT_THROW((void)reg.make_from_spec("sa,dt=0.5"), std::invalid_argument);
  EXPECT_NO_THROW(
      (void)reg.make_from_spec("sa,sweeps=10,beta-start=0.2,beta-end=8"));
}

// ------------------------------------------------ deadline honoring

// An already-expired deadline must stop the solve at the entry check: the
// initial assignment comes back, marked stopped_early, with zero executed
// sweeps and the deadline-hit metric bumped.
TEST(SaEngine, ExpiredDeadlineStopsBeforeFirstSweep) {
  Rng model_rng(3);
  const auto m = random_model(10, 0.5, model_rng);
  MetricsRegistry::Counter& deadline_hits =
      MetricsRegistry::global().counter("engine_deadline_hits_total",
                                        {{"engine", "sa"}});
  const std::uint64_t hits_before = deadline_hits.value();
  RunContext::Options opts;
  opts.time_budget_s = 1e-9;
  opts.metrics = true;
  const RunContext ctx(opts);
  while (!ctx.expired()) {
    std::this_thread::yield();
  }
  SaParams p;
  p.sweeps = 100000;
  const auto res = solve_sa(m, p, &ctx);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_NEAR(m.energy(res.spins), res.energy, 1e-9);
  EXPECT_GE(deadline_hits.value() - hits_before, 1u);
}

// A deadline that expires mid-run stops within one sweep of it firing and
// still returns the best energy seen so far.
TEST(SaEngine, MidRunDeadlineStopsEarly) {
  Rng model_rng(5);
  const auto m = random_model(16, 0.6, model_rng);
  RunContext::Options opts;
  opts.time_budget_s = 0.02;
  const RunContext ctx(opts);
  SaParams p;
  p.sweeps = 50000000;  // far beyond the budget on any host
  const auto res = solve_sa(m, p, &ctx);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_LT(res.iterations, p.sweeps);
  EXPECT_NEAR(m.energy(res.spins), res.energy, 1e-9);
}

// ------------------------------------------------ validation

TEST(SaEngine, RejectsBadParameters) {
  Rng model_rng(1);
  const auto m = random_model(6, 0.5, model_rng);
  SaParams zero_sweeps;
  zero_sweeps.sweeps = 0;
  EXPECT_THROW((void)solve_sa(m, zero_sweeps), std::invalid_argument);

  IsingModel unfinalized(4);
  SaParams p;
  EXPECT_THROW((void)solve_sa(unfinalized, p), std::invalid_argument);
}

}  // namespace
}  // namespace adsd
