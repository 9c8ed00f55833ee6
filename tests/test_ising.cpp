#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "ising/bsb.hpp"
#include "ising/exhaustive.hpp"
#include "ising/model.hpp"
#include "ising/qubo.hpp"
#include "ising/sa.hpp"
#include "ising/stop.hpp"
#include "support/rng.hpp"

namespace adsd {
namespace {

std::vector<std::int8_t> spins_from_bits(std::uint64_t bits, std::size_t n) {
  std::vector<std::int8_t> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = ((bits >> i) & 1) ? std::int8_t{1} : std::int8_t{-1};
  }
  return s;
}

/// Random small model for property sweeps.
IsingModel random_model(std::size_t n, double density, Rng& rng) {
  IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.set_bias(i, rng.next_double(-1.0, 1.0));
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.next_double() < density) {
        m.add_coupling(i, j, rng.next_double(-1.0, 1.0));
      }
    }
  }
  m.finalize();
  return m;
}

// ------------------------------------------------------------ IsingModel

TEST(IsingModel, EnergyOfTwoSpinFerromagnet) {
  IsingModel m(2);
  m.add_coupling(0, 1, 1.0);
  m.finalize();
  // Aligned spins: E = -J = -1. Anti-aligned: +1.
  EXPECT_DOUBLE_EQ(m.energy(spins_from_bits(0b11, 2)), -1.0);
  EXPECT_DOUBLE_EQ(m.energy(spins_from_bits(0b00, 2)), -1.0);
  EXPECT_DOUBLE_EQ(m.energy(spins_from_bits(0b01, 2)), 1.0);
}

TEST(IsingModel, BiasTermSign) {
  IsingModel m(1);
  m.set_bias(0, 2.0);
  m.finalize();
  EXPECT_DOUBLE_EQ(m.energy(spins_from_bits(1, 1)), -2.0);
  EXPECT_DOUBLE_EQ(m.energy(spins_from_bits(0, 1)), 2.0);
}

TEST(IsingModel, BiasesNeverStoredAsNegativeZero) {
  // -0.0 is stored as +0.0 (the force kernels' +-0.0 argument needs an
  // h-seeded accumulator that is never -0.0); every other value is kept.
  IsingModel m(4);
  m.set_bias(0, -0.0);
  m.add_bias(1, -0.0);
  m.set_bias(2, -1.5);
  m.add_bias(2, 1.5);
  m.set_bias(3, -2.25);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(m.bias(i), 0.0) << i;
    EXPECT_FALSE(std::signbit(m.bias(i))) << i;
  }
  EXPECT_EQ(m.bias(3), -2.25);
}

TEST(IsingModel, ConstantShiftsEnergy) {
  IsingModel m(1);
  m.set_constant(5.0);
  m.finalize();
  EXPECT_DOUBLE_EQ(m.energy(spins_from_bits(0, 1)), 5.0);
}

TEST(IsingModel, DuplicateCouplingsAccumulate) {
  IsingModel m(2);
  m.add_coupling(0, 1, 0.5);
  m.add_coupling(1, 0, 0.25);  // symmetric add merges
  m.finalize();
  EXPECT_EQ(m.num_couplings(), 1u);
  EXPECT_DOUBLE_EQ(m.energy(spins_from_bits(0b11, 2)), -0.75);
}

TEST(IsingModel, FlipDeltaMatchesEnergyDifference) {
  Rng rng(3);
  const auto m = random_model(8, 0.6, rng);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = spins_from_bits(rng.next_u64(), 8);
    const std::size_t i = rng.next_below(8);
    const double before = m.energy(s);
    const double delta = m.flip_delta(s, i);
    s[i] = static_cast<std::int8_t>(-s[i]);
    EXPECT_NEAR(m.energy(s) - before, delta, 1e-12);
  }
}

TEST(IsingModel, LocalFieldsMatchDefinition) {
  IsingModel m(3);
  m.set_bias(0, 0.5);
  m.add_coupling(0, 1, 1.0);
  m.add_coupling(0, 2, -2.0);
  m.finalize();
  std::vector<double> x = {0.1, 0.5, -0.5};
  std::vector<double> f(3);
  m.local_fields(x, f);
  EXPECT_DOUBLE_EQ(f[0], 0.5 + 1.0 * 0.5 + (-2.0) * (-0.5));
  EXPECT_DOUBLE_EQ(f[1], 1.0 * 0.1);
  EXPECT_DOUBLE_EQ(f[2], -2.0 * 0.1);
}

TEST(IsingModel, SignedFieldsUseSigns) {
  IsingModel m(2);
  m.add_coupling(0, 1, 1.0);
  m.finalize();
  std::vector<double> x = {0.0, -0.3};
  std::vector<double> f(2);
  m.local_fields_signed(x, f);
  EXPECT_DOUBLE_EQ(f[0], -1.0);  // sign(-0.3) = -1
  EXPECT_DOUBLE_EQ(f[1], 1.0);   // sign(0.0) treated as +1
}

TEST(IsingModel, CouplingRms) {
  IsingModel m(3);
  m.add_coupling(0, 1, 3.0);
  m.add_coupling(1, 2, -4.0);
  m.finalize();
  EXPECT_NEAR(m.coupling_rms(), std::sqrt((9.0 + 16.0) / 2.0), 1e-12);
}

TEST(IsingModel, NeighborsAdjacency) {
  IsingModel m(4);
  m.add_coupling(0, 2, 1.5);
  m.add_coupling(0, 3, -1.0);
  m.finalize();
  const auto nb = m.neighbors(0);
  EXPECT_EQ(nb.size(), 2u);
  EXPECT_EQ(m.neighbors(1).size(), 0u);
  EXPECT_EQ(m.neighbors(2).size(), 1u);
}

TEST(IsingModel, GuardsAndValidation) {
  EXPECT_THROW(IsingModel(0), std::invalid_argument);
  IsingModel m(2);
  EXPECT_THROW(m.add_coupling(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(m.add_coupling(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW((void)m.energy(spins_from_bits(0, 2)), std::logic_error);
  m.finalize();
  EXPECT_THROW((void)m.energy(spins_from_bits(0, 1)), std::invalid_argument);

  // coupling_rms() reads merged couplings like every other accessor:
  // (0,1) 3, (1,0) -3 and (1,2) 4 merge into the one coupling (1,2) 4.
  IsingModel rms(3);
  rms.add_coupling(0, 1, 3.0);
  rms.add_coupling(1, 0, -3.0);
  rms.add_coupling(1, 2, 4.0);
  EXPECT_THROW((void)rms.coupling_rms(), std::logic_error);
  rms.finalize();
  EXPECT_EQ(rms.coupling_rms(), 4.0);
}

TEST(IsingModel, DeclaredBipartiteShapeIsChecked) {
  // Shape r = 2, c = 3: V1 = {0, 1}, V2 = {2, 3}, T = {4, 5, 6}.
  EXPECT_THROW((void)IsingModel::bipartite({2, 3}, std::vector<double>(5)),
               std::invalid_argument);
  EXPECT_THROW((void)IsingModel::bipartite({0, 3}, {}), std::invalid_argument);
  EXPECT_THROW((void)IsingModel::bipartite({2, 0}, {}), std::invalid_argument);

  // w(0, 0) = 0.5, w(1, 2) = -0.25; every other entry is no coupling,
  // -0.0 included.
  IsingModel m =
      IsingModel::bipartite({2, 3}, {0.5, 0.0, -0.0, 0.0, 0.0, -0.25});
  m.set_bias(0, 0.125);
  m.set_bias(5, -1.0);
  m.set_constant(2.0);
  EXPECT_TRUE(m.finalized());
  ASSERT_TRUE(m.bipartite_shape().has_value());
  EXPECT_EQ(m.bipartite_shape()->rows, 2u);
  EXPECT_EQ(m.bipartite_shape()->cols, 3u);
  EXPECT_EQ(m.num_spins(), 7u);
  EXPECT_EQ(m.num_couplings(), 4u);
  EXPECT_THROW(m.add_coupling(0, 4, 1.0), std::logic_error);

  // The same couplings through the general path: the derived CSR, the
  // energy and the rms must match it exactly.
  IsingModel general(7);
  general.add_coupling(6, 3, 0.25);
  general.add_coupling(4, 0, 0.5);
  general.add_coupling(1, 6, -0.25);
  general.add_coupling(2, 4, -0.5);
  general.set_bias(0, 0.125);
  general.set_bias(5, -1.0);
  general.set_constant(2.0);
  general.finalize();
  EXPECT_EQ(general.num_couplings(), m.num_couplings());
  EXPECT_EQ(general.coupling_rms(), m.coupling_rms());
  for (std::size_t i = 0; i < 7; ++i) {
    const auto want = general.neighbors(i);
    const auto got = m.neighbors(i);
    ASSERT_EQ(got.size(), want.size()) << "row " << i;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k], want[k]) << "row " << i;
    }
  }
  for (std::uint64_t bits = 0; bits < 128; ++bits) {
    const auto spins = spins_from_bits(bits, 7);
    EXPECT_EQ(m.energy(spins), general.energy(spins)) << bits;
    for (std::size_t i = 0; i < 7; ++i) {
      EXPECT_EQ(m.flip_delta(spins, i), general.flip_delta(spins, i));
    }
  }

  // Copies carry the plane and a derived CSR along.
  const IsingModel copy = m;
  EXPECT_EQ(copy.neighbors(4).size(), 2u);
  EXPECT_EQ(copy.bipartite_plane().size(), 6u);
}

TEST(IsingModel, ConcurrentCsrDerivationIsSafe) {
  // Four threads walk the CSR of one shared column-COP model at once: the
  // first use derives it, and every thread must see the same adjacency.
  std::vector<double> plane(16 * 32);
  Rng rng(5);
  for (double& w : plane) {
    w = rng.next_bool() ? rng.next_double(-1.0, 1.0) : 0.0;
  }
  const IsingModel m = IsingModel::bipartite({16, 32}, plane);
  std::vector<std::size_t> degree_sums(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&m, &degree_sums, t] {
      for (std::size_t i = 0; i < m.num_spins(); ++i) {
        degree_sums[t] += m.neighbors(i).size();
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (const std::size_t sum : degree_sums) {
    EXPECT_EQ(sum, 2 * m.num_couplings());
  }
}

TEST(IsingModel, ZeroCouplingsDropped) {
  IsingModel m(2);
  m.add_coupling(0, 1, 0.5);
  m.add_coupling(0, 1, -0.5);  // cancels to zero
  m.finalize();
  EXPECT_EQ(m.num_couplings(), 0u);
}

// ------------------------------------------------------------------ QUBO

TEST(Qubo, ValueComputation) {
  Qubo q(3);
  q.add_linear(0, 1.0);
  q.add_linear(2, -2.0);
  q.add_quadratic(0, 1, 3.0);
  q.add_constant(0.5);
  std::vector<std::uint8_t> x = {1, 1, 1};
  EXPECT_DOUBLE_EQ(q.value(x), 1.0 - 2.0 + 3.0 + 0.5);
  x = {1, 0, 0};
  EXPECT_DOUBLE_EQ(q.value(x), 1.5);
}

TEST(Qubo, SelfQuadraticFoldsToLinear) {
  Qubo q(1);
  q.add_quadratic(0, 0, 2.0);
  std::vector<std::uint8_t> x = {1};
  EXPECT_DOUBLE_EQ(q.value(x), 2.0);
}

TEST(Qubo, IsingConversionPreservesValues) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    Qubo q(6);
    for (std::size_t i = 0; i < 6; ++i) {
      q.add_linear(i, rng.next_double(-2.0, 2.0));
      for (std::size_t j = i + 1; j < 6; ++j) {
        if (rng.next_bool()) {
          q.add_quadratic(i, j, rng.next_double(-2.0, 2.0));
        }
      }
    }
    q.add_constant(rng.next_double(-1.0, 1.0));
    const IsingModel m = q.to_ising();
    for (std::uint64_t bits = 0; bits < 64; ++bits) {
      const auto spins = spins_from_bits(bits, 6);
      const auto x = Qubo::spins_to_binary(spins);
      EXPECT_NEAR(m.energy(spins), q.value(x), 1e-9)
          << "bits=" << bits << " trial=" << trial;
    }
  }
}

TEST(Qubo, SpinsToBinary) {
  std::vector<std::int8_t> spins = {1, -1, 1};
  const auto x = Qubo::spins_to_binary(spins);
  EXPECT_EQ(x[0], 1);
  EXPECT_EQ(x[1], 0);
  EXPECT_EQ(x[2], 1);
}

// ------------------------------------------------------------ Exhaustive

TEST(Exhaustive, FindsGroundStateOfFrustratedTriangle) {
  IsingModel m(3);
  // Antiferromagnetic triangle: ground energy = -1 (one bond frustrated).
  m.add_coupling(0, 1, -1.0);
  m.add_coupling(1, 2, -1.0);
  m.add_coupling(0, 2, -1.0);
  m.finalize();
  const auto res = solve_exhaustive(m);
  EXPECT_DOUBLE_EQ(res.energy, -1.0);
}

TEST(Exhaustive, MatchesBruteForceRecomputation) {
  Rng rng(5);
  const auto m = random_model(10, 0.5, rng);
  const auto res = solve_exhaustive(m);
  double best = 1e300;
  for (std::uint64_t bits = 0; bits < 1024; ++bits) {
    best = std::min(best, m.energy(spins_from_bits(bits, 10)));
  }
  EXPECT_NEAR(res.energy, best, 1e-9);
  EXPECT_NEAR(m.energy(res.spins), res.energy, 1e-9);
}

TEST(Exhaustive, RejectsLargeModels) {
  IsingModel m(25);
  m.finalize();
  EXPECT_THROW((void)solve_exhaustive(m), std::invalid_argument);
}

// ------------------------------------------------------------------- bSB

TEST(Bsb, SolvesFerromagneticChainExactly) {
  IsingModel m(16);
  for (std::size_t i = 0; i + 1 < 16; ++i) {
    m.add_coupling(i, i + 1, 1.0);
  }
  m.finalize();
  SbParams p;
  p.max_iterations = 500;
  p.seed = 7;
  const auto res = solve_sb(m, p);
  EXPECT_DOUBLE_EQ(res.energy, -15.0);  // all aligned
}

TEST(Bsb, ReachesGroundStateOnSmallRandomInstances) {
  Rng rng(11);
  int hits = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto m = random_model(12, 0.5, rng);
    const auto exact = solve_exhaustive(m);
    SbParams p;
    p.max_iterations = 2000;
    p.seed = 100 + trial;
    const auto res = solve_sb(m, p);
    EXPECT_GE(res.energy, exact.energy - 1e-9);
    hits += std::fabs(res.energy - exact.energy) < 1e-9;
  }
  EXPECT_GE(hits, 7) << "bSB should find most small ground states";
}

TEST(Bsb, DiscreteVariantAlsoWorks) {
  Rng rng(13);
  const auto m = random_model(12, 0.5, rng);
  const auto exact = solve_exhaustive(m);
  SbParams p;
  p.max_iterations = 2000;
  p.discrete = true;
  p.seed = 3;
  const auto res = solve_sb(m, p);
  EXPECT_GE(res.energy, exact.energy - 1e-9);
  EXPECT_LE(res.energy, exact.energy + 2.0);
}

TEST(Bsb, DynamicStopTerminatesEarly) {
  IsingModel m(8);
  for (std::size_t i = 0; i + 1 < 8; ++i) {
    m.add_coupling(i, i + 1, 1.0);
  }
  m.finalize();
  SbParams p;
  p.max_iterations = 100000;
  p.stop.enabled = true;
  p.stop.sample_interval = 10;
  p.stop.window = 10;
  p.stop.epsilon = 1e-8;
  p.seed = 5;
  const auto res = solve_sb(m, p);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_LT(res.iterations, 100000u);
  EXPECT_DOUBLE_EQ(res.energy, -7.0);
}

TEST(Bsb, DeterministicForFixedSeed) {
  Rng rng(17);
  const auto m = random_model(10, 0.5, rng);
  SbParams p;
  p.max_iterations = 300;
  p.seed = 42;
  const auto a = solve_sb(m, p);
  const auto b = solve_sb(m, p);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.spins, b.spins);
}

TEST(Bsb, HookCalledAtEverySamplePoint) {
  IsingModel m(4);
  m.add_coupling(0, 1, 1.0);
  m.finalize();
  SbParams p;
  p.max_iterations = 100;
  p.stop.sample_interval = 5;
  p.seed = 1;
  int calls = 0;
  const auto res =
      solve_sb(m, p, [&](std::span<double> x, std::span<double> y) {
        ++calls;
        ASSERT_EQ(x.size(), 4u);
        ASSERT_EQ(y.size(), 4u);
      });
  EXPECT_EQ(calls, 100 / 5);
  EXPECT_NEAR(m.energy(res.spins), res.energy, 1e-12);
}

TEST(Bsb, HookPinningImprovesDegenerateSearch) {
  // Bias wants spin 3 down, but a huge detuning freeze keeps the oscillator
  // near its initial (positive-sign) position; the hook supplies the fix
  // and best-seen tracking must retain it. Mirrors the Theorem-3 feedback.
  IsingModel m(4);
  m.set_bias(3, -5.0);
  m.finalize();
  SbParams p;
  p.max_iterations = 20;
  p.stop.sample_interval = 5;
  p.c0 = 1e-9;  // forces effectively disabled: bSB alone cannot flip spin 3
  p.seed = 1;
  const auto plain = solve_sb(m, p);
  const auto hooked =
      solve_sb(m, p, [](std::span<double> x, std::span<double> y) {
        x[3] = -1.0;
        y[3] = 0.0;
      });
  EXPECT_LE(hooked.energy, plain.energy);
  EXPECT_DOUBLE_EQ(hooked.energy, -5.0);  // pinned state is the ground state
  EXPECT_EQ(hooked.spins[3], -1);
}

TEST(Bsb, RejectsBadParameters) {
  IsingModel m(2);
  m.finalize();
  SbParams p;
  p.max_iterations = 0;
  EXPECT_THROW((void)solve_sb(m, p), std::invalid_argument);
  IsingModel unfinalized(2);
  EXPECT_THROW((void)solve_sb(unfinalized, SbParams{}), std::invalid_argument);
}

TEST(Bsb, EnergyReportedMatchesSpins) {
  Rng rng(19);
  const auto m = random_model(14, 0.4, rng);
  SbParams p;
  p.max_iterations = 500;
  p.seed = 23;
  const auto res = solve_sb(m, p);
  EXPECT_NEAR(m.energy(res.spins), res.energy, 1e-9);
}

// -------------------------------------------------------------------- SA

TEST(Sa, SolvesFerromagneticChain) {
  IsingModel m(16);
  for (std::size_t i = 0; i + 1 < 16; ++i) {
    m.add_coupling(i, i + 1, 1.0);
  }
  m.finalize();
  SaParams p;
  p.sweeps = 300;
  p.seed = 3;
  const auto res = solve_sa(m, p);
  EXPECT_DOUBLE_EQ(res.energy, -15.0);
}

TEST(Sa, NearGroundOnRandomInstances) {
  Rng rng(29);
  for (int trial = 0; trial < 5; ++trial) {
    const auto m = random_model(12, 0.5, rng);
    const auto exact = solve_exhaustive(m);
    SaParams p;
    p.sweeps = 500;
    p.seed = 50 + trial;
    const auto res = solve_sa(m, p);
    EXPECT_GE(res.energy, exact.energy - 1e-9);
    EXPECT_LE(res.energy, exact.energy + 1.0);
  }
}

TEST(Sa, DeterministicForFixedSeed) {
  Rng rng(31);
  const auto m = random_model(10, 0.5, rng);
  SaParams p;
  p.sweeps = 100;
  p.seed = 9;
  const auto a = solve_sa(m, p);
  const auto b = solve_sa(m, p);
  EXPECT_EQ(a.energy, b.energy);
}

TEST(Sa, RejectsBadSchedule) {
  IsingModel m(2);
  m.finalize();
  SaParams p;
  p.beta_start = 5.0;
  p.beta_end = 1.0;
  EXPECT_THROW((void)solve_sa(m, p), std::invalid_argument);
}

// ---------------------------------------------------------- Dynamic stop

TEST(DynamicStop, DisabledNeverStops) {
  DynamicStopMonitor mon(DynamicStopParams{});
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(mon.observe(1.0));
  }
}

TEST(DynamicStop, StopsOnConstantEnergy) {
  DynamicStopParams p;
  p.enabled = true;
  p.sample_interval = 1;
  p.window = 5;
  p.epsilon = 1e-8;
  DynamicStopMonitor mon(p);
  bool stopped = false;
  for (int i = 0; i < 5; ++i) {
    stopped = mon.observe(3.0);
  }
  EXPECT_TRUE(stopped);
}

TEST(DynamicStop, DoesNotStopWhileVarying) {
  DynamicStopParams p;
  p.enabled = true;
  p.sample_interval = 1;
  p.window = 4;
  p.epsilon = 1e-8;
  DynamicStopMonitor mon(p);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(mon.observe(static_cast<double>(i)));
  }
}

TEST(DynamicStop, NeedsFullWindow) {
  DynamicStopParams p;
  p.enabled = true;
  p.sample_interval = 1;
  p.window = 10;
  DynamicStopMonitor mon(p);
  for (int i = 0; i < 9; ++i) {
    EXPECT_FALSE(mon.observe(0.0));
  }
  EXPECT_TRUE(mon.observe(0.0));
}

TEST(DynamicStop, BadParamsThrow) {
  DynamicStopParams p;
  p.enabled = true;
  p.window = 1;
  EXPECT_THROW(DynamicStopMonitor mon(p), std::invalid_argument);
}

// Property: on random instances bSB with the Theorem-free plain setup never
// reports an energy below the true ground state.
class SolverBoundProperty : public ::testing::TestWithParam<int> {};

TEST_P(SolverBoundProperty, NoSolverBeatsExhaustive) {
  Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const auto m = random_model(11, 0.6, rng);
  const auto exact = solve_exhaustive(m);
  SbParams bp;
  bp.max_iterations = 500;
  bp.seed = static_cast<std::uint64_t>(GetParam());
  EXPECT_GE(solve_sb(m, bp).energy, exact.energy - 1e-9);
  SaParams sp;
  sp.sweeps = 200;
  sp.seed = static_cast<std::uint64_t>(GetParam());
  EXPECT_GE(solve_sa(m, sp).energy, exact.energy - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverBoundProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace adsd
