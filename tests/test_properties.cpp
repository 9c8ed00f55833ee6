// Cross-cutting property suites: each TEST_P sweep checks one invariant
// from DESIGN.md section 5 across a parameterized family of instances.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "bdd/bdd.hpp"
#include "bdd/bdd_decompose.hpp"
#include "boolean/boolean_matrix.hpp"
#include "boolean/decomposition.hpp"
#include "core/column_cop.hpp"
#include "core/cop_solvers.hpp"
#include "core/dalta.hpp"
#include "core/solver_registry.hpp"
#include "core/row_cubic_cop.hpp"
#include "funcs/registry.hpp"
#include "ising/exhaustive.hpp"
#include "ising/poly_solvers.hpp"
#include "ising/qubo.hpp"
#include "lut/decomposed_lut.hpp"
#include "support/rng.hpp"

namespace adsd {
namespace {

BooleanMatrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  BooleanMatrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      m.set(i, j, rng.next_bool());
    }
  }
  return m;
}

ColumnSetting random_setting(std::size_t r, std::size_t c, Rng& rng) {
  ColumnSetting s;
  s.v1 = BitVec(r);
  s.v2 = BitVec(r);
  s.t = BitVec(c);
  for (std::size_t i = 0; i < r; ++i) {
    s.v1.set(i, rng.next_bool());
    s.v2.set(i, rng.next_bool());
  }
  for (std::size_t j = 0; j < c; ++j) {
    s.t.set(j, rng.next_bool());
  }
  return s;
}

// ----------------------------------------------------------------------
// Invariant: Theorems 1 and 2 accept exactly the same matrices, across
// shapes with different row/column balances.
struct ShapeSeed {
  std::size_t r;
  std::size_t c;
  int seed;
};

// Names each case by its fields ("3x16_seed4"), so the test IDs do not
// depend on the struct's uninitialized padding bytes.
void PrintTo(const ShapeSeed& p, std::ostream* os) {
  *os << p.r << "x" << p.c << "_seed" << p.seed;
}

class TheoremEquivalence : public ::testing::TestWithParam<ShapeSeed> {};

TEST_P(TheoremEquivalence, RowAndColumnConditionsAgree) {
  const auto p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p.seed) * 977 + p.r * 31 + p.c);
  int accepted = 0;
  for (int trial = 0; trial < 120; ++trial) {
    // Mix random and planted-decomposable matrices.
    BooleanMatrix m = random_matrix(p.r, p.c, rng);
    if (trial % 3 == 0) {
      m = realize(random_setting(p.r, p.c, rng));
    }
    const bool row_ok = check_row_decomposition(m).has_value();
    const bool col_ok = check_column_decomposition(m).has_value();
    ASSERT_EQ(row_ok, col_ok);
    accepted += col_ok;
    if (col_ok) {
      // Both witnesses must realize the matrix itself.
      EXPECT_EQ(realize(*check_row_decomposition(m)), m);
      EXPECT_EQ(realize(*check_column_decomposition(m)), m);
    }
  }
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TheoremEquivalence,
    ::testing::Values(ShapeSeed{2, 2, 0}, ShapeSeed{2, 8, 1},
                      ShapeSeed{8, 2, 2}, ShapeSeed{4, 4, 3},
                      ShapeSeed{3, 16, 4}, ShapeSeed{16, 3, 5}));

// ----------------------------------------------------------------------
// Invariant: the QUBO view of the core COP (binary variables, before the
// spin substitution) matches the ColumnCop objective and its Ising model:
// objective == qubo.value(bits) == qubo.to_ising().energy(spins).
class QuboChain : public ::testing::TestWithParam<int> {};

TEST_P(QuboChain, ObjectiveQuboIsingAgree) {
  Rng rng(static_cast<std::uint64_t>(5000 + GetParam()));
  const std::size_t r = 3 + GetParam() % 3;
  const std::size_t c = 4 + GetParam() % 4;
  const auto m = random_matrix(r, c, rng);
  std::vector<double> probs(r * c, 1.0 / static_cast<double>(r * c));
  const auto cop = ColumnCop::separate(m, probs);

  // Rebuild the COP as an explicit QUBO over (v1, v2, t) bits using Eq. (3).
  Qubo q(cop.num_spins());
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      const double cost0 = cop.cell_cost(i, j, false);
      const double cost1 = cop.cell_cost(i, j, true);
      // cost = cost0 + (cost1-cost0) * [(1-t) v1 + t v2].
      const double g = cost1 - cost0;
      q.add_constant(cost0);
      q.add_linear(cop.v1_spin(i), g);
      q.add_quadratic(cop.v1_spin(i), cop.t_spin(j), -g);
      q.add_quadratic(cop.v2_spin(i), cop.t_spin(j), g);
    }
  }

  const IsingModel from_qubo = q.to_ising();
  const IsingModel direct = cop.to_ising();
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = random_setting(r, c, rng);
    const auto spins = cop.encode(s);
    const auto bits = Qubo::spins_to_binary(spins);
    const double obj = cop.objective(s);
    EXPECT_NEAR(q.value(bits), obj, 1e-12);
    EXPECT_NEAR(from_qubo.energy(spins), obj, 1e-12);
    EXPECT_NEAR(direct.energy(spins), obj, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuboChain, ::testing::Range(0, 6));

// ----------------------------------------------------------------------
// Invariant: hardware evaluation == algebraic composition == matrix
// realization, across partitions.
class LutConsistency : public ::testing::TestWithParam<int> {};

TEST_P(LutConsistency, LutComposeMatrixAgree) {
  Rng rng(static_cast<std::uint64_t>(6000 + GetParam()));
  const unsigned n = 6 + GetParam() % 3;
  const unsigned free_size = 2 + GetParam() % 3;
  const auto w = InputPartition::random(n, free_size, rng);
  const auto s = random_setting(w.num_rows(), w.num_cols(), rng);

  const BitVec composed = compose_output(s, w);
  const auto lut = DecomposedLut::from_column_setting(w, s);
  EXPECT_EQ(lut.truth_table(), composed);

  const auto m = realize(s);
  for (std::uint64_t x = 0; x < composed.size(); x += 3) {
    EXPECT_EQ(composed.get(x), m.at(w.row_of(x), w.col_of(x)));
    EXPECT_EQ(lut.evaluate(x), composed.get(x));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LutConsistency, ::testing::Range(0, 9));

// ----------------------------------------------------------------------
// Invariant: alternating the two closed-form resets is monotone
// non-increasing in the objective, for both modes.
class AlternationMonotone : public ::testing::TestWithParam<int> {};

TEST_P(AlternationMonotone, EveryHalfStepImproves) {
  Rng rng(static_cast<std::uint64_t>(7000 + GetParam()));
  const std::size_t r = 5;
  const std::size_t c = 9;
  const auto m = random_matrix(r, c, rng);
  std::vector<double> probs(r * c, 1.0 / 45.0);
  ColumnCop cop = [&] {
    if (GetParam() % 2 == 0) {
      return ColumnCop::separate(m, probs);
    }
    std::vector<double> d(r * c);
    for (auto& v : d) {
      v = std::floor(rng.next_double(-7.0, 7.0));
    }
    return ColumnCop::joint(m, probs, d, 4.0);
  }();

  auto s = random_setting(r, c, rng);
  double prev = cop.objective(s);
  for (int step = 0; step < 12; ++step) {
    if (step % 2 == 0) {
      cop.reset_optimal_t(s);
    } else {
      cop.reset_optimal_v(s);
    }
    const double now = cop.objective(s);
    ASSERT_LE(now, prev + 1e-12) << "step " << step;
    prev = now;
  }
  EXPECT_GE(prev, cop.ideal_bound() - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlternationMonotone, ::testing::Range(0, 10));

// ----------------------------------------------------------------------
// Invariant: the cubic row formulation and the quadratic column
// formulation have identical exact optima across shapes.
class FormulationEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FormulationEquivalence, CubicAndQuadraticOptimaCoincide) {
  Rng rng(static_cast<std::uint64_t>(8000 + GetParam()));
  const std::size_t r = 2 + GetParam() % 2;
  const std::size_t c = 3 + GetParam() % 3;
  const auto m = random_matrix(r, c, rng);
  std::vector<double> probs(r * c, 1.0 / static_cast<double>(r * c));

  const auto cubic = RowCubicCop::separate(m, probs);
  const auto cubic_opt = solve_exhaustive_poly(cubic.to_poly_ising());

  const auto col = ColumnCop::separate(m, probs);
  const auto col_opt = solve_exhaustive(col.to_ising());

  EXPECT_NEAR(cubic_opt.energy, col_opt.energy, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormulationEquivalence,
                         ::testing::Range(0, 8));

// ----------------------------------------------------------------------
// Invariant: in joint mode, the objective committed for the last optimized
// output (bit 0 of the final round) IS the final MED -- the D terms fold in
// every other output's final approximation.
class LastCommitIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(LastCommitIdentity, LastJointObjectiveEqualsFinalMed) {
  const unsigned n = 7;  // continuous-only sweep: odd n excludes arithmetic
  const unsigned m = paper_output_bits(GetParam(), n);
  const auto exact = make_benchmark_table(GetParam(), n, m);
  const auto dist = InputDistribution::uniform(n);
  DaltaParams params;
  params.free_size = 3;
  params.num_partitions = 4;
  params.rounds = 2;
  params.mode = DecompMode::kJoint;
  params.seed = 5;
  const AlternatingCoreSolver solver(4);
  const auto res = run_dalta(exact, dist, params, solver);
  EXPECT_NEAR(res.outputs[0].objective, res.med, 1e-9)
      << "the final commit's joint objective must equal the final MED";
}

INSTANTIATE_TEST_SUITE_P(Continuous, LastCommitIdentity,
                         ::testing::Values("cos", "tan", "exp", "ln", "erf",
                                           "denoise"));

// ----------------------------------------------------------------------
// Invariant: BDD column multiplicity == matrix distinct-column count,
// across widths and free sizes.
struct BddSweep {
  unsigned n;
  unsigned free_size;
};

class BddMultiplicity : public ::testing::TestWithParam<BddSweep> {};

TEST_P(BddMultiplicity, MatchesMatrixEverywhere) {
  const auto p = GetParam();
  Rng rng(static_cast<std::uint64_t>(9000 + p.n * 13 + p.free_size));
  BddManager mgr(p.n);
  BitVec bits(std::uint64_t{1} << p.n);
  for (std::uint64_t x = 0; x < bits.size(); ++x) {
    bits.set(x, rng.next_bool());
  }
  const auto f = mgr.from_truth_table(bits);
  TruthTable tt(p.n, 1);
  tt.set_output(0, bits);
  for (int trial = 0; trial < 8; ++trial) {
    const auto w = InputPartition::random(p.n, p.free_size, rng);
    const auto matrix = BooleanMatrix::from_function(tt, 0, w);
    EXPECT_EQ(bdd_column_multiplicity(mgr, f, w),
              matrix.distinct_columns().size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BddMultiplicity,
                         ::testing::Values(BddSweep{5, 2}, BddSweep{6, 2},
                                           BddSweep{6, 3}, BddSweep{8, 3},
                                           BddSweep{8, 4}, BddSweep{9, 4}));

// ----------------------------------------------------------------------
// Invariant: every inexact solver's objective is sandwiched between the
// exhaustive optimum and the trivial all-zero setting, and the reported
// stats.objective equals the recomputed objective of the returned setting.
class SolverSandwich : public ::testing::TestWithParam<int> {};

TEST_P(SolverSandwich, AllSolversWithinBounds) {
  Rng rng(static_cast<std::uint64_t>(10000 + GetParam()));
  const std::size_t r = 4;
  const std::size_t c = 5;
  const auto m = random_matrix(r, c, rng);
  std::vector<double> probs(r * c, 1.0 / 20.0);
  const auto cop = ColumnCop::separate(m, probs);

  CoreSolveStats es;
  (void)ExhaustiveCoreSolver().solve(cop, 0, &es);

  ColumnSetting zero;
  zero.v1 = BitVec(r);
  zero.v2 = BitVec(r);
  zero.t = BitVec(c);
  const double trivial = cop.objective(zero);

  const SolverRegistry& registry = SolverRegistry::global();
  const auto ising = registry.make_from_spec("prop,n=5");
  const auto alt = registry.make_from_spec("alt,restarts=4");
  const auto greedy = registry.make("dalta");
  const auto ba = registry.make("ba");
  const auto bnb = registry.make("ilp");
  const CoreCopSolver* solvers[] = {ising.get(), alt.get(), greedy.get(),
                                    ba.get(), bnb.get()};
  for (const auto* solver : solvers) {
    CoreSolveStats stats;
    const auto s = solver->solve(
        cop, static_cast<std::uint64_t>(GetParam()), &stats);
    EXPECT_NEAR(stats.objective, cop.objective(s), 1e-12) << solver->name();
    EXPECT_GE(stats.objective, es.objective - 1e-12) << solver->name();
    EXPECT_LE(stats.objective, trivial + 1e-12)
        << solver->name() << " worse than the all-zero setting";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverSandwich, ::testing::Range(0, 8));

}  // namespace
}  // namespace adsd
