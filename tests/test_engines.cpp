// DOCH/ADOCH engine coverage (DESIGN.md §4.8): the engine added on the
// shared oscillator chassis must be deterministic for a fixed seed, find
// ground states on small instances the exhaustive solver can certify,
// produce kernel-independent trajectories, and solve paper functions end
// to end through the registry + DALTA flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "boolean/error_metrics.hpp"
#include "core/column_cop.hpp"
#include "core/dalta.hpp"
#include "core/solver_registry.hpp"
#include "funcs/continuous.hpp"
#include "funcs/registry.hpp"
#include "ising/bsb_batch.hpp"
#include "ising/doch.hpp"
#include "ising/exhaustive.hpp"
#include "ising/model.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"

namespace adsd {
namespace {

// An engine's planes and tracker point into its own buffers, so neither
// oscillator engine may be copied or moved.
static_assert(!std::is_copy_constructible_v<BsbBatchEngine> &&
              !std::is_copy_assignable_v<BsbBatchEngine> &&
              !std::is_move_constructible_v<BsbBatchEngine> &&
              !std::is_move_assignable_v<BsbBatchEngine>);
static_assert(!std::is_copy_constructible_v<DochEngine> &&
              !std::is_copy_assignable_v<DochEngine> &&
              !std::is_move_constructible_v<DochEngine> &&
              !std::is_move_assignable_v<DochEngine>);

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

/// A joint-mode n = 7 column COP over the trivial (3, 4) partition: 8
/// matrix rows and 16 columns, 32 spins in the bipartite shape.
IsingModel column_cop_model() {
  const auto exact = make_continuous_table(continuous_spec("exp"), 7, 7);
  const auto w = InputPartition::trivial(7, 3);
  const auto m = BooleanMatrix::from_function(exact, 1, w);
  Rng rng(23);
  std::vector<double> d(m.rows() * m.cols());
  for (auto& v : d) {
    v = std::floor(rng.next_double(-3.0, 3.0));
  }
  return ColumnCop::joint(m, matrix_probs(InputDistribution::uniform(7), w),
                          d, 2.0)
      .to_ising();
}

// ------------------------------------------------------------ DOCH

TEST(Doch, DeterministicForFixedSeed) {
  Rng rng(23);
  const auto m = random_model(12, 0.6, rng);
  DochParams p;
  p.seed = 9;
  const auto a = solve_doch(m, p);
  const auto b = solve_doch(m, p);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.spins, b.spins);
}

TEST(Doch, ReachesGroundStateOnSmallRandomInstances) {
  int hits = 0;
  for (std::uint64_t ms = 0; ms < 8; ++ms) {
    Rng rng(ms + 60);
    const auto m = random_model(8, 0.6, rng);
    const auto exact = solve_exhaustive(m);
    // Eight random starts, from the seeds restarts would give them.
    double best = 0.0;
    for (std::uint64_t r = 0; r < 8; ++r) {
      DochParams p;
      p.seed = 7 + 0x9e3779b9u * r;
      const double e = solve_doch(m, p).energy;
      EXPECT_GE(e, exact.energy - 1e-9);
      best = r == 0 ? e : std::min(best, e);
    }
    if (best <= exact.energy + 1e-9) {
      ++hits;
    }
  }
  // A deterministic local method: weak from one start by design, a clear
  // majority of ground states from the best of eight (33/40 on the tuning
  // sweep).
  EXPECT_GE(hits, 5);
}

TEST(Doch, AutoRhoIsTheMaxRowNorm) {
  IsingModel m(3);
  m.add_coupling(0, 1, 2.0);
  m.add_coupling(1, 2, -3.0);
  m.finalize();
  DochParams p;
  const DochEngine engine(m, p);
  EXPECT_DOUBLE_EQ(engine.rho(), 5.0);  // row 1: |2| + |-3|

  DochParams pinned;
  pinned.rho = 7.5;
  const DochEngine pinned_engine(m, pinned);
  EXPECT_DOUBLE_EQ(pinned_engine.rho(), 7.5);
}

TEST(Doch, KernelChoiceDoesNotChangeTheTrajectory) {
  Rng rng(31);
  const auto m = random_model(16, 0.6, rng);
  DochParams scalar;
  scalar.seed = 5;
  scalar.kernel = kernels::ForceKernel::kScalar;
  DochParams autok = scalar;
  autok.kernel = kernels::ForceKernel::kAuto;
  const auto a = solve_doch(m, scalar);
  const auto b = solve_doch(m, autok);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.spins, b.spins);
}

TEST(Doch, BipartiteKernelMatchesCsrAtOneReplica) {
  // DOCH evaluates the force at its lookahead plane (set_force_input), so
  // the bipartite kernel must read that plane, not the positions.
  const auto m = column_cop_model();
  DochParams scalar;
  scalar.seed = 9;
  scalar.kernel = kernels::ForceKernel::kScalar;
  const auto ref = solve_doch(m, scalar);
  DochParams params = scalar;
  params.kernel = kernels::ForceKernel::kAuto;
  EXPECT_EQ(DochEngine(m, params).kernel_kind(),
            kernels::ForceKernel::kBipartite);
  const auto got = solve_doch(m, params);
  EXPECT_EQ(got.energy, ref.energy);
  EXPECT_EQ(got.spins, ref.spins);
  EXPECT_EQ(got.iterations, ref.iterations);
}

TEST(Doch, Validation) {
  Rng rng(37);
  const auto m = random_model(6, 0.8, rng);
  DochParams wrong_size;
  wrong_size.initial_positions.assign(4, 0.0);
  EXPECT_THROW((void)solve_doch(m, wrong_size), std::invalid_argument);
  DochParams p;
  IsingModel unfinalized(4);
  EXPECT_THROW((void)solve_doch(unfinalized, p), std::invalid_argument);
}

// ------------------------------------------ registry + DALTA end to end

// The acceptance bar of the engine layer: "doch,..." registry specs drive
// the full decomposition flow over the paper's benchmark functions, with
// fixed-seed reproducibility.
TEST(EngineRegistry, SpecsSolvePaperFunctionsThroughDalta) {
  const RunContext ctx{RunContext::Options{}};
  const auto prop = SolverRegistry::global().make_from_spec("prop,n=8");
  const char* spec = "doch,n=8,restarts=4";
  const auto solver = SolverRegistry::global().make_from_spec(spec);
  for (const auto& bench : benchmark_suite()) {
    const unsigned m = paper_output_bits(bench.name, 8);
    const TruthTable exact = make_benchmark_table(bench.name, 8, m);
    const InputDistribution dist = InputDistribution::uniform(8);
    DaltaParams params;
    params.free_size = 4;
    params.num_partitions = 2;
    params.rounds = 1;
    params.seed = 42;
    const double prop_er =
        error_rate(exact, run_dalta(exact, dist, params, *prop, ctx).approx,
                   dist);
    const auto a = run_dalta(exact, dist, params, *solver, ctx);
    const auto b = run_dalta(exact, dist, params, *solver, ctx);
    EXPECT_TRUE(a.approx == b.approx) << spec << " on " << bench.name;
    // Quality floor: within striking distance of the paper solver on the
    // same settings (ER counts any-bit flips, so its absolute level is
    // high for wide outputs; the comparison is what's meaningful).
    EXPECT_LE(error_rate(exact, a.approx, dist), prop_er + 0.15)
        << spec << " on " << bench.name;
  }
}

}  // namespace
}  // namespace adsd
