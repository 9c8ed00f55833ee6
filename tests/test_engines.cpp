// SimCIM and DOCH/ADOCH engine coverage (DESIGN.md §4.8): the two engines
// added on the shared ensemble chassis must be deterministic for a fixed
// seed, find ground states on small instances the exhaustive solver can
// certify, improve (never regress) with more replicas, produce
// kernel-independent trajectories, and solve paper functions end to end
// through the registry + DALTA flow.
#include <gtest/gtest.h>

#include <stdexcept>

#include "boolean/error_metrics.hpp"
#include "core/dalta.hpp"
#include "core/solver_registry.hpp"
#include "funcs/registry.hpp"
#include "ising/doch.hpp"
#include "ising/exhaustive.hpp"
#include "ising/model.hpp"
#include "ising/simcim.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"

namespace adsd {
namespace {

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

// ------------------------------------------------------------ SimCIM

TEST(Simcim, DeterministicForFixedSeed) {
  Rng rng(11);
  const auto m = random_model(12, 0.6, rng);
  SimcimParams p;
  p.seed = 9;
  const auto a = solve_simcim(m, p, 4);
  const auto b = solve_simcim(m, p, 4);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.spins, b.spins);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Simcim, ReachesGroundStateOnSmallRandomInstances) {
  int hits = 0;
  for (std::uint64_t ms = 0; ms < 8; ++ms) {
    Rng rng(ms + 40);
    const auto m = random_model(8, 0.6, rng);
    const auto exact = solve_exhaustive(m);
    SimcimParams p;
    p.seed = 7;
    const auto res = solve_simcim(m, p, 8);
    EXPECT_GE(res.energy, exact.energy - 1e-9);
    if (res.energy <= exact.energy + 1e-9) {
      ++hits;
    }
  }
  // The tuned defaults hit ~35/40 across a wider sweep; demand a clear
  // majority here so a dynamics regression fails loudly without making the
  // test flaky about any single instance.
  EXPECT_GE(hits, 6);
}

TEST(Simcim, MoreReplicasNeverWorse) {
  // Replica r's noise stream depends only on (seed, r), so the R-replica
  // ensemble contains the smaller ensemble's trajectories verbatim and
  // best-of can only improve.
  Rng rng(13);
  const auto m = random_model(14, 0.5, rng);
  SimcimParams p;
  p.seed = 3;
  const auto r1 = solve_simcim(m, p, 1);
  const auto r4 = solve_simcim(m, p, 4);
  const auto r8 = solve_simcim(m, p, 8);
  EXPECT_LE(r4.energy, r1.energy + 1e-12);
  EXPECT_LE(r8.energy, r4.energy + 1e-12);
}

TEST(Simcim, KernelChoiceDoesNotChangeTheTrajectory) {
  Rng rng(17);
  const auto m = random_model(16, 0.6, rng);
  SimcimParams scalar;
  scalar.seed = 5;
  scalar.kernel = kernels::ForceKernel::kScalar;
  SimcimParams autok = scalar;
  autok.kernel = kernels::ForceKernel::kAuto;
  const auto a = solve_simcim(m, scalar, 4);
  const auto b = solve_simcim(m, autok, 4);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.spins, b.spins);
}

TEST(Simcim, RowBlockKernelMatchesCsrAtOneReplica) {
  // The paper's single-trajectory shape: auto resolves to the row-block
  // layout, whose trajectory must equal the scalar CSR reference.
  Rng rng(19);
  const auto m = random_model(21, 0.5, rng);
  SimcimParams scalar;
  scalar.seed = 7;
  scalar.kernel = kernels::ForceKernel::kScalar;
  const auto ref = solve_simcim(m, scalar, 1);
  SimcimParams params = scalar;
  params.kernel = kernels::ForceKernel::kAuto;
  EXPECT_EQ(SimcimEngine(m, params, 1).kernel_kind(),
            kernels::ForceKernel::kRowBlock);
  const auto got = solve_simcim(m, params, 1);
  EXPECT_EQ(got.energy, ref.energy);
  EXPECT_EQ(got.spins, ref.spins);
  EXPECT_EQ(got.iterations, ref.iterations);
}

TEST(Simcim, WarmStartAndValidation) {
  Rng rng(19);
  const auto m = random_model(6, 0.8, rng);
  SimcimParams p;
  p.initial_positions.assign(6, 0.5);
  EXPECT_NO_THROW((void)solve_simcim(m, p, 2));

  SimcimParams wrong_size;
  wrong_size.initial_positions.assign(5, 0.0);
  EXPECT_THROW((void)solve_simcim(m, wrong_size, 2), std::invalid_argument);

  SimcimParams negative_noise;
  negative_noise.noise = -0.1;
  EXPECT_THROW((void)solve_simcim(m, negative_noise, 2),
               std::invalid_argument);

  SimcimParams p2;
  EXPECT_THROW((void)solve_simcim(m, p2, 0), std::invalid_argument);
}

// ------------------------------------------------------------ DOCH

TEST(Doch, DeterministicForFixedSeed) {
  Rng rng(23);
  const auto m = random_model(12, 0.6, rng);
  DochParams p;
  p.seed = 9;
  const auto a = solve_doch(m, p, 4);
  const auto b = solve_doch(m, p, 4);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.spins, b.spins);
}

TEST(Doch, ReachesGroundStateOnSmallRandomInstances) {
  int hits = 0;
  for (std::uint64_t ms = 0; ms < 8; ++ms) {
    Rng rng(ms + 60);
    const auto m = random_model(8, 0.6, rng);
    const auto exact = solve_exhaustive(m);
    DochParams p;
    p.seed = 7;
    const auto res = solve_doch(m, p, 8);
    EXPECT_GE(res.energy, exact.energy - 1e-9);
    if (res.energy <= exact.energy + 1e-9) {
      ++hits;
    }
  }
  // A deterministic multistart local method: weak at R=1 by design, a
  // clear majority of ground states at R=8 (33/40 on the tuning sweep).
  EXPECT_GE(hits, 5);
}

TEST(Doch, MoreReplicasNeverWorse) {
  // Replica starting points depend only on (seed, r): larger ensembles
  // contain the smaller ones.
  Rng rng(29);
  const auto m = random_model(14, 0.5, rng);
  DochParams p;
  p.seed = 3;
  const auto r1 = solve_doch(m, p, 1);
  const auto r4 = solve_doch(m, p, 4);
  const auto r8 = solve_doch(m, p, 8);
  EXPECT_LE(r4.energy, r1.energy + 1e-12);
  EXPECT_LE(r8.energy, r4.energy + 1e-12);
}

TEST(Doch, AutoRhoIsTheMaxRowNorm) {
  IsingModel m(3);
  m.add_coupling(0, 1, 2.0);
  m.add_coupling(1, 2, -3.0);
  m.finalize();
  DochParams p;
  const DochEngine engine(m, p, 1);
  EXPECT_DOUBLE_EQ(engine.rho(), 5.0);  // row 1: |2| + |-3|

  DochParams pinned;
  pinned.rho = 7.5;
  const DochEngine pinned_engine(m, pinned, 1);
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
  const auto a = solve_doch(m, scalar, 4);
  const auto b = solve_doch(m, autok, 4);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.spins, b.spins);
}

TEST(Doch, RowBlockKernelMatchesCsrAtOneReplica) {
  // DOCH evaluates the force at its lookahead plane (set_force_input), so
  // the row-block kernel must read that plane, not the positions.
  Rng rng(37);
  const auto m = random_model(21, 0.5, rng);
  DochParams scalar;
  scalar.seed = 9;
  scalar.kernel = kernels::ForceKernel::kScalar;
  const auto ref = solve_doch(m, scalar, 1);
  DochParams params = scalar;
  params.kernel = kernels::ForceKernel::kAuto;
  EXPECT_EQ(DochEngine(m, params, 1).kernel_kind(),
            kernels::ForceKernel::kRowBlock);
  const auto got = solve_doch(m, params, 1);
  EXPECT_EQ(got.energy, ref.energy);
  EXPECT_EQ(got.spins, ref.spins);
  EXPECT_EQ(got.iterations, ref.iterations);
}

TEST(Doch, Validation) {
  Rng rng(37);
  const auto m = random_model(6, 0.8, rng);
  DochParams wrong_size;
  wrong_size.initial_positions.assign(4, 0.0);
  EXPECT_THROW((void)solve_doch(m, wrong_size, 2), std::invalid_argument);
  DochParams p;
  EXPECT_THROW((void)solve_doch(m, p, 0), std::invalid_argument);
  IsingModel unfinalized(4);
  EXPECT_THROW((void)solve_doch(unfinalized, p, 1), std::invalid_argument);
}

// ------------------------------------------ registry + DALTA end to end

// The acceptance bar of the engine layer: "simcim,..." and "doch,..."
// registry specs drive the full decomposition flow over the paper's
// benchmark functions, with fixed-seed reproducibility.
TEST(EngineRegistry, SpecsSolvePaperFunctionsThroughDalta) {
  const RunContext ctx{RunContext::Options{}};
  const auto prop = SolverRegistry::global().make_from_spec("prop,n=8");
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
    for (const char* spec :
         {"simcim,n=8,replicas=2", "doch,n=8,replicas=4"}) {
      const auto solver = SolverRegistry::global().make_from_spec(spec);
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
}

}  // namespace
}  // namespace adsd
