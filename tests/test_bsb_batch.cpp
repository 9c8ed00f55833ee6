#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/column_cop.hpp"
#include "core/cop_solvers.hpp"
#include "core/solver_registry.hpp"
#include "funcs/registry.hpp"
#include "ising/bsb.hpp"
#include "ising/bsb_batch.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "ising/model.hpp"
#include "support/cpu_features.hpp"
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

SbParams quick_params(std::uint64_t seed) {
  SbParams p;
  p.max_iterations = 200;
  p.seed = seed;
  return p;
}

// ------------------------------------------------- R=1 bit-for-bit parity

TEST(BsbBatchParity, SingleReplicaMatchesScalarBitForBit) {
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const auto model = random_model(12 + trial, 0.5, rng);
    const SbParams params = quick_params(100 + trial);
    const auto scalar = solve_sb_scalar(model, params);
    const auto batch = solve_sb_batch(model, params, 1);
    EXPECT_EQ(scalar.energy, batch.energy) << "trial " << trial;
    EXPECT_EQ(scalar.spins, batch.spins) << "trial " << trial;
    EXPECT_EQ(scalar.iterations, batch.iterations);
    EXPECT_EQ(scalar.stopped_early, batch.stopped_early);
  }
}

TEST(BsbBatchParity, SingleReplicaMatchesScalarWithDynamicStop) {
  Rng rng(12);
  for (int trial = 0; trial < 4; ++trial) {
    const auto model = random_model(10, 0.6, rng);
    SbParams params = quick_params(7 + trial);
    params.max_iterations = 2000;
    params.stop.enabled = true;
    params.stop.epsilon = 1e-6;
    params.stop.sample_interval = 5;
    params.stop.window = 6;
    const auto scalar = solve_sb_scalar(model, params);
    const auto batch = solve_sb_batch(model, params, 1);
    EXPECT_EQ(scalar.energy, batch.energy);
    EXPECT_EQ(scalar.spins, batch.spins);
    EXPECT_EQ(scalar.iterations, batch.iterations);
    EXPECT_EQ(scalar.stopped_early, batch.stopped_early);
  }
}

TEST(BsbBatchParity, SingleReplicaMatchesScalarDiscreteVariant) {
  Rng rng(13);
  const auto model = random_model(14, 0.4, rng);
  SbParams params = quick_params(21);
  params.discrete = true;
  const auto scalar = solve_sb_scalar(model, params);
  const auto batch = solve_sb_batch(model, params, 1);
  EXPECT_EQ(scalar.energy, batch.energy);
  EXPECT_EQ(scalar.spins, batch.spins);
}

TEST(BsbBatchParity, SingleReplicaMatchesScalarWithHook) {
  Rng rng(14);
  const auto model = random_model(10, 0.5, rng);
  SbParams params = quick_params(33);
  params.stop.sample_interval = 10;

  // The same pinning intervention expressed through both hook interfaces.
  SbSampleHook scalar_hook = [](std::span<double> x, std::span<double> y) {
    x[0] = 1.0;
    y[0] = 0.0;
  };
  SbBatchHook batch_hook = [](std::size_t, ReplicaView v) {
    v.x(0) = 1.0;
    v.y(0) = 0.0;
  };
  const auto scalar = solve_sb_scalar(model, params, scalar_hook);
  const auto batch = solve_sb_batch(model, params, 1, batch_hook);
  EXPECT_EQ(scalar.energy, batch.energy);
  EXPECT_EQ(scalar.spins, batch.spins);
}

TEST(BsbBatchParity, SolveSbDelegatesToBatchedEngine) {
  Rng rng(15);
  const auto model = random_model(16, 0.5, rng);
  const SbParams params = quick_params(55);
  const auto via_solve_sb = solve_sb(model, params);
  const auto scalar = solve_sb_scalar(model, params);
  EXPECT_EQ(via_solve_sb.energy, scalar.energy);
  EXPECT_EQ(via_solve_sb.spins, scalar.spins);
}

// --------------------------------------------- incremental-energy tracking

TEST(BsbBatchEnergy, TrackedEnergiesMatchScratchRecompute) {
  Rng rng(16);
  for (int trial = 0; trial < 6; ++trial) {
    const auto model = random_model(8 + 2 * trial, 0.3 + 0.1 * trial, rng);
    SbParams params = quick_params(1000 + trial);
    BsbBatchEngine engine(model, params, 4);
    for (int block = 0; block < 10; ++block) {
      for (int s = 0; s < 20; ++s) {
        engine.step();
      }
      engine.sample();
      const auto energies = engine.energies();
      const auto spins = engine.spins();
      for (std::size_t r = 0; r < engine.replicas(); ++r) {
        std::vector<std::int8_t> replica(engine.num_spins());
        for (std::size_t i = 0; i < engine.num_spins(); ++i) {
          replica[i] = spins[i * engine.replicas() + r];
        }
        EXPECT_NEAR(energies[r], model.energy(replica), 1e-9)
            << "trial " << trial << " block " << block << " replica " << r;
      }
    }
  }
}

TEST(BsbBatchEnergy, TrackingSurvivesHookStylePositionEdits) {
  Rng rng(17);
  const auto model = random_model(12, 0.5, rng);
  SbParams params = quick_params(9);
  BsbBatchEngine engine(model, params, 3);
  Rng edits(99);
  for (int block = 0; block < 15; ++block) {
    for (int s = 0; s < 10; ++s) {
      engine.step();
    }
    // Emulate an intervention hook: force a few oscillators to a pole.
    for (std::size_t r = 0; r < engine.replicas(); ++r) {
      ReplicaView v = engine.view(r);
      const std::size_t i = edits.next_below(engine.num_spins());
      v.x(i) = edits.next_bool() ? 1.0 : -1.0;
      v.y(i) = 0.0;
    }
    engine.sample();
    const auto energies = engine.energies();
    const auto spins = engine.spins();
    for (std::size_t r = 0; r < engine.replicas(); ++r) {
      std::vector<std::int8_t> replica(engine.num_spins());
      for (std::size_t i = 0; i < engine.num_spins(); ++i) {
        replica[i] = spins[i * engine.replicas() + r];
      }
      EXPECT_NEAR(energies[r], model.energy(replica), 1e-9);
    }
  }
}

// ----------------------------------------------------- replica view layout

TEST(BsbBatchView, ViewMapsToSoALanes) {
  Rng rng(18);
  const auto model = random_model(6, 0.8, rng);
  SbParams params = quick_params(3);
  BsbBatchEngine engine(model, params, 4);
  auto x = engine.positions();
  for (std::size_t k = 0; k < x.size(); ++k) {
    x[k] = static_cast<double>(k);
  }
  for (std::size_t r = 0; r < 4; ++r) {
    ReplicaView v = engine.view(r);
    ASSERT_EQ(v.size(), engine.num_spins());
    EXPECT_EQ(v.stride(), engine.replicas());
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(v.x(i), static_cast<double>(i * 4 + r));
    }
  }
}

TEST(BsbBatchView, StridedHookPinsOnlyItsReplica) {
  Rng rng(19);
  const auto model = random_model(8, 0.5, rng);
  SbParams params = quick_params(4);
  params.max_iterations = 40;
  params.stop.sample_interval = 10;

  std::vector<std::size_t> seen;
  SbBatchHook hook = [&seen](std::size_t r, ReplicaView v) {
    seen.push_back(r);
    if (r == 1) {
      v.x(2) = 1.0;
      v.y(2) = 0.0;
    }
  };
  BsbBatchEngine engine(model, params, 3);
  engine.run(hook);
  // 40 iterations, sample every 10 -> 4 sampling points x 3 replicas.
  ASSERT_EQ(seen.size(), 12u);
  for (std::size_t p = 0; p < seen.size(); ++p) {
    EXPECT_EQ(seen[p], p % 3);
  }
  // The pinned oscillator belongs to replica 1 only.
  EXPECT_EQ(engine.view(1).x(2), 1.0);
}

// ---------------------------------------------------------- ensemble logic

TEST(BsbBatch, MatchesBestOfIndependentScalarRuns) {
  Rng rng(20);
  const auto model = random_model(14, 0.5, rng);
  SbParams params = quick_params(77);
  const std::size_t replicas = 5;
  double best = 1e300;
  for (std::size_t r = 0; r < replicas; ++r) {
    SbParams p = params;
    p.seed = params.seed + 0x9e3779b9u * r;
    best = std::min(best, solve_sb_scalar(model, p).energy);
  }
  const auto batch = solve_sb_batch(model, params, replicas);
  EXPECT_DOUBLE_EQ(batch.energy, best);
  EXPECT_EQ(batch.iterations, 200u * replicas);
}

TEST(BsbBatch, RejectsBadArguments) {
  Rng rng(21);
  const auto model = random_model(4, 1.0, rng);
  SbParams params = quick_params(1);
  EXPECT_THROW(solve_sb_batch(model, params, 0), std::invalid_argument);
  SbParams bad = params;
  bad.dt = 0.0;
  EXPECT_THROW(solve_sb_batch(model, bad, 2), std::invalid_argument);
  bad = params;
  bad.initial_positions.assign(3, 0.0);  // wrong size
  EXPECT_THROW(solve_sb_batch(model, bad, 2), std::invalid_argument);
  IsingModel unfinalized(4);
  EXPECT_THROW(solve_sb_batch(unfinalized, params, 2),
               std::invalid_argument);
}

// ------------------------------------------------------- bSB step tiers

TEST(BsbBatchParity, StepTiersBitIdenticalToPortableLoop) {
  // Every step tier the host runs against the portable loop (the scalar
  // tier's), on lanes that hit either wall, signed zeros and NaN: a NaN x'
  // keeps NaN and zeroes its momentum, as the scalar selects do. The step
  // walks the n * R lanes of the SoA planes as one array, so the lane
  // counts stand for single- and multi-replica engines alike (771 = 257
  // spins x 3 replicas) and leave every vector tail.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto reference =
      kernels::select_bsb_step(kernels::ForceKernel::kScalar, cpu_features());
  for (std::size_t lanes : {1u, 7u, 64u, 771u}) {
    Rng rng(lanes);
    std::vector<double> x0(lanes);
    std::vector<double> y0(lanes);
    std::vector<double> f(lanes);
    for (std::size_t k = 0; k < lanes; ++k) {
      x0[k] = rng.next_double(-1.0, 1.0);
      y0[k] = rng.next_double(-0.5, 0.5);
      f[k] = rng.next_double(-2.0, 2.0);
      switch ((k * 5) % 9) {
        case 0:
          x0[k] = 1.0;
          y0[k] = 40.0;  // through the upper wall
          break;
        case 1:
          x0[k] = -0.99;
          y0[k] = -40.0;  // through the lower wall
          break;
        case 2:
          x0[k] = -0.0;
          y0[k] = -0.0;
          f[k] = 0.0;
          break;
        case 3:
          x0[k] = 0.0;
          f[k] = -0.0;
          break;
        case 4:
          f[k] = nan;
          break;
        case 5:
          x0[k] = nan;
          break;
        default:
          break;
      }
    }
    for (kernels::ForceKernel kind : kernels::selectable_force_kernels()) {
      const auto tier = kernels::select_bsb_step(kind, cpu_features());
      std::vector<double> xa = x0;
      std::vector<double> ya = y0;
      std::vector<double> xb = x0;
      std::vector<double> yb = y0;
      for (int step = 0; step < 3; ++step) {
        kernels::BsbStepPlanes planes;
        planes.force = f.data();
        planes.lanes = lanes;
        planes.neg_stiffness = -0.7 + 0.2 * step;
        planes.dt = 0.5;
        planes.c0 = 0.31;
        planes.dt_detuning = 0.5;
        planes.x = xa.data();
        planes.y = ya.data();
        reference(planes);
        planes.x = xb.data();
        planes.y = yb.data();
        tier(planes);
      }
      EXPECT_EQ(std::memcmp(xa.data(), xb.data(), lanes * sizeof(double)), 0)
          << kernels::force_kernel_name(kind) << " lanes=" << lanes;
      EXPECT_EQ(std::memcmp(ya.data(), yb.data(), lanes * sizeof(double)), 0)
          << kernels::force_kernel_name(kind) << " lanes=" << lanes;
    }
  }
}

// --------------------------------------------- row-sharded force kernel

TEST(BsbBatchSharding, ForceShardingIsBitIdenticalAcrossThreadCounts) {
  // n * R = 256 * 32 = 8192 lanes: exactly the threshold where the engine
  // shards force rows across the context pool.
  Rng rng(30);
  const auto model = random_model(256, 0.05, rng);
  SbParams params = quick_params(64);
  params.max_iterations = 60;
  const std::size_t replicas = 32;

  const auto serial = solve_sb_batch(model, params, replicas);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    RunContext::Options opts;
    opts.threads = threads;
    const RunContext ctx(opts);
    const auto sharded =
        solve_sb_batch(model, params, replicas, nullptr, nullptr, &ctx);
    EXPECT_EQ(serial.energy, sharded.energy) << threads << " threads";
    EXPECT_EQ(serial.spins, sharded.spins) << threads << " threads";
    EXPECT_EQ(serial.iterations, sharded.iterations);
  }
}

TEST(BsbBatchSharding, ShardedEngineStateMatchesSerialPlaneForPlane) {
  Rng rng(31);
  const auto model = random_model(512, 0.03, rng);
  SbParams params = quick_params(5);
  const std::size_t replicas = 16;

  BsbBatchEngine serial(model, params, replicas);
  RunContext::Options opts;
  opts.threads = 8;
  const RunContext ctx(opts);
  BsbBatchEngine sharded(model, params, replicas);
  sharded.set_context(&ctx);

  for (int s = 0; s < 50; ++s) {
    serial.step();
    sharded.step();
  }
  const auto xa = serial.positions();
  const auto xb = sharded.positions();
  ASSERT_EQ(xa.size(), xb.size());
  for (std::size_t k = 0; k < xa.size(); ++k) {
    ASSERT_EQ(xa[k], xb[k]) << "lane " << k;
  }
}

// -------------------------------------------------- IsingCoreSolver wiring

TEST(IsingCoreSolverReplicas, MultiReplicaNeverWorseAndDeterministic) {
  const TruthTable tt = make_benchmark_table("exp", 9, 7);
  const InputDistribution dist = InputDistribution::uniform(9);
  const InputPartition w = InputPartition::trivial(9, 4);
  const BooleanMatrix matrix = BooleanMatrix::from_function(tt, 3, w);
  const std::vector<double> probs = matrix_probs(dist, w);
  const ColumnCop cop = ColumnCop::separate(matrix, probs);

  CoreSolveStats stats1;
  const auto single = SolverRegistry::global().make_from_spec("prop,n=9");
  const ColumnSetting s1 = single->solve(cop, 42, &stats1);

  const auto multi =
      SolverRegistry::global().make_from_spec("prop,n=9,replicas=4");
  CoreSolveStats stats4a;
  CoreSolveStats stats4b;
  const ColumnSetting s4a = multi->solve(cop, 42, &stats4a);
  const ColumnSetting s4b = multi->solve(cop, 42, &stats4b);

  EXPECT_LE(stats4a.objective, stats1.objective + 1e-9);
  EXPECT_EQ(stats4a.objective, stats4b.objective);
  EXPECT_TRUE(s4a.v1 == s4b.v1 && s4a.v2 == s4b.v2 && s4a.t == s4b.t);
  EXPECT_NEAR(cop.objective(s4a), stats4a.objective, 1e-12);
  EXPECT_NEAR(cop.objective(s1), stats1.objective, 1e-12);
}

}  // namespace
}  // namespace adsd
