#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
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

// ----------------------------------------------- bipartite interval tiers

/// A column COP over the trivial (free, n - free) partition of `exp`:
/// r = 2^free rows, c = 2^(n - free) columns. Joint mode with random D, or
/// separate mode with matrix row 0 at probability zero, which gives that
/// row +-0.0 gains and its V spins -0.0 bias requests.
IsingModel bipartite_model(unsigned n, unsigned free_size, bool joint) {
  const TruthTable exact = make_benchmark_table("exp", n, n);
  const InputPartition w = InputPartition::trivial(n, free_size);
  const BooleanMatrix m = BooleanMatrix::from_function(exact, 0, w);
  Rng rng(17 + n);
  if (joint) {
    std::vector<double> d(m.rows() * m.cols());
    for (double& v : d) {
      v = std::floor(rng.next_double(-6.0, 6.0));
    }
    return ColumnCop::joint(m, matrix_probs(InputDistribution::uniform(n), w),
                            d, 2.0)
        .to_ising();
  }
  std::vector<double> weights(std::size_t{1} << n);
  for (std::uint64_t x = 0; x < weights.size(); ++x) {
    weights[x] = w.row_of(x) == 0 ? 0.0 : rng.next_double(0.5, 1.5);
  }
  const auto dist = InputDistribution::from_weights(weights);
  return ColumnCop::separate(m, matrix_probs(dist, w)).to_ising();
}

TEST(BsbBatchParity, BipartiteIntervalMatchesPerStepLoop) {
  // Each bipartite interval tier the host can execute (masked feature sets)
  // against the per-step reference: the scalar CSR force pass, then the
  // portable step at the ramp this test computes itself. The intervals
  // (1, 7 and 20 steps, then the rest up to a cap of 47, a multiple of
  // neither) start mid-ramp at step 11; large initial momenta drive lanes
  // through both walls. Shapes (r, c): (2, 4), (8, 16), (16, 32),
  // (16, 64), (128, 512), each joint and separate with a zero row.
  struct Shape {
    unsigned n;
    unsigned free_size;
  };
  std::vector<IsingModel> models;
  for (const Shape& s : {Shape{3, 1}, Shape{7, 3}, Shape{9, 4}, Shape{10, 4},
                         Shape{16, 7}}) {
    for (bool joint : {true, false}) {
      models.push_back(bipartite_model(s.n, s.free_size, joint));
    }
  }
  constexpr double kDetuning = 1.0;
  constexpr double kDt = 0.5;
  constexpr double kC0 = 0.3;
  constexpr std::size_t kCap = 47;
  constexpr std::size_t kStep0 = 11;
  const std::size_t intervals[] = {1, 7, 20, kCap - (kStep0 + 28)};
  const auto force_ref =
      kernels::select_force_kernel(kernels::ForceKernel::kScalar,
                                   CpuFeatures{});
  const auto step_ref =
      kernels::select_bsb_step(kernels::ForceKernel::kScalar, CpuFeatures{});
  CpuFeatures avx2;
  avx2.avx2 = true;
  avx2.fma = true;
  CpuFeatures avx512 = avx2;
  avx512.avx512f = true;
  int tiers = 0;
  std::size_t wall_lanes = 0;
  for (const CpuFeatures& f : {CpuFeatures{}, avx2, avx512}) {
    const auto sel = kernels::select_force_kernel(kernels::ForceKernel::kAuto,
                                                  f, 1);
    ASSERT_EQ(sel.kind, kernels::ForceKernel::kBipartite);
    if ((f.avx2 && !kernels::force_kernel_supported(
                       kernels::ForceKernel::kAvx2, cpu_features())) ||
        (f.avx512f && !kernels::force_kernel_supported(
                          kernels::ForceKernel::kAvx512, cpu_features()))) {
      continue;  // this host (or build) cannot execute the tier
    }
    ++tiers;
    for (const IsingModel& model : models) {
      const BipartiteShape shape = model.bipartite_shape().value();
      const CsrPlanes csr = flatten_csr(model);
      kernels::ForcePlanes planes;
      planes.h = csr.h.data();
      planes.row_start = csr.row_start.data();
      planes.cols = csr.cols.data();
      planes.weights = csr.weights.data();
      planes.n = model.num_spins();
      planes.replicas = 1;
      const auto layout = kernels::build_bipartite(
          model.bipartite_plane().data(), shape.rows, shape.cols);
      layout.bind(planes);
      const std::size_t n = planes.n;
      for (bool discrete : {false, true}) {
        std::vector<double> xa(n);
        std::vector<double> ya(n);
        Rng rng(83);
        for (std::size_t k = 0; k < n; ++k) {
          xa[k] = rng.next_double(-1.0, 1.0);
          ya[k] = rng.next_double(-3.0, 3.0);
        }
        std::vector<double> xb = xa;
        std::vector<double> yb = ya;
        std::vector<double> force(n);
        std::vector<double> x_next(n);
        std::size_t step = kStep0;
        for (std::size_t steps : intervals) {
          for (std::size_t k = 0; k < steps; ++k, ++step) {
            planes.x = xa.data();
            planes.force = force.data();
            (discrete ? force_ref.discrete : force_ref.continuous)(planes);
            kernels::BsbStepPlanes sp;
            sp.x = xa.data();
            sp.y = ya.data();
            sp.force = force.data();
            sp.lanes = n;
            sp.neg_stiffness =
                -(kDetuning - kDetuning * (static_cast<double>(step) + 1.0) /
                                  static_cast<double>(kCap));
            sp.dt = kDt;
            sp.c0 = kC0;
            sp.dt_detuning = kDt * kDetuning;
            step_ref(sp);
          }
          kernels::BsbIntervalPlanes iv;
          iv.x = xb.data();
          iv.y = yb.data();
          iv.x_next = x_next.data();
          iv.step0 = step - steps;
          iv.steps = steps;
          iv.detuning = kDetuning;
          iv.total = static_cast<double>(kCap);
          iv.dt = kDt;
          iv.c0 = kC0;
          iv.dt_detuning = kDt * kDetuning;
          (discrete ? sel.interval_discrete : sel.interval_continuous)(planes,
                                                                       iv);
          const std::string where =
              std::string(sel.name) + " r=" + std::to_string(shape.rows) +
              " c=" + std::to_string(shape.cols) +
              (discrete ? " discrete" : " continuous") + " after step " +
              std::to_string(step);
          ASSERT_EQ(std::memcmp(xa.data(), xb.data(), n * sizeof(double)), 0)
              << where;
          ASSERT_EQ(std::memcmp(ya.data(), yb.data(), n * sizeof(double)), 0)
              << where;
        }
        for (double v : xa) {
          wall_lanes += std::fabs(v) == 1.0 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GE(tiers, 1);
  EXPECT_GT(wall_lanes, 0u);
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
