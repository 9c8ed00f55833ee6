#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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

// ------------------------------------ exact sums and the grouped tracker

/// An r x c column COP over a random exact matrix: joint with integer D in
/// [-6, 6) at bit weight 2, or separate. Uniform puts every cell at 2^-8;
/// weighted draws each cell's probability at random.
ColumnCop random_column_cop(std::size_t r, std::size_t c, bool joint,
                            bool weighted, Rng& rng) {
  BooleanMatrix m(r, c);
  std::vector<double> probs(r * c, std::ldexp(1.0, -8));
  std::vector<double> d(r * c);
  for (std::size_t k = 0; k < r * c; ++k) {
    m.set(k / c, k % c, rng.next_bool());
    if (weighted) {
      probs[k] = rng.next_double(0.5, 1.5) / static_cast<double>(r * c);
    }
    d[k] = std::floor(rng.next_double(-6.0, 6.0));
  }
  return joint ? ColumnCop::joint(m, probs, d, 2.0)
               : ColumnCop::separate(m, probs);
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ExactArithmetic, UniformCopsAreExactWeightedAreNot) {
  const TruthTable exact = make_benchmark_table("exp", 9, 9);
  const InputPartition w = InputPartition::trivial(9, 4);
  const BooleanMatrix m = BooleanMatrix::from_function(exact, 2, w);
  std::vector<double> d(m.rows() * m.cols());
  Rng rng(5);
  for (double& v : d) {
    v = std::floor(rng.next_double(-40.0, 40.0));
  }
  std::vector<double> weights(512);
  for (double& v : weights) {
    v = rng.next_double(0.2, 3.0);
  }
  for (const InputDistribution& dist :
       {InputDistribution::uniform(9),
        InputDistribution::from_weights(weights)}) {
    const std::vector<double> probs = matrix_probs(dist, w);
    const bool uniform = dist.is_uniform();
    EXPECT_EQ(ColumnCop::joint(m, probs, d, 4.0).to_ising().exact_arithmetic(),
              uniform);
    EXPECT_EQ(ColumnCop::separate(m, probs).to_ising().exact_arithmetic(),
              uniform);
  }
  // Bipartite_model's joint COPs are uniform, its separate ones weighted.
  EXPECT_TRUE(bipartite_model(9, 4, true).exact_arithmetic());
  EXPECT_FALSE(bipartite_model(9, 4, false).exact_arithmetic());
}

TEST(ExactArithmetic, ZeroModelsAreExact) {
  IsingModel general(3);
  general.finalize();
  EXPECT_TRUE(general.exact_arithmetic());
  const IsingModel plane = IsingModel::bipartite({2, 3}, std::vector<double>(6));
  EXPECT_TRUE(plane.exact_arithmetic());
}

TEST(ExactArithmetic, NonFiniteValuesAndNegativeZeroConstantAreNot) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto plane_with = [](double w, double h, double constant) {
    IsingModel m = IsingModel::bipartite({1, 2}, {1.0, w});
    m.set_bias(0, h);
    m.set_constant(constant);
    return m;
  };
  EXPECT_TRUE(plane_with(2.0, 0.5, 3.0).exact_arithmetic());
  EXPECT_TRUE(plane_with(2.0, 0.5, 0.0).exact_arithmetic());
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_FALSE(plane_with(bad, 0.5, 3.0).exact_arithmetic()) << bad;
    EXPECT_FALSE(plane_with(2.0, bad, 3.0).exact_arithmetic()) << bad;
    EXPECT_FALSE(plane_with(2.0, 0.5, bad).exact_arithmetic()) << bad;
    IsingModel general(3);
    general.add_coupling(0, 1, 1.0);
    general.add_coupling(1, 2, bad);
    general.finalize();
    EXPECT_FALSE(general.exact_arithmetic()) << bad;
  }
  EXPECT_FALSE(plane_with(2.0, 0.5, -0.0).exact_arithmetic());
  // What the -0.0 rule guards: with the spin terms at -0.0, energy()
  // returns -0.0, while a tracked sum that reaches zero is +0.0.
  IsingModel zero(1);
  zero.set_constant(-0.0);
  zero.finalize();
  EXPECT_TRUE(std::signbit(zero.energy(std::vector<std::int8_t>{1})));
}

TEST(ExactArithmetic, SubnormalEntriesOnTheirOwnGrid) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  IsingModel m(3);
  m.set_bias(0, 3.0 * tiny);
  m.add_coupling(0, 1, 5.0 * tiny);
  m.add_coupling(1, 2, -tiny);
  m.set_constant(7.0 * tiny);
  m.finalize();
  EXPECT_TRUE(m.exact_arithmetic());
  // Every sum stays exact on the 2^-1074 grid: the energies are the
  // integer sums times denorm_min.
  EXPECT_EQ(bits_of(m.energy(std::vector<std::int8_t>{1, 1, 1})),
            bits_of((-3.0 - 5.0 + 1.0 + 7.0) * tiny));
  EXPECT_EQ(bits_of(m.energy(std::vector<std::int8_t>{-1, 1, -1})),
            bits_of((3.0 + 5.0 - 1.0 + 7.0) * tiny));
  // A normal entry beside them puts S far past 2^(52 - 1074).
  m.set_bias(2, 1.0);
  EXPECT_FALSE(m.exact_arithmetic());
  // On the 2^-1074 grid the bound is the smallest normal, 2^-1022: the
  // largest subnormal plus one step reaches it, one more step passes it.
  IsingModel edge(2);
  edge.set_bias(0, std::numeric_limits<double>::min() - tiny);
  edge.set_bias(1, tiny);
  edge.finalize();
  EXPECT_TRUE(edge.exact_arithmetic());
  edge.set_constant(tiny);
  EXPECT_FALSE(edge.exact_arithmetic());
}

TEST(ExactArithmetic, BoundIsTwoToTheFiftyTwoGridSteps) {
  const double top = std::ldexp(1.0, 52);
  for (const int scale : {0, -20, 30, -1000}) {
    // General model: S = h0 + h1 on the grid 2^scale.
    const auto general = [scale](double h0, double h1) {
      IsingModel m(2);
      m.set_bias(0, std::ldexp(h0, scale));
      m.set_bias(1, std::ldexp(h1, scale));
      m.finalize();
      return m;
    };
    EXPECT_TRUE(general(1.0, top - 1.0).exact_arithmetic()) << scale;
    EXPECT_FALSE(general(1.0, top).exact_arithmetic()) << scale;
    // The other side of the grid: S at the bound, but L one step finer.
    EXPECT_FALSE(general(0.5, top - 0.5).exact_arithmetic()) << scale;
    // Plane model: its entry counts twice (V1 with w, V2 with -w).
    const auto plane = [scale](double constant) {
      IsingModel m = IsingModel::bipartite(
          {1, 1}, {std::ldexp(std::ldexp(1.0, 50), scale)});
      m.set_bias(0, std::ldexp(std::ldexp(1.0, 51) - 1.0, scale));
      m.set_constant(std::ldexp(constant, scale));
      return m;
    };
    EXPECT_TRUE(plane(1.0).exact_arithmetic()) << scale;
    EXPECT_TRUE(plane(-1.0).exact_arithmetic()) << scale;
    EXPECT_FALSE(plane(2.0).exact_arithmetic()) << scale;
  }
  // Near the top of the range the bound is 2^1022, so a doubled field
  // cannot overflow.
  IsingModel big(2);
  big.set_bias(0, std::ldexp(1.0, 1022));
  big.finalize();
  EXPECT_TRUE(big.exact_arithmetic());
  big.set_bias(1, std::ldexp(1.0, 1000));
  EXPECT_FALSE(big.exact_arithmetic());
}

TEST(ExactArithmetic, GeneralModelsBothWays) {
  Rng rng(8);
  IsingModel integral(10);
  IsingModel decimal(10);
  for (std::size_t i = 0; i < 10; ++i) {
    integral.set_bias(i, std::floor(rng.next_double(-9.0, 9.0)));
    decimal.set_bias(i, 0.1 * static_cast<double>(i + 1));
    for (std::size_t j = i + 1; j < 10; ++j) {
      integral.add_coupling(i, j, std::floor(rng.next_double(-9.0, 9.0)));
      decimal.add_coupling(i, j, 0.25);
    }
  }
  integral.set_constant(-17.0);
  integral.finalize();
  decimal.finalize();
  EXPECT_TRUE(integral.exact_arithmetic());
  EXPECT_FALSE(decimal.exact_arithmetic());
}

TEST(ExactArithmetic, RunReportsFromScratchEnergyPastTheBound) {
  // Models the rule turns away, where the recompute must still run: one
  // grid step past the bound, and models whose sums round (random
  // couplings; weighted COPs on the grouped path). The reported energy is
  // a from-scratch value, bit for bit.
  Rng rng(12);
  std::vector<IsingModel> models;
  {
    IsingModel m(12);
    double s = 0.0;
    for (std::size_t i = 0; i < 12; ++i) {
      for (std::size_t j = i + 1; j < 12; ++j) {
        const double v = std::floor(rng.next_double(-9.0, 9.0));
        m.add_coupling(i, j, v);
        s += std::fabs(v);
      }
    }
    for (std::size_t i = 1; i < 12; ++i) {
      m.set_bias(i, 1.0);
      s += 1.0;
    }
    m.set_bias(0, std::ldexp(1.0, 52) - s + 1.0);  // S = 2^52 + 1
    m.finalize();
    EXPECT_FALSE(m.exact_arithmetic());
    m.set_bias(0, std::ldexp(1.0, 52) - s);
    EXPECT_TRUE(m.exact_arithmetic());
    m.set_bias(0, std::ldexp(1.0, 52) - s + 1.0);
    models.push_back(std::move(m));
  }
  models.push_back(random_model(14, 0.6, rng));
  for (const bool joint : {true, false}) {
    models.push_back(random_column_cop(16, 32, joint, true, rng).to_ising());
  }
  for (const IsingModel& model : models) {
    EXPECT_FALSE(model.exact_arithmetic());
    for (const std::size_t replicas : {1, 3}) {
      SbParams params = quick_params(31);
      params.stop.sample_interval = 5;
      const IsingSolveResult res = solve_sb_batch(model, params, replicas);
      EXPECT_EQ(bits_of(res.energy), bits_of(model.energy(res.spins)));
    }
  }
}

TEST(TrackerParity, GroupedFieldsMatchPerFlipCsr) {
  // One column-COP model at R = 1 through the bipartite engine (whose
  // tracker takes grouped flip fields from the plane) and the kScalar CSR
  // engine (per-flip CSR walk), from the same positions. Between sampling
  // points both engines step, then a hook-style edit pins every oscillator
  // to its tracked sign except exactly `v` V spins and `t` T spins, which
  // it flips. Energies and spins must agree bitwise at every point.
  struct Shape {
    std::size_t r;
    std::size_t c;
  };
  Rng rng(2024);
  std::size_t points = 0;
  for (const Shape shape :
       {Shape{2, 4}, Shape{3, 65}, Shape{16, 32}, Shape{128, 512}}) {
    const std::size_t sides[2] = {2 * shape.r, shape.c};
    for (const bool joint : {true, false}) {
      for (const bool weighted : {false, true}) {
        const IsingModel model =
            random_column_cop(shape.r, shape.c, joint, weighted, rng)
                .to_ising();
        ASSERT_EQ(model.exact_arithmetic(), !weighted);
        const std::size_t n = model.num_spins();
        for (const bool discrete : {false, true}) {
          SbParams params = quick_params(77);
          params.discrete = discrete;
          params.kernel = kernels::ForceKernel::kAuto;
          BsbBatchEngine grouped(model, params, 1);
          params.kernel = kernels::ForceKernel::kScalar;
          BsbBatchEngine per_flip(model, params, 1);
          ASSERT_EQ(grouped.kernel_kind(), kernels::ForceKernel::kBipartite);
          ASSERT_EQ(per_flip.kernel_kind(), kernels::ForceKernel::kScalar);
          std::vector<std::size_t> order;
          for (const std::size_t v : {0, 1, 3, 4, 5, 37, 1000}) {
            for (const std::size_t t : {0, 1, 3, 4, 5, 37, 1000}) {
              grouped.advance(grouped.steps_done(), 3);
              per_flip.advance(per_flip.steps_done(), 3);
              const std::span<double> x = grouped.positions();
              ASSERT_EQ(std::memcmp(x.data(), per_flip.positions().data(),
                                    n * sizeof(double)),
                        0);
              const std::vector<std::int8_t> before(grouped.spins().begin(),
                                                    grouped.spins().end());
              std::vector<std::uint8_t> flip(n, 0);
              for (int side = 0; side < 2; ++side) {
                const std::size_t first = side == 0 ? 0 : 2 * shape.r;
                const std::size_t count =
                    std::min(side == 0 ? v : t, sides[side]);
                order.resize(sides[side]);
                for (std::size_t k = 0; k < order.size(); ++k) {
                  order[k] = first + k;
                }
                for (std::size_t k = 0; k < count; ++k) {
                  std::swap(order[k],
                            order[k + rng.next_below(order.size() - k)]);
                  flip[order[k]] = 1;
                }
              }
              for (std::size_t i = 0; i < n; ++i) {
                const double sign = static_cast<double>(before[i]) *
                                    (flip[i] != 0 ? -1.0 : 1.0);
                x[i] = sign * (0.125 + 0.5 * std::fabs(x[i]));
              }
              std::copy(x.begin(), x.end(), per_flip.positions().begin());
              grouped.sample();
              per_flip.sample();
              const std::string where =
                  "r=" + std::to_string(shape.r) +
                  " c=" + std::to_string(shape.c) +
                  (joint ? " joint" : " separate") +
                  (weighted ? " weighted" : " uniform") +
                  (discrete ? " discrete" : " continuous") +
                  " v=" + std::to_string(v) + " t=" + std::to_string(t);
              std::size_t flipped = 0;
              for (std::size_t i = 0; i < n; ++i) {
                flipped += grouped.spins()[i] != before[i] ? 1 : 0;
              }
              ASSERT_EQ(flipped, std::min(v, sides[0]) + std::min(t, sides[1]))
                  << where;
              ASSERT_EQ(bits_of(grouped.energies()[0]),
                        bits_of(per_flip.energies()[0]))
                  << where;
              ASSERT_TRUE(std::equal(grouped.spins().begin(),
                                     grouped.spins().end(),
                                     per_flip.spins().begin()))
                  << where;
              const double scratch = model.energy(std::vector<std::int8_t>(
                  grouped.spins().begin(), grouped.spins().end()));
              if (!weighted) {
                ASSERT_EQ(bits_of(grouped.energies()[0]), bits_of(scratch))
                    << where;
              } else {
                ASSERT_NEAR(grouped.energies()[0], scratch, 1e-9) << where;
              }
              ++points;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(points, 4u * 8u * 49u);
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

// The deadline check of the batched engine: an expired context stops
// it before the first step.
TEST(BsbPackDeadline, BatchEngineChecksDeadlineAtRestartBoundary) {
  Rng rng(14);
  const auto model = random_model(8, 0.5, rng);
  SbParams params;
  params.max_iterations = 100000;
  RunContext::Options opts;
  opts.time_budget_s = 1e-9;
  const RunContext ctx(opts);
  while (!ctx.expired()) {
  }
  const auto res = solve_sb_batch(model, params, 1, nullptr, nullptr, &ctx);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_EQ(res.iterations, 0u);
}

}  // namespace
}  // namespace adsd
