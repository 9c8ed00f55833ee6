#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/column_cop.hpp"
#include "core/cop_solvers.hpp"
#include "core/dalta.hpp"
#include "core/nondisjoint_dalta.hpp"
#include "core/solver_registry.hpp"
#include "funcs/registry.hpp"
#include "ising/bsb.hpp"
#include "ising/bsb_batch.hpp"
#include "ising/bsb_pack.hpp"
#include "ising/model.hpp"
#include "support/metrics.hpp"
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

std::vector<IsingModel> member_models(std::size_t count, std::size_t n,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<IsingModel> models;
  models.reserve(count);
  for (std::size_t m = 0; m < count; ++m) {
    models.push_back(random_model(n, 0.3 + 0.1 * (m % 5), rng));
  }
  return models;
}

/// The standalone reference every packed member must reproduce bit-for-bit:
/// BsbBatchEngine on the member's own model with SbParams.seed = its seed.
IsingSolveResult standalone(const IsingModel& model, SbParams params,
                            std::uint64_t seed, std::size_t replicas) {
  params.seed = seed;
  BsbBatchEngine engine(model, params, replicas);
  return engine.run();
}

// ------------------------------------------------------- member bit parity

TEST(BsbPackParity, MembersMatchStandaloneAcrossReplicas) {
  const auto models = member_models(5, 12, 101);
  SbParams params;
  params.max_iterations = 300;
  params.stop.enabled = true;
  params.stop.epsilon = 1e-6;
  params.stop.sample_interval = 5;
  params.stop.window = 6;

  for (const std::size_t replicas :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<PackMember> members;
    for (std::size_t m = 0; m < models.size(); ++m) {
      members.push_back({&models[m], 1000 + 7 * m, {}});
    }
    BsbPackEngine engine(members, params, replicas);
    const auto packed = engine.run();
    ASSERT_EQ(packed.size(), models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
      const auto ref = standalone(models[m], params, members[m].seed, replicas);
      EXPECT_EQ(ref.energy, packed[m].energy) << "R=" << replicas << " m=" << m;
      EXPECT_EQ(ref.spins, packed[m].spins) << "R=" << replicas << " m=" << m;
      EXPECT_EQ(ref.iterations, packed[m].iterations);
      EXPECT_EQ(ref.stopped_early, packed[m].stopped_early);
    }
  }
}

TEST(BsbPackParity, MembersMatchStandaloneAtEveryKernelRequest) {
  const auto models = member_models(4, 10, 202);
  for (const kernels::ForceKernel kernel :
       {kernels::ForceKernel::kScalar, kernels::ForceKernel::kAvx2,
        kernels::ForceKernel::kAvx512, kernels::ForceKernel::kAuto}) {
    SbParams params;
    params.max_iterations = 250;
    params.kernel = kernel;
    params.stop.enabled = true;
    params.stop.epsilon = 1e-7;
    params.stop.sample_interval = 10;
    params.stop.window = 5;

    std::vector<PackMember> members;
    for (std::size_t m = 0; m < models.size(); ++m) {
      members.push_back({&models[m], 31 + m, {}});
    }
    BsbPackEngine engine(members, params, 2);
    const auto packed = engine.run();
    for (std::size_t m = 0; m < models.size(); ++m) {
      const auto ref = standalone(models[m], params, members[m].seed, 2);
      EXPECT_EQ(ref.energy, packed[m].energy)
          << kernels::force_kernel_name(kernel) << " m=" << m;
      EXPECT_EQ(ref.spins, packed[m].spins);
      EXPECT_EQ(ref.iterations, packed[m].iterations);
    }
  }
}

TEST(BsbPackParity, DiscreteVariantMatchesStandalone) {
  const auto models = member_models(3, 11, 303);
  SbParams params;
  params.max_iterations = 150;
  params.discrete = true;
  std::vector<PackMember> members;
  for (std::size_t m = 0; m < models.size(); ++m) {
    members.push_back({&models[m], 71 + m, {}});
  }
  BsbPackEngine engine(members, params, 1);
  const auto packed = engine.run();
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto ref = standalone(models[m], params, members[m].seed, 1);
    EXPECT_EQ(ref.energy, packed[m].energy);
    EXPECT_EQ(ref.spins, packed[m].spins);
  }
}

TEST(BsbPackParity, InitialPositionsWarmStartMatchesStandalone) {
  const auto models = member_models(3, 9, 404);
  SbParams params;
  params.max_iterations = 120;
  Rng rng(55);
  std::vector<std::vector<double>> warm(models.size());
  std::vector<PackMember> members;
  for (std::size_t m = 0; m < models.size(); ++m) {
    warm[m].resize(9);
    for (double& v : warm[m]) {
      v = rng.next_double(-0.1, 0.1);
    }
    members.push_back({&models[m], 5 + m, warm[m]});
  }
  BsbPackEngine engine(members, params, 2);
  const auto packed = engine.run();
  for (std::size_t m = 0; m < models.size(); ++m) {
    SbParams p = params;
    p.initial_positions = warm[m];
    const auto ref = standalone(models[m], p, members[m].seed, 2);
    EXPECT_EQ(ref.energy, packed[m].energy);
    EXPECT_EQ(ref.spins, packed[m].spins);
  }
}

// ------------------------------------------- retirement at different steps

TEST(BsbPackRetirement, MembersRetireAtDifferentIterationsAndStayExact) {
  // A loose variance window makes each member's dynamic stop fire at its
  // own step; the packed run must retire them one by one (slot compaction)
  // without disturbing the survivors.
  const auto models = member_models(6, 10, 505);
  SbParams params;
  params.max_iterations = 4000;
  params.stop.enabled = true;
  params.stop.epsilon = 1e-3;
  params.stop.sample_interval = 5;
  params.stop.window = 4;

  std::vector<PackMember> members;
  for (std::size_t m = 0; m < models.size(); ++m) {
    members.push_back({&models[m], 900 + 13 * m, {}});
  }
  BsbPackEngine engine(members, params, 1);
  const auto packed = engine.run();
  std::set<std::size_t> distinct;
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto ref = standalone(models[m], params, members[m].seed, 1);
    EXPECT_EQ(ref.energy, packed[m].energy) << "m=" << m;
    EXPECT_EQ(ref.spins, packed[m].spins);
    EXPECT_EQ(ref.iterations, packed[m].iterations);
    EXPECT_TRUE(packed[m].stopped_early) << "m=" << m;
    distinct.insert(packed[m].iterations);
  }
  // The point of the test: retirement actually happened at unequal steps.
  EXPECT_GT(distinct.size(), 1u);
}

// ----------------------------------------------------- intervention hooks

TEST(BsbPackHook, PlaneHookSeesStandaloneLayoutAndStaysExact) {
  const auto models = member_models(4, 8, 606);
  SbParams params;
  params.max_iterations = 100;
  params.stop.sample_interval = 10;
  const std::size_t replicas = 2;

  // Per-member pinning intervention, written once against the standalone
  // plane layout (element i of replica r at i * replicas + r).
  auto pin = [](std::size_t member, std::span<double> x, std::span<double> y,
                std::size_t reps) {
    const std::size_t i = member % 8;
    for (std::size_t r = 0; r < reps; ++r) {
      x[i * reps + r] = (member % 2 == 0) ? 1.0 : -1.0;
      y[i * reps + r] = 0.0;
    }
  };

  std::vector<PackMember> members;
  for (std::size_t m = 0; m < models.size(); ++m) {
    members.push_back({&models[m], 40 + m, {}});
  }
  BsbPackEngine engine(members, params, replicas);
  const auto packed = engine.run(pin);
  for (std::size_t m = 0; m < models.size(); ++m) {
    SbParams p = params;
    p.seed = members[m].seed;
    BsbBatchEngine ref_engine(models[m], p, replicas);
    const auto ref = ref_engine.run(
        nullptr, [&](std::span<double> x, std::span<double> y,
                     std::size_t reps) { pin(m, x, y, reps); });
    EXPECT_EQ(ref.energy, packed[m].energy) << "m=" << m;
    EXPECT_EQ(ref.spins, packed[m].spins);
  }
}

// ------------------------------------------------- tile-width bit parity

TEST(BsbPackParity, TileWidthsAreBitIdentical) {
  // A multi-tile pack must reproduce the standalone trajectories: tiles
  // only change which slots advance together between sampling points, and
  // members never interact between sampling points. 20 near-complete
  // 96-spin members have a 96 * 95 = 9120-edge union, so the ~1 MB tile
  // holds 8 slots and the pack runs tiles of 8, 8 and 4; members retire at
  // different steps, so compaction crosses tile boundaries.
  const auto models = [] {
    Rng rng(808);
    std::vector<IsingModel> out;
    for (std::size_t m = 0; m < 20; ++m) {
      out.push_back(random_model(96, 0.98, rng));
    }
    return out;
  }();
  SbParams params;
  params.max_iterations = 200;
  params.stop.enabled = true;
  params.stop.epsilon = 1e-3;
  params.stop.sample_interval = 5;
  params.stop.window = 4;

  for (const bool discrete : {false, true}) {
    params.discrete = discrete;
    std::vector<PackMember> members;
    for (std::size_t m = 0; m < models.size(); ++m) {
      members.push_back({&models[m], 4000 + 11 * m, {}});
    }
    BsbPackEngine engine(members, params, 1);
    EXPECT_EQ(engine.tile(), 8u);
    EXPECT_LT(engine.tile(), engine.num_members());
    const auto packed = engine.run();
    std::set<std::size_t> distinct;
    for (std::size_t m = 0; m < models.size(); ++m) {
      const auto ref = standalone(models[m], params, members[m].seed, 1);
      EXPECT_EQ(ref.energy, packed[m].energy)
          << "discrete=" << discrete << " m=" << m;
      EXPECT_EQ(ref.spins, packed[m].spins)
          << "discrete=" << discrete << " m=" << m;
      EXPECT_EQ(ref.iterations, packed[m].iterations);
      distinct.insert(packed[m].iterations);
    }
    EXPECT_GT(distinct.size(), 1u) << "discrete=" << discrete;
  }
}

// ---------------------------------------------------- mixed-n bit parity

TEST(BsbPackParity, MixedSpinCountsMatchStandalone) {
  // Members of different sizes share one pack: smaller members ride with
  // inert padded spins and must still match their standalone solves.
  Rng rng(111);
  std::vector<IsingModel> models;
  for (const std::size_t n :
       {std::size_t{6}, std::size_t{12}, std::size_t{9}, std::size_t{5},
        std::size_t{12}, std::size_t{8}}) {
    models.push_back(random_model(n, 0.5, rng));
  }
  SbParams params;
  params.max_iterations = 220;
  params.stop.enabled = true;
  params.stop.epsilon = 1e-6;
  params.stop.sample_interval = 5;
  params.stop.window = 5;

  for (const std::size_t replicas : {std::size_t{1}, std::size_t{2}}) {
    std::vector<PackMember> members;
    for (std::size_t m = 0; m < models.size(); ++m) {
      members.push_back({&models[m], 7000 + 31 * m, {}});
    }
    BsbPackEngine engine(members, params, replicas);
    EXPECT_EQ(engine.num_spins(), 12u);
    EXPECT_EQ(engine.member_spins(0), 6u);
    const auto packed = engine.run();
    for (std::size_t m = 0; m < models.size(); ++m) {
      const auto ref = standalone(models[m], params, members[m].seed, replicas);
      EXPECT_EQ(ref.energy, packed[m].energy) << "R=" << replicas << " m=" << m;
      EXPECT_EQ(ref.spins, packed[m].spins);
      EXPECT_EQ(ref.iterations, packed[m].iterations);
      ASSERT_EQ(packed[m].spins.size(), models[m].num_spins());
    }
  }
}

// ------------------------------------------------------ deadline handling

TEST(BsbPackDeadline, ExpiredContextRetiresEveryMemberImmediately) {
  const auto models = member_models(3, 8, 707);
  SbParams params;
  params.max_iterations = 100000;
  RunContext::Options opts;
  opts.time_budget_s = 1e-9;
  const RunContext ctx(opts);
  while (!ctx.expired()) {
  }
  std::vector<PackMember> members;
  for (std::size_t m = 0; m < models.size(); ++m) {
    members.push_back({&models[m], 3 + m, {}});
  }
  BsbPackEngine engine(members, params, 1);
  engine.set_context(&ctx);
  const auto packed = engine.run();
  for (const auto& res : packed) {
    EXPECT_TRUE(res.stopped_early);
    EXPECT_EQ(res.iterations, 0u);
  }
}

TEST(BsbPackDeadline, SlotsCompactMidSolveOnDeadline) {
  // A deadline that expires in the middle of a run must retire members at
  // their next sampling point without disturbing the survivors' slots.
  // Member 2's hook burns the whole budget at the first sampling point
  // (step 10): members 0 and 1 passed their deadline check before it ran,
  // so they survive to step 20, while members 2..5 retire at step 10 and
  // are compacted out of the active prefix.
  const auto models = member_models(6, 8, 1212);
  SbParams params;
  params.max_iterations = 20;
  params.stop.sample_interval = 10;

  RunContext::Options opts;
  opts.time_budget_s = 0.25;
  const RunContext ctx(opts);
  auto burn = [&](std::size_t member, std::span<double>, std::span<double>,
                  std::size_t) {
    if (member == 2) {
      while (!ctx.expired()) {
      }
    }
  };
  std::vector<PackMember> members;
  for (std::size_t m = 0; m < models.size(); ++m) {
    members.push_back({&models[m], 50 + m, {}});
  }
  BsbPackEngine engine(members, params, 1);
  engine.set_context(&ctx);
  const auto packed = engine.run(burn);
  for (std::size_t m = 0; m < models.size(); ++m) {
    EXPECT_EQ(packed[m].iterations, m < 2 ? 20u : 10u) << "m=" << m;
    EXPECT_TRUE(packed[m].stopped_early) << "m=" << m;
    // Results stay internally consistent after mid-solve compaction.
    EXPECT_EQ(packed[m].energy, models[m].energy(packed[m].spins))
        << "m=" << m;
  }
}

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

// ------------------------------------------------------ argument checking

TEST(BsbPack, RejectsBadArguments) {
  Rng rng(21);
  const auto a = random_model(6, 0.8, rng);
  const auto b = random_model(7, 0.8, rng);
  SbParams params;
  EXPECT_THROW(BsbPackEngine({}, params, 1), std::invalid_argument);
  {
    // Mixed spin counts are legal (padded).
    const std::vector<PackMember> mixed = {{&a, 1, {}}, {&b, 2, {}}};
    BsbPackEngine ok(mixed, params, 1);
    EXPECT_EQ(ok.num_spins(), 7u);
  }
  {
    IsingModel unfinalized(6);
    const std::vector<PackMember> raw = {{&unfinalized, 1, {}}};
    EXPECT_THROW(BsbPackEngine(raw, params, 1), std::invalid_argument);
  }
}

// ------------------------------------------------- packed core COP solver

/// Separate-mode core COP of `exp` over a random (free, n - free) split:
/// 2 * 2^free + 2^(n - free) spins, 64 at the default n = 9.
ColumnCop benchmark_cop(unsigned output, unsigned shift = 0, unsigned n = 9,
                        unsigned free = 4) {
  const TruthTable tt = make_benchmark_table("exp", n, 7);
  const InputDistribution dist = InputDistribution::uniform(n);
  Rng rng(77 + shift);
  const InputPartition w = InputPartition::random(n, free, rng);
  const BooleanMatrix matrix = BooleanMatrix::from_function(tt, output, w);
  const std::vector<double> probs = matrix_probs(dist, w);
  return ColumnCop::separate(matrix, probs);
}

TEST(PackedCoreCopSolver, SingleSolveMatchesIsingCoreSolver) {
  const ColumnCop cop = benchmark_cop(3);
  const auto plain = SolverRegistry::global().make_from_spec("prop,n=9");
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,n=9,pack=8");
  CoreSolveStats sp;
  CoreSolveStats sq;
  const ColumnSetting p = plain->solve(cop, 42, &sp);
  const ColumnSetting q = packed->solve(cop, 42, &sq);
  EXPECT_TRUE(p.v1 == q.v1 && p.v2 == q.v2 && p.t == q.t);
  EXPECT_EQ(sp.objective, sq.objective);
  EXPECT_EQ(sp.iterations, sq.iterations);
  EXPECT_EQ(sp.stopped_early, sq.stopped_early);
}

TEST(PackedCoreCopSolver, BatchMatchesLoopedSolvesAcrossConfigs) {
  std::vector<ColumnCop> cops;
  for (unsigned k = 0; k < 6; ++k) {
    cops.push_back(benchmark_cop(k % 7, k));
  }
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < cops.size(); ++i) {
    seeds.push_back(1000 + 17 * i);
  }
  // Theorem-3 + dynamic stop are on by default; restarts=2 exercises the
  // per-attempt reseed, pack=3 forces multiple chunks per batch. The R = 1
  // configs fail the slot gate (their standalone solves run the bipartite
  // layout) and pin the looped fallback; R = 2 leaves the CSR kernel a
  // lane tail, so those configs pack on any host.
  for (const std::string extra : {"", ",replicas=4", ",restarts=2",
                                  ",replicas=2", ",replicas=2,restarts=2"}) {
    const auto plain =
        SolverRegistry::global().make_from_spec("prop,n=9" + extra);
    const auto packed = SolverRegistry::global().make_from_spec(
        "prop,n=9,pack=3" + extra);
    const RunContext ctx(std::uint64_t{7});
    std::vector<CoreSolveStats> packed_stats;
    const auto batch = packed->solve_batch(cops, ctx, seeds, &packed_stats);
    ASSERT_EQ(batch.size(), cops.size());
    for (std::size_t i = 0; i < cops.size(); ++i) {
      CoreSolveStats ref_stats;
      const ColumnSetting ref =
          plain->solve(cops[i], ctx, seeds[i], &ref_stats);
      EXPECT_TRUE(ref.v1 == batch[i].v1 && ref.v2 == batch[i].v2 &&
                  ref.t == batch[i].t)
          << "config '" << extra << "' instance " << i;
      EXPECT_EQ(ref_stats.objective, packed_stats[i].objective);
      EXPECT_EQ(ref_stats.iterations, packed_stats[i].iterations);
      EXPECT_EQ(ref_stats.stopped_early, packed_stats[i].stopped_early);
    }
  }
}

TEST(PackedCoreCopSolver, ChunksPastTheSlotGateRunAsLoopedSolves) {
  // A chunk fails the slot gate when a standalone solve of it would have no
  // lane tail (the bipartite layout at R = 1; R a whole number of the CSR
  // kernel's blocks of 4, as R = 4 or 8), when it runs more than 7
  // replicas, or when its per-slot planes (n_max^2 * members doubles)
  // outgrow 4 MiB; its members are then solved one by one through the
  // standalone solve, so no pack engine runs. Packed or not, every result
  // matches IsingCoreSolver bit for bit. The CSR kernel is the same on
  // every host, so the cases hold on any host.
  std::vector<ColumnCop> small;  // 64 spins each
  std::vector<ColumnCop> large;  // 384 spins: 3 * 384^2 doubles fit, 4 don't
  for (unsigned k = 0; k < 4; ++k) {
    small.push_back(benchmark_cop(k, k));
    large.push_back(benchmark_cop(k, k, 14, 6));
  }
  ASSERT_EQ(large[0].num_spins(), 384u);
  const std::vector<std::uint64_t> seeds = {11, 12, 13, 14};

  struct Case {
    std::string keys;  // on both sides
    std::string pack;  // packed side only
    const std::vector<ColumnCop>* cops;
    bool packs;
  };
  for (const Case& c :
       {Case{"", ",pack=4", &small, false},
        Case{",replicas=4", ",pack=4", &small, false},
        Case{",replicas=8", ",pack=4", &small, false},
        Case{",replicas=9", ",pack=4", &small, false},
        Case{",replicas=2,max-iter=300", ",pack=4", &large, false},
        // Controls that pack: R = 2 and 3, the 7-replica ceiling, and the
        // same large COPs in chunks of 3.
        Case{",replicas=2", ",pack=4", &small, true},
        Case{",replicas=3", ",pack=4", &small, true},
        Case{",replicas=7", ",pack=4", &small, true},
        Case{",replicas=2,max-iter=300", ",pack=3", &large, true}}) {
    const std::string label = c.keys + c.pack;
    const auto plain =
        SolverRegistry::global().make_from_spec("prop,n=9" + c.keys);
    const auto packed = SolverRegistry::global().make_from_spec(
        "prop,n=9" + c.keys + c.pack);
    MetricsRegistry::Counter& pack_runs =
        MetricsRegistry::global().counter("pack_runs_total");
    const std::uint64_t runs_before = pack_runs.value();
    RunContext::Options opts;
    opts.seed = 5;
    opts.metrics = true;
    const RunContext ctx(opts);
    std::vector<CoreSolveStats> stats;
    const auto batch = packed->solve_batch(*c.cops, ctx, seeds, &stats);
    EXPECT_EQ(pack_runs.value() > runs_before, c.packs) << label;
    const RunContext ref_ctx(std::uint64_t{5});
    for (std::size_t i = 0; i < c.cops->size(); ++i) {
      CoreSolveStats ref_stats;
      const ColumnSetting ref =
          plain->solve((*c.cops)[i], ref_ctx, seeds[i], &ref_stats);
      EXPECT_TRUE(ref.v1 == batch[i].v1 && ref.v2 == batch[i].v2 &&
                  ref.t == batch[i].t)
          << label << " instance " << i;
      EXPECT_EQ(ref_stats.objective, stats[i].objective) << label;
      EXPECT_EQ(ref_stats.iterations, stats[i].iterations) << label;
      EXPECT_EQ(ref_stats.stopped_early, stats[i].stopped_early) << label;
    }
  }
}

TEST(PackedCoreCopSolver, UnbatchedSolverBatchEqualsLoop) {
  // The default solve_batch path (no batched() override) must equal a
  // caller-side loop for any solver.
  std::vector<ColumnCop> cops;
  for (unsigned k = 0; k < 3; ++k) {
    cops.push_back(benchmark_cop(k, 10 + k));
  }
  const std::vector<std::uint64_t> seeds = {5, 6, 7};
  const auto solver = SolverRegistry::global().make_from_spec("prop,n=9");
  const RunContext ctx(std::uint64_t{3});
  std::vector<CoreSolveStats> stats;
  const auto batch = solver->solve_batch(cops, ctx, seeds, &stats);
  for (std::size_t i = 0; i < cops.size(); ++i) {
    CoreSolveStats ref_stats;
    const ColumnSetting ref = solver->solve(cops[i], ctx, seeds[i], &ref_stats);
    EXPECT_TRUE(ref.v1 == batch[i].v1 && ref.v2 == batch[i].v2 &&
                ref.t == batch[i].t);
    EXPECT_EQ(ref_stats.objective, stats[i].objective);
  }
  EXPECT_THROW(solver->solve_batch(cops, ctx, std::vector<std::uint64_t>{1}),
               std::invalid_argument);
}

// ----------------------------------------------------- registry spec keys

TEST(PackedCoreCopSolver, RegistrySpecBuildsPackedSolver) {
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,pack=16");
  EXPECT_EQ(packed->name(), "ising-bsb-pack");
  EXPECT_TRUE(packed->batched());
  const auto plain = SolverRegistry::global().make_from_spec("prop");
  EXPECT_EQ(plain->name(), "ising-bsb");
  EXPECT_FALSE(plain->batched());
}

// --------------------------------------------------- end-to-end DALTA runs

// Both flows at R = 1, where every round's batch fails the slot gate and
// its members run as looped solves over the pool, and at R = 2, where the
// batch packs on every host (pack_runs_total tells the two apart).
TEST(DaltaPacked, RunDaltaBitIdenticalWithPackedSolver) {
  const TruthTable exact = make_benchmark_table("exp", 8, 6);
  const InputDistribution dist = InputDistribution::uniform(8);
  DaltaParams params;
  params.free_size = 3;
  params.num_partitions = 4;
  params.rounds = 1;
  params.seed = 42;

  for (const std::string replicas : {"1", "2"}) {
    SCOPED_TRACE("replicas=" + replicas);
    const std::string spec = "prop,n=8,replicas=" + replicas;
    const auto plain = SolverRegistry::global().make_from_spec(spec);
    const auto packed =
        SolverRegistry::global().make_from_spec(spec + ",pack=4");
    const auto a = run_dalta(exact, dist, params, *plain);
    MetricsRegistry::Counter& pack_runs =
        MetricsRegistry::global().counter("pack_runs_total");
    const std::uint64_t runs_before = pack_runs.value();
    RunContext::Options opts;
    opts.seed = params.seed;
    opts.metrics = true;
    const auto b = run_dalta(exact, dist, params, *packed, RunContext(opts));
    EXPECT_EQ(pack_runs.value() > runs_before, replicas == "2");

    EXPECT_EQ(a.med, b.med);
    EXPECT_EQ(a.error_rate, b.error_rate);
    EXPECT_EQ(a.cop_solves, b.cop_solves);
    EXPECT_EQ(a.solver_iterations, b.solver_iterations);
    for (std::uint64_t x = 0; x < exact.num_patterns(); ++x) {
      ASSERT_EQ(a.approx.word(x), b.approx.word(x)) << "pattern " << x;
    }
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (std::size_t k = 0; k < a.outputs.size(); ++k) {
      EXPECT_EQ(a.outputs[k].objective, b.outputs[k].objective);
    }
  }
}

TEST(DaltaPacked, RunDaltaNdBitIdenticalWithPackedSolver) {
  const TruthTable exact = make_benchmark_table("exp", 8, 6);
  const InputDistribution dist = InputDistribution::uniform(8);
  NdDaltaParams params;
  params.free_size = 3;
  params.shared_size = 1;
  params.num_partitions = 3;
  params.rounds = 1;
  params.seed = 42;

  for (const std::string replicas : {"1", "2"}) {
    SCOPED_TRACE("replicas=" + replicas);
    const std::string spec = "prop,n=8,replicas=" + replicas;
    const auto plain = SolverRegistry::global().make_from_spec(spec);
    const auto packed =
        SolverRegistry::global().make_from_spec(spec + ",pack=6");
    const auto a = run_dalta_nd(exact, dist, params, *plain);
    MetricsRegistry::Counter& pack_runs =
        MetricsRegistry::global().counter("pack_runs_total");
    const std::uint64_t runs_before = pack_runs.value();
    RunContext::Options opts;
    opts.seed = params.seed;
    opts.metrics = true;
    const auto b =
        run_dalta_nd(exact, dist, params, *packed, RunContext(opts));
    EXPECT_EQ(pack_runs.value() > runs_before, replicas == "2");

    EXPECT_EQ(a.med, b.med);
    EXPECT_EQ(a.error_rate, b.error_rate);
    EXPECT_EQ(a.cop_solves, b.cop_solves);
    EXPECT_EQ(a.solver_iterations, b.solver_iterations);
    for (std::uint64_t x = 0; x < exact.num_patterns(); ++x) {
      ASSERT_EQ(a.approx.word(x), b.approx.word(x)) << "pattern " << x;
    }
  }
}

}  // namespace
}  // namespace adsd
