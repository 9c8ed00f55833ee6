#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "boolean/boolean_matrix.hpp"
#include "boolean/decomposition.hpp"
#include "boolean/error_metrics.hpp"
#include "core/column_cop.hpp"
#include "core/cop_solvers.hpp"
#include "core/dalta.hpp"
#include "core/nondisjoint_dalta.hpp"
#include "core/partition_screen.hpp"
#include "core/solver_registry.hpp"
#include "funcs/continuous.hpp"
#include "funcs/registry.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"

namespace adsd {
namespace {

DaltaParams small_params(DecompMode mode) {
  DaltaParams p;
  p.free_size = 3;
  p.num_partitions = 6;
  p.rounds = 1;
  p.mode = mode;
  p.seed = 7;
  p.parallel = false;
  return p;
}

TruthTable exactly_decomposable_table(unsigned n, unsigned m,
                                      std::uint64_t seed) {
  Rng rng(seed);
  TruthTable tt(n, m);
  // Every output decomposes under the same trivial partition, which the
  // random candidate pool contains with high probability only by luck --
  // so build each output decomposable under *every* partition by making it
  // constant or a single-variable function.
  for (unsigned k = 0; k < m; ++k) {
    const unsigned var = static_cast<unsigned>(rng.next_below(n));
    BitVec bits(tt.num_patterns());
    for (std::uint64_t x = 0; x < tt.num_patterns(); ++x) {
      bits.set(x, (x >> var) & 1);
    }
    tt.set_output(k, bits);
  }
  return tt;
}

TEST(Dalta, SingleVariableOutputsDecomposeLosslessly) {
  // g_k(x) = x_v is decomposable under any partition (x_v lands in A or B);
  // the framework must find zero-error settings for every output.
  const auto exact = exactly_decomposable_table(7, 4, 11);
  const auto dist = InputDistribution::uniform(7);
  const auto solver = SolverRegistry::global().make_from_spec("prop,n=7");
  const auto res = run_dalta(exact, dist, small_params(DecompMode::kJoint),
                             *solver);
  EXPECT_DOUBLE_EQ(res.med, 0.0);
  EXPECT_DOUBLE_EQ(res.error_rate, 0.0);
  EXPECT_EQ(res.approx, exact);
}

TEST(Dalta, ReportedMedMatchesRecomputation) {
  const auto exact = make_continuous_table(continuous_spec("exp"), 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const AlternatingCoreSolver solver(4);
  const auto res =
      run_dalta(exact, dist, small_params(DecompMode::kJoint), solver);
  EXPECT_NEAR(res.med, mean_error_distance(exact, res.approx, dist), 1e-12);
  EXPECT_NEAR(res.error_rate, error_rate(exact, res.approx, dist), 1e-12);
}

TEST(Dalta, EveryOutputGetsASetting) {
  const auto exact = make_continuous_table(continuous_spec("cos"), 6, 5);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(4);
  const auto res =
      run_dalta(exact, dist, small_params(DecompMode::kSeparate), solver);
  ASSERT_EQ(res.outputs.size(), 5u);
  for (const auto& out : res.outputs) {
    EXPECT_EQ(out.partition.num_inputs(), 6u);
    EXPECT_EQ(out.setting.v1.size(), out.partition.num_rows());
    EXPECT_EQ(out.setting.t.size(), out.partition.num_cols());
  }
}

TEST(Dalta, ApproxOutputsRealizeChosenSettings) {
  const auto exact = make_continuous_table(continuous_spec("ln"), 6, 4);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(4);
  const auto res =
      run_dalta(exact, dist, small_params(DecompMode::kJoint), solver);
  for (unsigned k = 0; k < 4; ++k) {
    const BitVec expect =
        compose_output(res.outputs[k].setting, res.outputs[k].partition);
    EXPECT_EQ(res.approx.output(k), expect);
  }
}

TEST(Dalta, LutNetworkReproducesApproximation) {
  const auto exact = make_continuous_table(continuous_spec("erf"), 6, 5);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(4);
  const auto res =
      run_dalta(exact, dist, small_params(DecompMode::kJoint), solver);
  const auto net = res.to_lut_network();
  EXPECT_EQ(net.to_truth_table(), res.approx)
      << "hardware LUT evaluation must agree with the committed approximation";
  // Paper scheme: per-output saving from 2^6 = 64 bits to 2^3 + 2^4 = 24.
  EXPECT_LT(net.total_size_bits(), net.total_flat_size_bits());
}

TEST(Dalta, DeterministicAcrossParallelModes) {
  // The pool workers keep per-thread scratch (the T reset's costs, the
  // warm start's column words); the greedy and bSB solvers reach it, over
  // two rounds.
  const auto exact = make_continuous_table(continuous_spec("tan"), 6, 4);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver alternating(4);
  const auto greedy = SolverRegistry::global().make_from_spec("dalta");
  const auto prop = SolverRegistry::global().make_from_spec("prop,n=6");
  const std::vector<const CoreCopSolver*> solvers = {
      &alternating, greedy.get(), prop.get()};
  for (const CoreCopSolver* solver : solvers) {
    auto params = small_params(DecompMode::kJoint);
    params.rounds = 2;
    params.parallel = false;
    const auto serial = run_dalta(exact, dist, params, *solver);
    params.parallel = true;
    const auto parallel = run_dalta(exact, dist, params, *solver);
    EXPECT_EQ(serial.approx, parallel.approx)
        << solver->name()
        << ": partition evaluation order must not affect the result";
    EXPECT_EQ(serial.med, parallel.med) << solver->name();
  }
}

TEST(Dalta, MorePartitionsNeverHurtJointObjectiveMuch) {
  const auto exact = make_continuous_table(continuous_spec("exp"), 6, 6);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(4);
  auto few = small_params(DecompMode::kJoint);
  few.num_partitions = 2;
  auto many = small_params(DecompMode::kJoint);
  many.num_partitions = 12;
  const auto res_few = run_dalta(exact, dist, few, solver);
  const auto res_many = run_dalta(exact, dist, many, solver);
  // Not a strict guarantee (commits are greedy and sequential), but with
  // a 6x larger candidate pool the MED should not degrade noticeably.
  EXPECT_LE(res_many.med, res_few.med * 1.5 + 1e-9);
}

TEST(Dalta, SecondRoundDoesNotHurt) {
  const auto exact = make_continuous_table(continuous_spec("denoise"), 6, 6);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(4);
  auto one = small_params(DecompMode::kJoint);
  one.rounds = 1;
  auto two = small_params(DecompMode::kJoint);
  two.rounds = 2;
  const auto res1 = run_dalta(exact, dist, one, solver);
  const auto res2 = run_dalta(exact, dist, two, solver);
  // Round 2 keeps an output's incumbent unless a candidate beats it.
  EXPECT_LE(res2.med, res1.med);
}

/// One flow's committed decisions, read back from its QoR records.
struct Commit {
  std::size_t round;
  std::size_t output;
  double objective;   // committed setting's COP objective
  double error_rate;  // committed output bit vs the exact bit
};

std::vector<Commit> commits_of(const RunContext& ctx) {
  std::vector<Commit> out;
  const json::Value doc = json::parse(ctx.qor()->to_json());
  for (const json::Value& d : doc.at("decisions").as_array()) {
    out.push_back({static_cast<std::size_t>(d.at("round").as_number()),
                   static_cast<std::size_t>(d.at("output").as_number()),
                   d.at("best_objective").as_number(),
                   d.at("error_rate").as_number()});
  }
  return out;
}

TEST(Dalta, NewRoundNeverMakesAnOutputWorse) {
  // Per commit, from the second round on: in joint mode the committed
  // objective is the MED with the other outputs fixed (exact for the
  // uniform distribution), so the sequence never rises and ends at the
  // run's MED; in separate mode each output's error rate never rises.
  // Both flows, both modes, the bSB and the greedy core solver, with
  // P = 2 so that rounds often draw no better candidate.
  const auto exact = make_continuous_table(continuous_spec("tan"), 6, 6);
  const auto dist = InputDistribution::uniform(6);
  for (const char* spec : {"prop,n=6", "dalta"}) {
    const auto solver = SolverRegistry::global().make_from_spec(spec);
    for (const DecompMode mode : {DecompMode::kJoint, DecompMode::kSeparate}) {
      for (const bool nd : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          RunContext::Options opts;
          opts.seed = seed;
          opts.parallel = false;
          opts.qor = true;
          const RunContext ctx(opts);
          double med = 0.0;
          if (nd) {
            NdDaltaParams params;
            params.free_size = 2;
            params.shared_size = 1;
            params.num_partitions = 2;
            params.rounds = 4;
            params.mode = mode;
            params.parallel = false;
            med = run_dalta_nd(exact, dist, params, *solver, ctx).med;
          } else {
            DaltaParams params = small_params(mode);
            params.num_partitions = 2;
            params.rounds = 4;
            med = run_dalta(exact, dist, params, *solver, ctx).med;
          }
          const std::vector<Commit> commits = commits_of(ctx);
          ASSERT_EQ(commits.size(), 4u * 6u);
          const std::string where = std::string(spec) +
                                    (nd ? " nd" : " disjoint") +
                                    (mode == DecompMode::kJoint ? " joint"
                                                                : " separate") +
                                    " seed " + std::to_string(seed);
          std::vector<double> er(6, 2.0);
          for (std::size_t c = 0; c < commits.size(); ++c) {
            const Commit& now = commits[c];
            if (mode == DecompMode::kJoint && now.round >= 1) {
              EXPECT_LE(now.objective, commits[c - 1].objective + 1e-12)
                  << where << " round " << now.round << " output "
                  << now.output;
            }
            if (mode == DecompMode::kSeparate) {
              EXPECT_LE(now.error_rate, er[now.output] + 1e-12)
                  << where << " round " << now.round << " output "
                  << now.output;
              er[now.output] = now.error_rate;
            }
          }
          if (mode == DecompMode::kJoint) {
            EXPECT_NEAR(commits.back().objective, med, 1e-12) << where;
          }
        }
      }
    }
  }
}

TEST(Dalta, StatsAccounting) {
  const auto exact = make_continuous_table(continuous_spec("cos"), 6, 3);
  const auto dist = InputDistribution::uniform(6);
  const auto solver = SolverRegistry::global().make_from_spec("prop,n=6");
  auto params = small_params(DecompMode::kSeparate);
  params.rounds = 2;
  const auto res = run_dalta(exact, dist, params, *solver);
  // 3 outputs x 6 partitions x 2 rounds solves.
  EXPECT_EQ(res.cop_solves, 3u * 6u * 2u);
  EXPECT_GT(res.solver_iterations, 0u);
  EXPECT_GT(res.seconds, 0.0);
}

TEST(Dalta, SeparateModeMinimizesPerBitErrors) {
  const auto exact = make_continuous_table(continuous_spec("exp"), 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const AlternatingCoreSolver solver(6);
  const auto sep =
      run_dalta(exact, dist, small_params(DecompMode::kSeparate), solver);
  const auto joint =
      run_dalta(exact, dist, small_params(DecompMode::kJoint), solver);
  // The paper's qualitative claim: joint mode yields smaller MED because it
  // respects bit significance. The commits are greedy, so allow slack for
  // small instances rather than asserting strict dominance.
  EXPECT_LE(joint.med, sep.med * 1.10 + 0.25);
}

TEST(Dalta, PartitionScreeningIsDeterministicAndRarelyWorse) {
  const auto exact = make_continuous_table(continuous_spec("exp"), 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const AlternatingCoreSolver solver(4);

  auto base = small_params(DecompMode::kJoint);
  base.num_partitions = 4;
  auto screened = base;
  screened.screen_factor = 6;

  const auto r_scr1 = run_dalta(exact, dist, screened, solver);
  const auto r_scr2 = run_dalta(exact, dist, screened, solver);
  EXPECT_EQ(r_scr1.approx, r_scr2.approx) << "screening must be deterministic";
  // Same solver budget either way: P solves per output.
  EXPECT_EQ(r_scr1.cop_solves, run_dalta(exact, dist, base, solver).cop_solves);

  // Low-multiplicity partitions approximate better on smooth functions.
  // "Rarely worse" is a property of the seed distribution, not of any one
  // draw, so compare mean MED across several seeds.
  double med_base = 0.0;
  double med_scr = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    base.seed = seed;
    screened.seed = seed;
    med_base += run_dalta(exact, dist, base, solver).med;
    med_scr += run_dalta(exact, dist, screened, solver).med;
  }
  EXPECT_LE(med_scr, med_base * 1.05 + 1e-9);
}

TEST(Dalta, ScreenFactorOneMatchesDefault) {
  const auto exact = make_continuous_table(continuous_spec("cos"), 6, 4);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(4);
  auto a = small_params(DecompMode::kJoint);
  auto b = a;
  b.screen_factor = 1;
  const auto ra = run_dalta(exact, dist, a, solver);
  const auto rb = run_dalta(exact, dist, b, solver);
  EXPECT_EQ(ra.approx, rb.approx);
}

TEST(PartitionScreen, MultiplicityMatchesMatrix) {
  // Theorem 2 is the oracle: the multiplicity is the number of distinct
  // columns of the output's matrix. n = 16 with 7 and 9 free inputs packs
  // each column into two and eight words.
  struct Case {
    const char* function;
    unsigned n;
    unsigned output;
    unsigned free_size;
  };
  Rng rng(29);
  for (const Case& c : {Case{"exp", 7, 5, 3}, Case{"exp", 16, 9, 7},
                        Case{"cos", 16, 3, 9}}) {
    const auto tt = make_benchmark_table(c.function, c.n, c.n);
    const PartitionScreener screener(tt.output(c.output), c.n);
    for (int trial = 0; trial < 10; ++trial) {
      const auto w = InputPartition::random(c.n, c.free_size, rng);
      const auto matrix = BooleanMatrix::from_function(tt, c.output, w);
      EXPECT_EQ(screener.multiplicity(w), matrix.distinct_columns().size())
          << c.function << " n=" << c.n << " free=" << c.free_size;
    }
  }
  const PartitionScreener narrow(BitVec(32), 5);
  EXPECT_THROW((void)narrow.multiplicity(InputPartition::trivial(6, 3)),
               std::invalid_argument);
  EXPECT_THROW(PartitionScreener(BitVec(31), 5), std::invalid_argument);
}

TEST(PartitionScreen, KeepsLowestMultiplicityCandidates) {
  Rng rng(31);
  const auto tt = make_benchmark_table("cos", 7, 7);
  const PartitionScreener screener(tt.output(6), 7);
  std::vector<InputPartition> candidates;
  for (int i = 0; i < 12; ++i) {
    candidates.push_back(InputPartition::random(7, 3, rng));
  }
  const auto kept = screener.screen(candidates, 3);
  ASSERT_EQ(kept.size(), 3u);
  std::size_t worst_kept = 0;
  for (const auto& w : kept) {
    worst_kept = std::max(worst_kept, screener.multiplicity(w));
  }
  // No discarded candidate may beat the worst kept one.
  std::size_t best_possible = 1000;
  for (const auto& w : candidates) {
    best_possible = std::min(best_possible, screener.multiplicity(w));
  }
  EXPECT_LE(screener.multiplicity(kept.front()), worst_kept);
  EXPECT_EQ(screener.multiplicity(kept.front()), best_possible);
}

TEST(PartitionScreen, KeepAllWhenBudgetCoversCandidates) {
  Rng rng(37);
  const auto tt = make_benchmark_table("erf", 6, 6);
  const PartitionScreener screener(tt.output(0), 6);
  std::vector<InputPartition> candidates;
  for (int i = 0; i < 4; ++i) {
    candidates.push_back(InputPartition::random(6, 3, rng));
  }
  EXPECT_EQ(screener.screen(candidates, 10).size(), 4u);
}

TEST(Dalta, RejectsBadParameters) {
  const auto exact = make_continuous_table(continuous_spec("cos"), 6, 3);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(2);
  auto params = small_params(DecompMode::kJoint);
  params.free_size = 0;
  EXPECT_THROW((void)run_dalta(exact, dist, params, solver),
               std::invalid_argument);
  params = small_params(DecompMode::kJoint);
  params.free_size = 6;
  EXPECT_THROW((void)run_dalta(exact, dist, params, solver),
               std::invalid_argument);
  params = small_params(DecompMode::kJoint);
  params.num_partitions = 0;
  EXPECT_THROW((void)run_dalta(exact, dist, params, solver),
               std::invalid_argument);
  const auto dist5 = InputDistribution::uniform(5);
  EXPECT_THROW(
      (void)run_dalta(exact, dist5, small_params(DecompMode::kJoint), solver),
      std::invalid_argument);
}

// ------------------------------------- batched solver (prop,pack=K)

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
  std::vector<ColumnCop> small;  // 64 spins each
  for (unsigned k = 0; k < 6; ++k) {
    small.push_back(benchmark_cop(k % 7, k));
  }
  std::vector<ColumnCop> large;  // 384 spins each
  for (unsigned k = 0; k < 4; ++k) {
    large.push_back(benchmark_cop(k, k, 14, 6));
  }
  ASSERT_EQ(large[0].num_spins(), 384u);
  // Every member of a batch runs the standalone solve over the pool, so
  // each result matches IsingCoreSolver bit for bit. Theorem-3 + dynamic
  // stop are on by default; the restart counts exercise the per-attempt
  // reseed and the cold starts after the warm one.
  struct Case {
    std::string keys;
    const std::vector<ColumnCop>* cops;
  };
  for (const Case& c :
       {Case{"", &small}, Case{",restarts=2", &small},
        Case{",restarts=4", &small},
        Case{",restarts=2,max-iter=300", &large}}) {
    const auto plain =
        SolverRegistry::global().make_from_spec("prop,n=9" + c.keys);
    const auto packed = SolverRegistry::global().make_from_spec(
        "prop,n=9,pack=3" + c.keys);
    const std::vector<ColumnCop>& cops = *c.cops;
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < cops.size(); ++i) {
      seeds.push_back(1000 + 17 * i);
    }
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
          << "config '" << c.keys << "' instance " << i;
      EXPECT_EQ(ref_stats.objective, packed_stats[i].objective) << c.keys;
      EXPECT_EQ(ref_stats.iterations, packed_stats[i].iterations) << c.keys;
      EXPECT_EQ(ref_stats.stopped_early, packed_stats[i].stopped_early)
          << c.keys;
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

TEST(PackedCoreCopSolver, RegistrySpecBuildsPackedSolver) {
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,pack=16");
  EXPECT_EQ(packed->name(), "ising-bsb-pack");
  EXPECT_TRUE(packed->batched());
  const auto plain = SolverRegistry::global().make_from_spec("prop");
  EXPECT_EQ(plain->name(), "ising-bsb");
  EXPECT_FALSE(plain->batched());
}

// Both flows through the batched solver, with one and two restarts: one
// solve_batch call per round, every member the standalone solve, so the
// whole run is bit-identical.
TEST(DaltaPacked, RunDaltaBitIdenticalWithPackedSolver) {
  const TruthTable exact = make_benchmark_table("exp", 8, 6);
  const InputDistribution dist = InputDistribution::uniform(8);
  DaltaParams params;
  params.free_size = 3;
  params.num_partitions = 4;
  params.rounds = 1;
  params.seed = 42;

  for (const std::string restarts : {"1", "2"}) {
    SCOPED_TRACE("restarts=" + restarts);
    const std::string spec = "prop,n=8,restarts=" + restarts;
    const auto plain = SolverRegistry::global().make_from_spec(spec);
    const auto packed =
        SolverRegistry::global().make_from_spec(spec + ",pack=4");
    const auto a = run_dalta(exact, dist, params, *plain);
    RunContext::Options opts;
    opts.seed = params.seed;
    const auto b = run_dalta(exact, dist, params, *packed, RunContext(opts));

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

  for (const std::string restarts : {"1", "2"}) {
    SCOPED_TRACE("restarts=" + restarts);
    const std::string spec = "prop,n=8,restarts=" + restarts;
    const auto plain = SolverRegistry::global().make_from_spec(spec);
    const auto packed =
        SolverRegistry::global().make_from_spec(spec + ",pack=6");
    const auto a = run_dalta_nd(exact, dist, params, *plain);
    RunContext::Options opts;
    opts.seed = params.seed;
    const auto b =
        run_dalta_nd(exact, dist, params, *packed, RunContext(opts));

    EXPECT_EQ(a.med, b.med);
    EXPECT_EQ(a.error_rate, b.error_rate);
    EXPECT_EQ(a.cop_solves, b.cop_solves);
    EXPECT_EQ(a.solver_iterations, b.solver_iterations);
    for (std::uint64_t x = 0; x < exact.num_patterns(); ++x) {
      ASSERT_EQ(a.approx.word(x), b.approx.word(x)) << "pattern " << x;
    }
  }
}

/// Passes every solve through to `inner` but reports a wrong objective,
/// and does not claim that its objective is the returned setting's: the
/// flows must score every candidate again, and then end exactly where
/// `inner` alone does.
class RescoredSolver final : public CoreCopSolver {
 public:
  explicit RescoredSolver(const CoreCopSolver& inner) : inner_(inner) {}

  std::string name() const override { return "rescored/" + inner_.name(); }

 protected:
  ColumnSetting do_solve(const ColumnCop& cop, const RunContext& ctx,
                         std::uint64_t seed,
                         CoreSolveStats* stats) const override {
    ColumnSetting s = inner_.solve(cop, ctx, seed, stats);
    stats->objective = 1e300;
    return s;
  }

 private:
  const CoreCopSolver& inner_;
};

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Dalta, ScoreOnceMatchesRescoring) {
  // Solvers whose stats objective is their setting's objective() are not
  // scored again; the flow must end exactly where re-scoring every
  // candidate ends: the same outputs, objectives, MED and counters, in
  // both modes and over one and two rounds.
  struct Case {
    const char* spec;
    unsigned n;
    unsigned free;
  };
  for (const Case& cs : {Case{"dalta", 8, 3}, Case{"dalta-lit", 8, 3},
                         Case{"ba", 8, 3}, Case{"exhaustive", 5, 2}}) {
    const auto solver = SolverRegistry::global().make_from_spec(cs.spec);
    ASSERT_TRUE(solver->scores_returned_setting()) << cs.spec;
    const RescoredSolver rescored(*solver);
    ASSERT_FALSE(rescored.scores_returned_setting());
    const TruthTable exact =
        make_continuous_table(continuous_spec("exp"), cs.n, cs.n - 2);
    const InputDistribution dist = InputDistribution::uniform(cs.n);
    for (const DecompMode mode : {DecompMode::kJoint, DecompMode::kSeparate}) {
      for (const std::size_t rounds : {1u, 2u}) {
        SCOPED_TRACE(std::string(cs.spec) +
                     (mode == DecompMode::kJoint ? " joint" : " separate") +
                     " rounds=" + std::to_string(rounds));
        DaltaParams params = small_params(mode);
        params.free_size = cs.free;
        params.num_partitions = 4;
        params.rounds = rounds;
        const DaltaResult a = run_dalta(exact, dist, params, *solver);
        const DaltaResult b = run_dalta(exact, dist, params, rescored);
        EXPECT_EQ(a.approx, b.approx);
        EXPECT_TRUE(same_double(a.med, b.med));
        EXPECT_TRUE(same_double(a.error_rate, b.error_rate));
        EXPECT_EQ(a.cop_solves, b.cop_solves);
        EXPECT_EQ(a.solver_iterations, b.solver_iterations);
        EXPECT_EQ(a.early_stops, b.early_stops);
        ASSERT_EQ(a.outputs.size(), b.outputs.size());
        for (std::size_t k = 0; k < a.outputs.size(); ++k) {
          EXPECT_TRUE(a.outputs[k].partition == b.outputs[k].partition) << k;
          EXPECT_EQ(a.outputs[k].setting.v1, b.outputs[k].setting.v1) << k;
          EXPECT_EQ(a.outputs[k].setting.v2, b.outputs[k].setting.v2) << k;
          EXPECT_EQ(a.outputs[k].setting.t, b.outputs[k].setting.t) << k;
          EXPECT_TRUE(
              same_double(a.outputs[k].objective, b.outputs[k].objective))
              << k;
        }
      }
    }
  }
}

TEST(NdDalta, ScoreOnceMatchesRescoring) {
  // run_dalta_nd sums its slices' stats objectives for solvers that score
  // their settings, and must end where re-scoring every slice ends.
  const TruthTable exact = make_continuous_table(continuous_spec("exp"), 8, 6);
  const InputDistribution dist = InputDistribution::uniform(8);
  for (const char* spec : {"dalta", "dalta-lit"}) {
    const auto solver = SolverRegistry::global().make_from_spec(spec);
    const RescoredSolver rescored(*solver);
    for (const DecompMode mode : {DecompMode::kJoint, DecompMode::kSeparate}) {
      for (const std::size_t rounds : {1u, 2u}) {
        SCOPED_TRACE(std::string(spec) +
                     (mode == DecompMode::kJoint ? " joint" : " separate") +
                     " rounds=" + std::to_string(rounds));
        NdDaltaParams params;
        params.free_size = 3;
        params.shared_size = 1;
        params.num_partitions = 4;
        params.rounds = rounds;
        params.mode = mode;
        params.seed = 11;
        params.parallel = false;
        const NdDaltaResult a = run_dalta_nd(exact, dist, params, *solver);
        const NdDaltaResult b = run_dalta_nd(exact, dist, params, rescored);
        EXPECT_EQ(a.approx, b.approx);
        EXPECT_TRUE(same_double(a.med, b.med));
        EXPECT_TRUE(same_double(a.error_rate, b.error_rate));
        EXPECT_EQ(a.cop_solves, b.cop_solves);
        EXPECT_EQ(a.solver_iterations, b.solver_iterations);
        ASSERT_EQ(a.outputs.size(), b.outputs.size());
        for (std::size_t k = 0; k < a.outputs.size(); ++k) {
          const auto& pa = a.outputs[k].partition;
          const auto& pb = b.outputs[k].partition;
          EXPECT_EQ(pa.free_vars(), pb.free_vars()) << k;
          EXPECT_EQ(pa.bound_vars(), pb.bound_vars()) << k;
          EXPECT_EQ(pa.shared_vars(), pb.shared_vars()) << k;
          const auto& sa = a.outputs[k].setting.slices;
          const auto& sb = b.outputs[k].setting.slices;
          ASSERT_EQ(sa.size(), sb.size()) << k;
          for (std::size_t sl = 0; sl < sa.size(); ++sl) {
            EXPECT_EQ(sa[sl].v1, sb[sl].v1) << k << "/" << sl;
            EXPECT_EQ(sa[sl].v2, sb[sl].v2) << k << "/" << sl;
            EXPECT_EQ(sa[sl].t, sb[sl].t) << k << "/" << sl;
          }
          EXPECT_TRUE(
              same_double(a.outputs[k].objective, b.outputs[k].objective))
              << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace adsd
