#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "boolean/boolean_matrix.hpp"
#include "boolean/decomposition.hpp"
#include "boolean/truth_table.hpp"
#include "core/column_cop.hpp"
#include "core/cop_solvers.hpp"
#include "core/row_ilp.hpp"
#include "core/solver_registry.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"

namespace adsd {
namespace {

// Registry-built solver: the construction path used everywhere outside
// the per-class unit tests (direct Options construction stays reserved
// for testing the options structs themselves).
std::unique_ptr<CoreCopSolver> reg(const std::string& spec) {
  return SolverRegistry::global().make_from_spec(spec);
}

BooleanMatrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  BooleanMatrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      m.set(i, j, rng.next_bool());
    }
  }
  return m;
}

std::vector<double> uniform_probs(std::size_t r, std::size_t c) {
  return std::vector<double>(r * c, 1.0 / static_cast<double>(r * c));
}

ColumnCop small_separate_cop(Rng& rng, std::size_t r = 4, std::size_t c = 8) {
  const auto m = random_matrix(r, c, rng);
  return ColumnCop::separate(m, uniform_probs(r, c));
}

// ----------------------------------------------------------- Exhaustive

TEST(ExhaustiveCore, RejectsLargeInstances) {
  Rng rng(1);
  const auto m = random_matrix(16, 16, rng);  // 48 spins
  const auto cop = ColumnCop::separate(m, uniform_probs(16, 16));
  const ExhaustiveCoreSolver solver;
  EXPECT_THROW((void)solver.solve(cop, 0, nullptr), std::invalid_argument);
}

TEST(ExhaustiveCore, ZeroErrorOnDecomposableMatrix) {
  Rng rng(2);
  const auto w = InputPartition::trivial(6, 2);
  TruthTable tt(6, 1);
  tt.set_output(0, random_decomposable_output(w, rng));
  const auto m = BooleanMatrix::from_function(tt, 0, w);
  const auto cop = ColumnCop::separate(m, uniform_probs(4, 16));
  const ExhaustiveCoreSolver solver;
  CoreSolveStats stats;
  (void)solver.solve(cop, 0, &stats);
  EXPECT_NEAR(stats.objective, 0.0, 1e-15);
  EXPECT_TRUE(stats.proven_optimal);
}

// ---------------------------------------------------- Heuristic solvers

TEST(AlternatingCore, NeverWorseThanSingleStart) {
  Rng rng(3);
  const auto cop = small_separate_cop(rng);
  const AlternatingCoreSolver one(1);
  const AlternatingCoreSolver many(16);
  CoreSolveStats s1;
  CoreSolveStats s16;
  (void)one.solve(cop, 7, &s1);
  (void)many.solve(cop, 7, &s16);
  EXPECT_LE(s16.objective, s1.objective + 1e-12);
}

TEST(AlternatingCore, ReachesOptimumOnTinyInstances) {
  Rng rng(4);
  int optimal_hits = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto m = random_matrix(3, 4, rng);
    const auto cop = ColumnCop::separate(m, uniform_probs(3, 4));
    const ExhaustiveCoreSolver exact;
    CoreSolveStats es;
    (void)exact.solve(cop, 0, &es);
    const AlternatingCoreSolver alt(16);
    CoreSolveStats as;
    (void)alt.solve(cop, static_cast<std::uint64_t>(trial), &as);
    EXPECT_GE(as.objective, es.objective - 1e-12);
    optimal_hits += std::fabs(as.objective - es.objective) < 1e-12;
  }
  EXPECT_GE(optimal_hits, 8);
}

TEST(HeuristicCore, ZeroErrorOnDecomposableMatrix) {
  Rng rng(5);
  const auto w = InputPartition::trivial(7, 3);
  TruthTable tt(7, 1);
  tt.set_output(0, random_decomposable_output(w, rng));
  const auto m = BooleanMatrix::from_function(tt, 0, w);
  const auto cop =
      ColumnCop::separate(m, uniform_probs(m.rows(), m.cols()));
  const HeuristicCoreSolver solver;
  CoreSolveStats stats;
  (void)solver.solve(cop, 0, &stats);
  // The two most frequent distinct columns ARE the two patterns here.
  EXPECT_NEAR(stats.objective, 0.0, 1e-15);
}

TEST(HeuristicCore, ReturnsValidSetting) {
  Rng rng(6);
  const auto cop = small_separate_cop(rng, 8, 16);
  const HeuristicCoreSolver solver;
  const auto s = solver.solve(cop, 0, nullptr);
  EXPECT_EQ(s.v1.size(), 8u);
  EXPECT_EQ(s.v2.size(), 8u);
  EXPECT_EQ(s.t.size(), 16u);
  EXPECT_GE(cop.objective(s), cop.ideal_bound() - 1e-12);
}

TEST(HeuristicCore, StatsObjectiveIsTheSettingsObjective) {
  // The greedy solver reports the objective its last sweep computed for
  // the setting it returns, bit for bit what objective() recomputes, at
  // every sweep budget (0 scores the one-shot setting directly).
  Rng rng(404);
  for (const char* spec :
       {"dalta", "dalta-lit", "dalta,sweeps=1", "dalta,sweeps=64"}) {
    const auto solver = reg(spec);
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t r = std::size_t{1} << (1 + rng.next_below(7));
      const std::size_t c = std::size_t{1} << (1 + rng.next_below(7));
      std::vector<double> probs(r * c);
      std::vector<double> d(r * c);
      for (std::size_t idx = 0; idx < r * c; ++idx) {
        probs[idx] = rng.next_double(0.0, 1.0);
        d[idx] = static_cast<double>(static_cast<int>(rng.next_below(33)) - 16);
      }
      const auto m = random_matrix(r, c, rng);
      for (const ColumnCop& cop : {ColumnCop::separate(m, probs),
                                   ColumnCop::joint(m, probs, d, 4.0)}) {
        CoreSolveStats stats;
        const ColumnSetting s = solver->solve(cop, trial, &stats);
        const double want = cop.objective(s);
        EXPECT_EQ(std::memcmp(&stats.objective, &want, sizeof(double)), 0)
            << spec << " r=" << r << " c=" << c << ": " << stats.objective
            << " vs " << want;
      }
    }
  }
}

TEST(AlternatingCore, IterationsCountTheSweepsThatRan) {
  // alt and dalta report the sweeps their fixpoint loops ran, not their
  // caps (alt's default is 8 restarts of up to 64 sweeps: 512); the
  // one-shot dalta-lit runs no sweep.
  Rng rng(8);
  for (int trial = 0; trial < 8; ++trial) {
    const ColumnCop cop = small_separate_cop(rng, 8, 16);
    CoreSolveStats alt;
    (void)reg("alt")->solve(cop, 1, &alt);
    EXPECT_GE(alt.iterations, 8u);
    EXPECT_LT(alt.iterations, 8u * 64u);

    ColumnSetting s;
    std::tie(s.v1, s.v2) = dominant_column_pair(cop.exact_matrix());
    s.t = BitVec(cop.cols());
    const FixpointRun run = alternate_to_fixpoint(cop, s, 4);
    CoreSolveStats greedy;
    (void)reg("dalta")->solve(cop, 1, &greedy);
    EXPECT_EQ(greedy.iterations, run.sweeps);
    EXPECT_GE(greedy.iterations, 1u);
    EXPECT_LE(greedy.iterations, 4u);

    CoreSolveStats lit;
    (void)reg("dalta-lit")->solve(cop, 1, &lit);
    EXPECT_EQ(lit.iterations, 0u);
  }
}

TEST(CoreSolvers, ScoringClaimsHoldBitForBit) {
  // The solvers that claim their stats objective is objective() of the
  // returned setting (so DALTA does not score it again) report exactly
  // that; prop and alt, which report a loop's best, make no claim.
  Rng rng(9);
  for (const char* spec : {"dalta", "dalta-lit", "ba", "exhaustive"}) {
    const auto solver = reg(spec);
    EXPECT_TRUE(solver->scores_returned_setting()) << spec;
    for (int trial = 0; trial < 6; ++trial) {
      const ColumnCop cop = small_separate_cop(rng, 4, 8);
      CoreSolveStats stats;
      const ColumnSetting s = solver->solve(cop, 3, &stats);
      const double want = cop.objective(s);
      EXPECT_EQ(std::memcmp(&stats.objective, &want, sizeof(double)), 0)
          << spec;
    }
  }
  for (const char* spec : {"prop", "alt", "ilp"}) {
    EXPECT_FALSE(reg(spec)->scores_returned_setting()) << spec;
  }
}

TEST(CoreSolvers, CopOnlyClaimsHoldBitForBit) {
  // DALTA copies a repeated partition's result when the solver claims that
  // it depends on the COP alone, so a claiming spec must return the same
  // setting and stats, bit for bit, under every seed and context: serial,
  // pooled, and with a deadline. A seeded spec that claimed it would have
  // its repeats copied instead of solved under their own seeds.
  Rng rng(12);
  RunContext::Options serial;
  serial.parallel = false;
  RunContext::Options pooled;
  pooled.threads = 4;
  RunContext::Options budgeted;
  budgeted.time_budget_s = 60.0;
  const RunContext serial_ctx(serial);
  const RunContext pooled_ctx(pooled);
  const RunContext budgeted_ctx(budgeted);
  const RunContext* const contexts[] = {&serial_ctx, &pooled_ctx,
                                        &budgeted_ctx};
  for (const char* spec : {"dalta", "dalta-lit", "exhaustive"}) {
    const auto solver = reg(spec);
    EXPECT_TRUE(solver->depends_only_on_cop()) << spec;
    for (int trial = 0; trial < 4; ++trial) {
      const ColumnCop cop = small_separate_cop(rng, 4, 8);
      CoreSolveStats want;
      const ColumnSetting first = solver->solve(cop, serial_ctx, 1, &want);
      for (const RunContext* ctx : contexts) {
        for (const std::uint64_t seed : {1u, 2u, 77u, 1u << 20}) {
          CoreSolveStats stats;
          const ColumnSetting s = solver->solve(cop, *ctx, seed, &stats);
          EXPECT_EQ(s.v1, first.v1) << spec << " seed " << seed;
          EXPECT_EQ(s.v2, first.v2) << spec << " seed " << seed;
          EXPECT_EQ(s.t, first.t) << spec << " seed " << seed;
          EXPECT_EQ(std::memcmp(&stats.objective, &want.objective,
                                sizeof(double)),
                    0)
              << spec;
          EXPECT_EQ(stats.iterations, want.iterations) << spec;
          EXPECT_EQ(stats.stopped_early, want.stopped_early) << spec;
          EXPECT_EQ(stats.proven_optimal, want.proven_optimal) << spec;
        }
      }
    }
  }
  for (const char* spec :
       {"prop", "prop,pack=4", "sa", "doch", "alt", "ba", "ilp"}) {
    EXPECT_FALSE(reg(spec)->depends_only_on_cop()) << spec;
  }
}

TEST(AnnealCore, IncrementalDeltasConsistent) {
  // The solver verifies its tracked objective at the end; a mismatch in the
  // incremental deltas would surface as a suboptimal reported objective.
  Rng rng(7);
  const auto cop = small_separate_cop(rng, 5, 9);
  const AnnealCoreSolver solver;
  CoreSolveStats stats;
  const auto s = solver.solve(cop, 3, &stats);
  EXPECT_NEAR(stats.objective, cop.objective(s), 1e-12);
}

TEST(AnnealCore, NearOptimalOnTinyInstances) {
  Rng rng(8);
  for (int trial = 0; trial < 5; ++trial) {
    const auto m = random_matrix(3, 4, rng);
    const auto cop = ColumnCop::separate(m, uniform_probs(3, 4));
    const ExhaustiveCoreSolver exact;
    CoreSolveStats es;
    (void)exact.solve(cop, 0, &es);
    AnnealCoreSolver::Options opt;
    opt.sweeps = 200;
    opt.restarts = 3;
    const AnnealCoreSolver solver(opt);
    CoreSolveStats as;
    (void)solver.solve(cop, static_cast<std::uint64_t>(trial), &as);
    EXPECT_GE(as.objective, es.objective - 1e-12);
    EXPECT_LE(as.objective, es.objective + 0.15);
  }
}

// ------------------------------------------------------------ B&B (ILP)

TEST(BnbCore, ExactOnSmallInstances) {
  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    const auto m = random_matrix(3, 5, rng);
    const auto cop = ColumnCop::separate(m, uniform_probs(3, 5));
    const ExhaustiveCoreSolver exact;
    CoreSolveStats es;
    (void)exact.solve(cop, 0, &es);
    BnbCoreSolver::Options opt;
    opt.time_budget_s = 0.0;  // run to proven optimality
    const BnbCoreSolver bnb(opt);
    CoreSolveStats bs;
    (void)bnb.solve(cop, static_cast<std::uint64_t>(trial), &bs);
    EXPECT_NEAR(bs.objective, es.objective, 1e-12);
    EXPECT_TRUE(bs.proven_optimal);
  }
}

TEST(BnbCore, ExactOnJointInstances) {
  Rng rng(10);
  const auto m = random_matrix(4, 4, rng);
  std::vector<double> d(16);
  for (auto& v : d) {
    v = std::floor(rng.next_double(-6.0, 6.0));
  }
  const auto cop = ColumnCop::joint(m, uniform_probs(4, 4), d, 4.0);
  const ExhaustiveCoreSolver exact;
  CoreSolveStats es;
  (void)exact.solve(cop, 0, &es);
  BnbCoreSolver::Options opt;
  opt.time_budget_s = 0.0;
  const BnbCoreSolver bnb(opt);
  CoreSolveStats bs;
  (void)bnb.solve(cop, 1, &bs);
  EXPECT_NEAR(bs.objective, es.objective, 1e-12);
}

TEST(BnbCore, AnytimeReturnsWarmIncumbentUnderTinyBudget) {
  Rng rng(11);
  const auto cop = small_separate_cop(rng, 8, 20);
  BnbCoreSolver::Options opt;
  opt.time_budget_s = 1e-9;
  const BnbCoreSolver bnb(opt);
  CoreSolveStats stats;
  const auto s = bnb.solve(cop, 5, &stats);
  EXPECT_NEAR(stats.objective, cop.objective(s), 1e-12);
  EXPECT_FALSE(stats.proven_optimal);
}

TEST(BnbCore, MatchesExhaustiveAcrossSeeds) {
  Rng rng(12);
  for (int trial = 0; trial < 5; ++trial) {
    const auto m = random_matrix(4, 6, rng);  // 14 spins: exhaustive ok
    const auto cop = ColumnCop::separate(m, uniform_probs(4, 6));
    const ExhaustiveCoreSolver exact;
    CoreSolveStats es;
    (void)exact.solve(cop, 0, &es);
    BnbCoreSolver::Options opt;
    opt.time_budget_s = 0.0;
    const BnbCoreSolver bnb(opt);
    CoreSolveStats bs;
    (void)bnb.solve(cop, static_cast<std::uint64_t>(trial), &bs);
    EXPECT_NEAR(bs.objective, es.objective, 1e-12);
  }
}

// ------------------------------------------------------------ Ising/bSB

TEST(IsingCore, PaperDefaultsMatchPaperParameters) {
  const auto small = IsingCoreSolver::Options::paper_defaults(9);
  EXPECT_EQ(small.sb.stop.sample_interval, 20u);
  EXPECT_EQ(small.sb.stop.window, 20u);
  EXPECT_DOUBLE_EQ(small.sb.stop.epsilon, 1e-8);
  const auto large = IsingCoreSolver::Options::paper_defaults(16);
  EXPECT_EQ(large.sb.stop.sample_interval, 10u);
  EXPECT_EQ(large.sb.stop.window, 10u);
}

TEST(IsingCore, ZeroErrorOnDecomposableMatrix) {
  Rng rng(13);
  const auto w = InputPartition::trivial(7, 3);
  TruthTable tt(7, 1);
  tt.set_output(0, random_decomposable_output(w, rng));
  const auto m = BooleanMatrix::from_function(tt, 0, w);
  const auto cop =
      ColumnCop::separate(m, uniform_probs(m.rows(), m.cols()));
  const auto solver = reg("prop,n=7");
  CoreSolveStats stats;
  (void)solver->solve(cop, 42, &stats);
  EXPECT_NEAR(stats.objective, 0.0, 1e-15)
      << "bSB must recover an exact decomposition when one exists";
}

TEST(IsingCore, NearOptimalOnTinyInstances) {
  Rng rng(14);
  int hits = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto m = random_matrix(3, 5, rng);
    const auto cop = ColumnCop::separate(m, uniform_probs(3, 5));
    const ExhaustiveCoreSolver exact;
    CoreSolveStats es;
    (void)exact.solve(cop, 0, &es);
    const auto solver = reg("prop,n=4");
    CoreSolveStats is;
    (void)solver->solve(cop, static_cast<std::uint64_t>(trial), &is);
    EXPECT_GE(is.objective, es.objective - 1e-12);
    hits += std::fabs(is.objective - es.objective) < 1e-12;
  }
  EXPECT_GE(hits, 8);
}

TEST(IsingCore, DynamicStopReducesIterations) {
  Rng rng(15);
  const auto cop = small_separate_cop(rng, 8, 16);
  const std::string base =
      "prop,max-iter=50000,stop-interval=20,stop-window=20,"
      "stop-epsilon=1e-8";
  CoreSolveStats s_with;
  CoreSolveStats s_without;
  (void)reg(base + ",stop=1")->solve(cop, 1, &s_with);
  (void)reg(base + ",stop=0")->solve(cop, 1, &s_without);
  EXPECT_TRUE(s_with.stopped_early);
  EXPECT_LT(s_with.iterations, s_without.iterations);
  EXPECT_EQ(s_without.iterations, 50000u);
}

TEST(IsingCore, Theorem3InterventionHelpsOnStructuredInstances) {
  // Noisy decomposable matrices: a planted two-pattern structure with a few
  // flipped cells. These have the long flat basins where the Sec. 3.3.2
  // feedback (and its anti-collapse strengthening) earns its keep; on
  // fully random matrices the effect is noise-level.
  Rng rng(16);
  double with_sum = 0.0;
  double without_sum = 0.0;
  for (int trial = 0; trial < 12; ++trial) {
    const auto w = InputPartition::trivial(8, 3);
    TruthTable tt(8, 1);
    tt.set_output(0, random_decomposable_output(w, rng));
    auto m = BooleanMatrix::from_function(tt, 0, w);
    for (int noise = 0; noise < 6; ++noise) {
      m.set(rng.next_below(m.rows()), rng.next_below(m.cols()),
            rng.next_bool());
    }
    const auto cop =
        ColumnCop::separate(m, uniform_probs(m.rows(), m.cols()));
    // polish/seed-init off isolate the intervention itself.
    const auto with = reg("prop,n=8,polish=0,seed-init=0,theorem3=1");
    const auto without =
        reg("prop,n=8,polish=0,seed-init=0,theorem3=0,anti-collapse=0");
    CoreSolveStats sw;
    CoreSolveStats so;
    (void)with->solve(cop, static_cast<std::uint64_t>(trial), &sw);
    (void)without->solve(cop, static_cast<std::uint64_t>(trial), &so);
    with_sum += sw.objective;
    without_sum += so.objective;
  }
  EXPECT_LE(with_sum, without_sum + 1e-9)
      << "the Sec. 3.3.2 heuristic should help (or at worst tie) in total";
}

TEST(IsingCore, AntiCollapseEscapesRankOneFixedPoint) {
  // A matrix whose columns split into two clusters but whose rows carry a
  // strong common bias: plain bSB collapses to the single majority pattern
  // (V1 == V2); the anti-collapse reseed must recover the two-pattern
  // solution. Construct: 8 columns, half equal to pattern A (mostly ones),
  // half equal to pattern B (A with the last three rows flipped).
  const std::size_t r = 6;
  const std::size_t c = 8;
  BooleanMatrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      const bool a_bit = i < 4;  // pattern A = 111100
      const bool b_bit = i < 2;  // pattern B = 110000
      m.set(i, j, j < 4 ? a_bit : b_bit);
    }
  }
  const auto cop = ColumnCop::separate(m, uniform_probs(r, c));
  // The two-pattern optimum is exact (zero error).
  const ExhaustiveCoreSolver exact;
  CoreSolveStats es;
  (void)exact.solve(cop, 0, &es);
  ASSERT_NEAR(es.objective, 0.0, 1e-15);

  CoreSolveStats with;
  (void)reg("prop,n=6,seed-init=0,polish=0,anti-collapse=1")
      ->solve(cop, 3, &with);
  EXPECT_NEAR(with.objective, 0.0, 1e-15)
      << "anti-collapse must recover the planted two-pattern solution";
}

TEST(IsingCore, DeterministicForFixedSeed) {
  Rng rng(17);
  const auto cop = small_separate_cop(rng, 6, 12);
  const auto solver = reg("prop,n=6");
  CoreSolveStats a;
  CoreSolveStats b;
  const auto sa = solver->solve(cop, 99, &a);
  const auto sb = solver->solve(cop, 99, &b);
  EXPECT_EQ(sa.v1, sb.v1);
  EXPECT_EQ(sa.v2, sb.v2);
  EXPECT_EQ(sa.t, sb.t);
  EXPECT_EQ(a.objective, b.objective);
}

TEST(IsingCore, RestartsImproveOrTie) {
  Rng rng(18);
  const auto cop = small_separate_cop(rng, 8, 16);
  CoreSolveStats s1;
  CoreSolveStats s4;
  (void)reg("prop,n=7,restarts=1")->solve(cop, 5, &s1);
  (void)reg("prop,n=7,restarts=4")->solve(cop, 5, &s4);
  EXPECT_LE(s4.objective, s1.objective + 1e-12);
}

// ---------------------------------------------------------- Row-ILP path

TEST(RowIlp, EncodingSolvesTinyCopExactly) {
  Rng rng(19);
  for (int trial = 0; trial < 3; ++trial) {
    const auto m = random_matrix(2, 3, rng);
    std::vector<double> probs(6, 1.0 / 6.0);
    const auto enc = encode_row_cop_separate(m, probs);
    IlpParams params;
    params.time_budget_s = 30.0;
    const auto sol = solve_ilp(enc.problem, params);
    ASSERT_EQ(sol.status, IlpStatus::kOptimal);

    const RowSetting rs = decode_row_ilp(enc, sol.x);
    // The decoded row setting's true weighted error equals the ILP value.
    double err = 0.0;
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        err += probs[i * 3 + j] * (rs.value(i, j) != m.at(i, j) ? 1.0 : 0.0);
      }
    }
    EXPECT_NEAR(err, sol.objective, 1e-9);

    // And matches the exhaustive column-COP optimum (the two formulations
    // describe the same search space).
    const auto cop = ColumnCop::separate(m, probs);
    const ExhaustiveCoreSolver exact;
    CoreSolveStats es;
    (void)exact.solve(cop, 0, &es);
    EXPECT_NEAR(sol.objective, es.objective, 1e-9)
        << "row-based ILP and column-based COP optima must agree";
  }
}

TEST(RowIlp, EncodingShape) {
  Rng rng(20);
  const auto m = random_matrix(2, 4, rng);
  const auto enc = encode_row_cop_separate(m, std::vector<double>(8, 0.125));
  EXPECT_EQ(enc.rows, 2u);
  EXPECT_EQ(enc.cols, 4u);
  // Variables: 4 V + 8 s + 2*8 z.
  EXPECT_EQ(enc.problem.lp.num_vars(), 4u + 8u + 16u);
  // Binaries: V and s only.
  std::size_t binaries = 0;
  for (bool b : enc.problem.is_binary) {
    binaries += b;
  }
  EXPECT_EQ(binaries, 12u);
}

TEST(RowIlp, JointEncodingMatchesExhaustiveOptimum) {
  Rng rng(25);
  const auto m = random_matrix(2, 3, rng);
  std::vector<double> probs(6, 1.0 / 6.0);
  std::vector<double> d(6);
  for (auto& v : d) {
    v = std::floor(rng.next_double(-5.0, 5.0));
  }
  const double weight = 2.0;

  const auto enc = encode_row_cop_joint(m, probs, d, weight);
  IlpParams params;
  params.time_budget_s = 30.0;
  const auto sol = solve_ilp(enc.problem, params);
  ASSERT_EQ(sol.status, IlpStatus::kOptimal);

  const auto cop = ColumnCop::joint(m, probs, d, weight);
  const ExhaustiveCoreSolver exact;
  CoreSolveStats es;
  (void)exact.solve(cop, 0, &es);
  EXPECT_NEAR(sol.objective, es.objective, 1e-9)
      << "row-based joint ILP and column-based joint COP optima must agree";

  // The decoded setting's true |2^k Ohat + D| cost equals the ILP value.
  const RowSetting rs = decode_row_ilp(enc, sol.x);
  double med = 0.0;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const double ohat = rs.value(i, j) ? 1.0 : 0.0;
      med += probs[i * 3 + j] * std::fabs(weight * ohat + d[i * 3 + j]);
    }
  }
  EXPECT_NEAR(med, sol.objective, 1e-9);
}

TEST(RowIlp, GeneralCostValidation) {
  Rng rng(26);
  const auto m = random_matrix(2, 2, rng);
  EXPECT_THROW((void)encode_row_cop(m, std::vector<double>(3),
                                    std::vector<double>(4)),
               std::invalid_argument);
  EXPECT_THROW((void)encode_row_cop_joint(m, std::vector<double>(4, 0.25),
                                          std::vector<double>(4, 0.0), 0.0),
               std::invalid_argument);
}

TEST(RowIlp, ProbsMismatchThrows) {
  Rng rng(21);
  const auto m = random_matrix(2, 4, rng);
  EXPECT_THROW((void)encode_row_cop_separate(m, std::vector<double>(7)),
               std::invalid_argument);
}

TEST(IsingCore, DiscreteVariantAlsoSolvesDecomposable) {
  Rng rng(60);
  const auto w = InputPartition::trivial(7, 3);
  TruthTable tt(7, 1);
  tt.set_output(0, random_decomposable_output(w, rng));
  const auto m = BooleanMatrix::from_function(tt, 0, w);
  const auto cop =
      ColumnCop::separate(m, uniform_probs(m.rows(), m.cols()));
  CoreSolveStats stats;
  (void)reg("prop,n=7,discrete=1")->solve(cop, 5, &stats);
  EXPECT_NEAR(stats.objective, 0.0, 1e-15);
}

TEST(HeuristicCore, LiteralVariantNoWorseThanRefinedNever) {
  // The refined greedy must dominate (or tie) the literal one-shot variant.
  Rng rng(61);
  for (int trial = 0; trial < 10; ++trial) {
    const auto m = random_matrix(6, 10, rng);
    const auto cop = ColumnCop::separate(m, uniform_probs(6, 10));
    CoreSolveStats lit;
    CoreSolveStats refined;
    (void)reg("dalta-lit")->solve(cop, 0, &lit);
    (void)reg("dalta,sweeps=4")->solve(cop, 0, &refined);
    EXPECT_LE(refined.objective, lit.objective + 1e-12);
  }
}

TEST(HeuristicCore, LiteralVariantUsesTheorem3Types) {
  // Even the one-shot variant assigns column types optimally for its seed
  // patterns (Theorem 3), so a manual T improvement must not exist.
  Rng rng(62);
  const auto m = random_matrix(4, 6, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(4, 6));
  CoreSolveStats stats;
  auto s = reg("dalta-lit")->solve(cop, 0, &stats);
  const double before = cop.objective(s);
  cop.reset_optimal_t(s);
  EXPECT_NEAR(cop.objective(s), before, 1e-15);
}

// Cross-solver ordering property: exact <= bnb(unbounded) <= heuristics.
class SolverOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(SolverOrderProperty, ObjectiveOrdering) {
  Rng rng(static_cast<std::uint64_t>(3000 + GetParam()));
  const auto m = random_matrix(4, 6, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(4, 6));
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());

  CoreSolveStats exact_s;
  (void)reg("exhaustive")->solve(cop, seed, &exact_s);

  CoreSolveStats bnb_s;
  (void)reg("ilp,budget=0")->solve(cop, seed, &bnb_s);

  CoreSolveStats alt_s;
  (void)reg("alt,restarts=4")->solve(cop, seed, &alt_s);
  CoreSolveStats heur_s;
  (void)reg("dalta")->solve(cop, seed, &heur_s);
  CoreSolveStats ising_s;
  (void)reg("prop,n=5")->solve(cop, seed, &ising_s);

  EXPECT_NEAR(bnb_s.objective, exact_s.objective, 1e-12);
  EXPECT_GE(alt_s.objective, exact_s.objective - 1e-12);
  EXPECT_GE(heur_s.objective, exact_s.objective - 1e-12);
  EXPECT_GE(ising_s.objective, exact_s.objective - 1e-12);
  EXPECT_GE(cop.ideal_bound() - 1e-12, -1e-12);
  EXPECT_LE(exact_s.objective, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverOrderProperty, ::testing::Range(0, 8));

}  // namespace
}  // namespace adsd
