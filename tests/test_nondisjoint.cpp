#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "boolean/nondisjoint.hpp"
#include "core/dalta.hpp"
#include "core/nondisjoint_dalta.hpp"
#include "core/solver_registry.hpp"
#include "funcs/continuous.hpp"
#include "lut/decomposed_lut.hpp"
#include "lut/nondisjoint_lut.hpp"
#include "support/rng.hpp"

namespace adsd {
namespace {

ColumnSetting random_cs(std::size_t r, std::size_t c, Rng& rng) {
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

// ----------------------------------------------------------- Partition

TEST(NonDisjointPartition, IndexingRoundTrip) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto w = NonDisjointPartition::random(8, 3, 2, rng);
    EXPECT_EQ(w.free_vars().size(), 3u);
    EXPECT_EQ(w.shared_vars().size(), 2u);
    EXPECT_EQ(w.bound_vars().size(), 3u);
    for (std::uint64_t x = 0; x < 256; x += 5) {
      EXPECT_EQ(w.input_of(w.slice_of(x), w.row_of(x), w.col_of(x)), x);
    }
  }
}

TEST(NonDisjointPartition, LutBitAccounting) {
  const NonDisjointPartition w({0, 1}, {2, 3, 4}, {5});
  // phi: 2^(3+1) = 16, F: 2^(2+1+1) = 16.
  EXPECT_EQ(w.phi_lut_bits(), 16u);
  EXPECT_EQ(w.f_lut_bits(), 16u);
  EXPECT_EQ(w.num_slices(), 2u);
  EXPECT_EQ(w.num_rows(), 4u);
  EXPECT_EQ(w.num_cols(), 8u);
}

TEST(NonDisjointPartition, EmptySharedAllowed) {
  const NonDisjointPartition w({0, 1}, {2, 3}, {});
  EXPECT_EQ(w.num_slices(), 1u);
  EXPECT_EQ(w.slice_of(0b1111), 0u);
}

TEST(NonDisjointPartition, RejectsBadShapes) {
  EXPECT_THROW(NonDisjointPartition({}, {0, 1}, {2}), std::invalid_argument);
  EXPECT_THROW(NonDisjointPartition({0}, {}, {1}), std::invalid_argument);
  EXPECT_THROW(NonDisjointPartition({0, 1}, {1, 2}, {}),
               std::invalid_argument);
  Rng rng(2);
  EXPECT_THROW((void)NonDisjointPartition::random(5, 3, 2, rng),
               std::invalid_argument);
}

// --------------------------------------------------------- Slice algebra

TEST(NonDisjoint, SliceMatrixMatchesCofactor) {
  Rng rng(3);
  auto tt = TruthTable::from_function(
      7, 1, [&](std::uint64_t) { return rng.next_u64() & 1; });
  const auto w = NonDisjointPartition::random(7, 2, 2, rng);
  for (std::uint64_t sl = 0; sl < w.num_slices(); ++sl) {
    const auto m = slice_matrix(tt, 0, w, sl);
    for (std::uint64_t i = 0; i < w.num_rows(); ++i) {
      for (std::uint64_t j = 0; j < w.num_cols(); ++j) {
        EXPECT_EQ(m.at(i, j), tt.bit(0, w.input_of(sl, i, j)));
      }
    }
  }
}

TEST(NonDisjoint, ComposeOutputInvertsSliceView) {
  Rng rng(4);
  const auto w = NonDisjointPartition::random(7, 2, 2, rng);
  NonDisjointSetting s;
  for (std::uint64_t sl = 0; sl < w.num_slices(); ++sl) {
    s.slices.push_back(random_cs(w.num_rows(), w.num_cols(), rng));
  }
  const BitVec out = compose_output(s, w);
  TruthTable tt(7, 1);
  tt.set_output(0, out);
  for (std::uint64_t sl = 0; sl < w.num_slices(); ++sl) {
    const auto m = slice_matrix(tt, 0, w, sl);
    EXPECT_EQ(mismatch_count(m, s.slices[sl]), 0u);
  }
}

TEST(NonDisjoint, ExactCheckAcceptsPlantedDecomposition) {
  Rng rng(5);
  const auto w = NonDisjointPartition::random(7, 2, 2, rng);
  NonDisjointSetting planted;
  for (std::uint64_t sl = 0; sl < w.num_slices(); ++sl) {
    planted.slices.push_back(random_cs(w.num_rows(), w.num_cols(), rng));
  }
  TruthTable tt(7, 1);
  tt.set_output(0, compose_output(planted, w));
  const auto found = check_nondisjoint_decomposition(tt, 0, w);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(compose_output(*found, w), tt.output(0));
}

TEST(NonDisjoint, ExactCheckRejectsRandomFunction) {
  // A random 7-input function is essentially never non-disjoint
  // decomposable with these sizes.
  Rng rng(6);
  auto tt = TruthTable::from_function(
      7, 1, [&](std::uint64_t) { return rng.next_u64() & 1; });
  const auto w = NonDisjointPartition::random(7, 2, 1, rng);
  EXPECT_FALSE(check_nondisjoint_decomposition(tt, 0, w).has_value());
}

TEST(NonDisjoint, SharedVariableStrictlyEnlargesTheFeasibleSet) {
  // A function decomposable with one shared variable but not disjointly:
  // g = x2 ? f1(x0, x1, x3) : f0(x0, x1, x3) with incompatible slices.
  // Construct via planted slices that differ.
  Rng rng(7);
  const NonDisjointPartition wnd({0, 1}, {3, 4}, {2});
  NonDisjointSetting planted;
  planted.slices.push_back(random_cs(4, 4, rng));
  planted.slices.push_back(random_cs(4, 4, rng));
  TruthTable tt(5, 1);
  tt.set_output(0, compose_output(planted, wnd));
  EXPECT_TRUE(check_nondisjoint_decomposition(tt, 0, wnd).has_value());
  // The corresponding *disjoint* split (x2 in the bound set) usually fails.
  const InputPartition wd({0, 1}, {2, 3, 4});
  const auto m = BooleanMatrix::from_function(tt, 0, wd);
  // Not guaranteed to fail for every seed, but for this seed it does; the
  // point is that non-disjoint acceptance does not imply disjoint
  // acceptance.
  EXPECT_FALSE(check_column_decomposition(m).has_value());
}

// ------------------------------------------------------------------- LUT

TEST(NonDisjointLut, EvaluatesSettingExactly) {
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const auto w = NonDisjointPartition::random(7, 2, 2, rng);
    NonDisjointSetting s;
    for (std::uint64_t sl = 0; sl < w.num_slices(); ++sl) {
      s.slices.push_back(random_cs(w.num_rows(), w.num_cols(), rng));
    }
    const auto lut = NonDisjointLut::from_setting(w, s);
    EXPECT_EQ(lut.truth_table(), compose_output(s, w));
  }
}

TEST(NonDisjointLut, SizeMatchesPartitionAccounting) {
  Rng rng(9);
  const auto w = NonDisjointPartition::random(9, 3, 2, rng);
  NonDisjointSetting s;
  for (std::uint64_t sl = 0; sl < w.num_slices(); ++sl) {
    s.slices.push_back(random_cs(w.num_rows(), w.num_cols(), rng));
  }
  const auto lut = NonDisjointLut::from_setting(w, s);
  EXPECT_EQ(lut.phi_lut().size_bits(), w.phi_lut_bits());
  EXPECT_EQ(lut.f_lut().size_bits(), w.f_lut_bits());
  EXPECT_EQ(lut.flat_size_bits(), 512u);
}

TEST(NonDisjointLut, ZeroSharedMatchesDecomposedLutCost) {
  const NonDisjointPartition w({0, 1}, {2, 3, 4}, {});
  // Same cost as the disjoint pair: 2^3 + 2^(2+1) = 16.
  EXPECT_EQ(w.phi_lut_bits() + w.f_lut_bits(), 16u);
}

TEST(NonDisjointLut, RejectsWrongSliceCount) {
  Rng rng(10);
  const auto w = NonDisjointPartition::random(6, 2, 1, rng);
  NonDisjointSetting s;
  s.slices.push_back(random_cs(w.num_rows(), w.num_cols(), rng));
  EXPECT_THROW((void)NonDisjointLut::from_setting(w, s),
               std::invalid_argument);
}

// ------------------------------------------------------------- Framework

TEST(NdDalta, ZeroSharedReproducesDisjointDalta) {
  // With shared_size = 0 the candidate partitions, the per-candidate COPs
  // and their seeds coincide with run_dalta's, so the results must be
  // identical: looped, greedy, bSB and batched solvers, both modes, one
  // and two rounds.
  const auto exact = make_continuous_table(continuous_spec("exp"), 6, 5);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver alternating(4);
  const auto greedy = SolverRegistry::global().make_from_spec("dalta");
  const auto prop = SolverRegistry::global().make_from_spec("prop,n=6");
  const auto packed =
      SolverRegistry::global().make_from_spec("prop,n=6,pack=4");
  const std::vector<const CoreCopSolver*> solvers = {
      &alternating, greedy.get(), prop.get(), packed.get()};
  for (const CoreCopSolver* solver : solvers) {
    for (const DecompMode mode : {DecompMode::kJoint, DecompMode::kSeparate}) {
      for (const std::size_t rounds : {1u, 2u}) {
        SCOPED_TRACE(solver->name() +
                     (mode == DecompMode::kJoint ? " joint" : " separate") +
                     " rounds=" + std::to_string(rounds));
        DaltaParams dp;
        dp.free_size = 2;
        dp.num_partitions = 5;
        dp.rounds = rounds;
        dp.mode = mode;
        dp.seed = 9;

        NdDaltaParams np;
        np.free_size = 2;
        np.shared_size = 0;
        np.num_partitions = 5;
        np.rounds = rounds;
        np.mode = mode;
        np.seed = 9;

        const auto rd = run_dalta(exact, dist, dp, *solver);
        const auto rn = run_dalta_nd(exact, dist, np, *solver);
        EXPECT_EQ(rd.approx, rn.approx);
        EXPECT_DOUBLE_EQ(rd.med, rn.med);
        EXPECT_EQ(rd.cop_solves, rn.cop_solves);
        EXPECT_EQ(rd.solver_iterations, rn.solver_iterations);
        EXPECT_EQ(rd.early_stops, rn.early_stops);
        ASSERT_EQ(rd.outputs.size(), rn.outputs.size());
        for (std::size_t k = 0; k < rd.outputs.size(); ++k) {
          EXPECT_EQ(rd.outputs[k].objective, rn.outputs[k].objective) << k;
        }
      }
    }
  }
}

TEST(NdDalta, SharedVariablesReduceErrorOnAverage) {
  const auto exact = make_continuous_table(continuous_spec("tan"), 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const AlternatingCoreSolver solver(4);

  double med[3];
  for (unsigned s = 0; s <= 2; ++s) {
    NdDaltaParams np;
    np.free_size = 3;
    np.shared_size = s;
    np.num_partitions = 6;
    np.rounds = 1;
    np.mode = DecompMode::kJoint;
    np.seed = 11;
    const auto res = run_dalta_nd(exact, dist, np, solver);
    med[s] = res.med;
  }
  // Each shared variable enlarges the feasible set per candidate, so with
  // matched P the error should trend down (allow mild non-monotonic noise).
  EXPECT_LE(med[2], med[0] * 1.05 + 1e-9);
}

TEST(NdDalta, MedMatchesRecomputationAndLutRealization) {
  const auto exact = make_continuous_table(continuous_spec("cos"), 7, 5);
  const auto dist = InputDistribution::uniform(7);
  const auto solver = SolverRegistry::global().make_from_spec("prop,n=7");
  NdDaltaParams np;
  np.free_size = 3;
  np.shared_size = 1;
  np.num_partitions = 4;
  np.rounds = 1;
  np.seed = 13;
  const auto res = run_dalta_nd(exact, dist, np, *solver);
  EXPECT_NEAR(res.med, mean_error_distance(exact, res.approx, dist), 1e-12);

  for (unsigned k = 0; k < 5; ++k) {
    const auto lut = NonDisjointLut::from_setting(res.outputs[k].partition,
                                                  res.outputs[k].setting);
    EXPECT_EQ(lut.truth_table(), res.approx.output(k)) << "output " << k;
  }
  EXPECT_GT(res.total_flat_size_bits(), res.total_size_bits());
}

TEST(NdDalta, StatsCountSlices) {
  const auto exact = make_continuous_table(continuous_spec("erf"), 6, 3);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(2);
  NdDaltaParams np;
  np.free_size = 2;
  np.shared_size = 2;
  np.num_partitions = 3;
  np.rounds = 1;
  np.seed = 17;
  const auto res = run_dalta_nd(exact, dist, np, solver);
  // 3 outputs x 3 partitions x 4 slices.
  EXPECT_EQ(res.cop_solves, 3u * 3u * 4u);
}

TEST(NonDisjointLut, ZeroSharedBitExactMatchWithDecomposedLut) {
  // With an empty shared set the non-disjoint LUT must compute the same
  // function as the disjoint pair built from the same column setting.
  Rng rng(42);
  const InputPartition wd({0, 2}, {1, 3, 4});
  const NonDisjointPartition wn({0, 2}, {1, 3, 4}, {});
  const auto cs = random_cs(4, 8, rng);
  const auto disjoint = DecomposedLut::from_column_setting(wd, cs);
  NonDisjointSetting s;
  s.slices.push_back(cs);
  const auto nd = NonDisjointLut::from_setting(wn, s);
  EXPECT_EQ(nd.truth_table(), disjoint.truth_table());
  EXPECT_EQ(nd.size_bits(), disjoint.size_bits());
}

TEST(NdDalta, RejectsBadParameters) {
  const auto exact = make_continuous_table(continuous_spec("cos"), 6, 3);
  const auto dist = InputDistribution::uniform(6);
  const AlternatingCoreSolver solver(2);
  NdDaltaParams np;
  np.free_size = 3;
  np.shared_size = 3;
  EXPECT_THROW((void)run_dalta_nd(exact, dist, np, solver),
               std::invalid_argument);
}

}  // namespace
}  // namespace adsd
