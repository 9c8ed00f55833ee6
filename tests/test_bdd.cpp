#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "bdd/bdd_decompose.hpp"
#include "boolean/boolean_matrix.hpp"
#include "boolean/decomposition.hpp"
#include "funcs/registry.hpp"
#include "support/rng.hpp"

namespace adsd {
namespace {

BitVec random_table(unsigned n, Rng& rng) {
  BitVec bits(std::uint64_t{1} << n);
  for (std::uint64_t x = 0; x < bits.size(); ++x) {
    bits.set(x, rng.next_bool());
  }
  return bits;
}

// ------------------------------------------------------------ Fundamentals

TEST(Bdd, TerminalsAndVariables) {
  BddManager mgr(3);
  EXPECT_TRUE(mgr.evaluate(BddManager::kTrue, 0));
  EXPECT_FALSE(mgr.evaluate(BddManager::kFalse, 5));
  const auto x1 = mgr.var(1);
  EXPECT_TRUE(mgr.evaluate(x1, 0b010));
  EXPECT_FALSE(mgr.evaluate(x1, 0b101));
  const auto nx1 = mgr.nvar(1);
  EXPECT_FALSE(mgr.evaluate(nx1, 0b010));
  EXPECT_TRUE(mgr.evaluate(nx1, 0b101));
}

TEST(Bdd, HashConsingCanonicity) {
  BddManager mgr(4);
  // Same function built two ways must be the same node.
  const auto a = mgr.land(mgr.var(0), mgr.var(1));
  const auto b = mgr.lnot(mgr.lor(mgr.lnot(mgr.var(0)), mgr.lnot(mgr.var(1))));
  EXPECT_EQ(a, b) << "De Morgan identity must hash-cons to one node";
  const auto c = mgr.lxor(mgr.var(2), mgr.var(2));
  EXPECT_EQ(c, BddManager::kFalse);
  EXPECT_EQ(mgr.lor(mgr.var(3), mgr.lnot(mgr.var(3))), BddManager::kTrue);
}

TEST(Bdd, IteSemantics) {
  BddManager mgr(3);
  const auto f = mgr.ite(mgr.var(0), mgr.var(1), mgr.var(2));
  for (std::uint64_t x = 0; x < 8; ++x) {
    const bool expect = (x & 1) ? ((x >> 1) & 1) : ((x >> 2) & 1);
    EXPECT_EQ(mgr.evaluate(f, x), expect) << x;
  }
}

TEST(Bdd, OpsMatchBitwiseTruthTables) {
  Rng rng(3);
  BddManager mgr(5);
  const BitVec ta = random_table(5, rng);
  const BitVec tb = random_table(5, rng);
  const auto a = mgr.from_truth_table(ta);
  const auto b = mgr.from_truth_table(tb);
  const auto f_and = mgr.land(a, b);
  const auto f_or = mgr.lor(a, b);
  const auto f_xor = mgr.lxor(a, b);
  const auto f_not = mgr.lnot(a);
  for (std::uint64_t x = 0; x < 32; ++x) {
    EXPECT_EQ(mgr.evaluate(f_and, x), ta.get(x) && tb.get(x));
    EXPECT_EQ(mgr.evaluate(f_or, x), ta.get(x) || tb.get(x));
    EXPECT_EQ(mgr.evaluate(f_xor, x), ta.get(x) != tb.get(x));
    EXPECT_EQ(mgr.evaluate(f_not, x), !ta.get(x));
  }
}

TEST(Bdd, TruthTableRoundTrip) {
  Rng rng(5);
  BddManager mgr(7);
  for (int trial = 0; trial < 10; ++trial) {
    const BitVec bits = random_table(7, rng);
    const auto f = mgr.from_truth_table(bits);
    EXPECT_EQ(mgr.to_truth_table(f), bits);
  }
}

TEST(Bdd, EqualFunctionsShareOneNode) {
  Rng rng(7);
  BddManager mgr(6);
  const BitVec bits = random_table(6, rng);
  const auto f = mgr.from_truth_table(bits);
  const auto g = mgr.from_truth_table(bits);
  EXPECT_EQ(f, g);
}

TEST(Bdd, CountSatMatchesPopcount) {
  Rng rng(9);
  BddManager mgr(8);
  for (int trial = 0; trial < 10; ++trial) {
    const BitVec bits = random_table(8, rng);
    const auto f = mgr.from_truth_table(bits);
    EXPECT_EQ(mgr.count_sat(f), bits.count());
  }
  EXPECT_EQ(mgr.count_sat(BddManager::kTrue), 256u);
  EXPECT_EQ(mgr.count_sat(BddManager::kFalse), 0u);
  EXPECT_EQ(mgr.count_sat(mgr.var(3)), 128u);
}

TEST(Bdd, RestrictIsShannonCofactor) {
  Rng rng(11);
  BddManager mgr(6);
  const BitVec bits = random_table(6, rng);
  const auto f = mgr.from_truth_table(bits);
  for (unsigned v = 0; v < 6; ++v) {
    for (int value = 0; value <= 1; ++value) {
      const auto g = mgr.restrict_var(f, v, value != 0);
      for (std::uint64_t x = 0; x < 64; ++x) {
        std::uint64_t forced = x;
        if (value != 0) {
          forced |= std::uint64_t{1} << v;
        } else {
          forced &= ~(std::uint64_t{1} << v);
        }
        EXPECT_EQ(mgr.evaluate(g, x), bits.get(forced));
      }
    }
  }
}

TEST(Bdd, MajorityHasCompactDiagram) {
  // maj(x0, x1, x2): 4 internal nodes in any order; the table is 8 bits.
  BddManager mgr(3);
  const auto f = mgr.lor(
      mgr.lor(mgr.land(mgr.var(0), mgr.var(1)),
              mgr.land(mgr.var(0), mgr.var(2))),
      mgr.land(mgr.var(1), mgr.var(2)));
  EXPECT_LE(mgr.node_count(f), 4u);
  EXPECT_EQ(mgr.count_sat(f), 4u);
}

TEST(Bdd, XorChainIsLinearSize) {
  BddManager mgr(12);
  auto f = mgr.var(0);
  for (unsigned v = 1; v < 12; ++v) {
    f = mgr.lxor(f, mgr.var(v));
  }
  // Parity has exactly 2n-1 nodes as a reduced BDD.
  EXPECT_EQ(mgr.node_count(f), 23u);
  EXPECT_EQ(mgr.count_sat(f), 2048u);
}

TEST(Bdd, TotalNodesGrowsWithDistinctFunctions) {
  BddManager mgr(4);
  const std::size_t before = mgr.total_nodes();
  (void)mgr.var(0);
  (void)mgr.var(1);
  EXPECT_EQ(mgr.total_nodes(), before + 2);
  (void)mgr.var(0);  // hash-consed: no growth
  EXPECT_EQ(mgr.total_nodes(), before + 2);
}

TEST(Bdd, RealCircuitBddIsCompact) {
  // The 12-input Brent-Kung sum bit has a polynomial-size BDD in the
  // interleaved-ish default order; sanity bound well below 2^12.
  const auto tt = make_benchmark_table("brent-kung", 12, 7);
  BddManager mgr(12);
  const auto f = mgr.from_truth_table(tt.output(5));
  EXPECT_LT(mgr.node_count(f), 200u);
  // And it still evaluates correctly.
  for (std::uint64_t x = 0; x < 4096; x += 97) {
    EXPECT_EQ(mgr.evaluate(f, x), tt.bit(5, x));
  }
}

TEST(Bdd, Validation) {
  EXPECT_THROW(BddManager(0), std::invalid_argument);
  BddManager mgr(3);
  EXPECT_THROW((void)mgr.var(3), std::out_of_range);
  EXPECT_THROW((void)mgr.from_truth_table(BitVec(4)), std::invalid_argument);
}

// ------------------------------------------------- Column multiplicity

TEST(BddDecompose, MultiplicityMatchesMatrixDistinctColumns) {
  Rng rng(13);
  for (int trial = 0; trial < 25; ++trial) {
    const unsigned n = 7;
    BddManager mgr(n);
    const BitVec bits = random_table(n, rng);
    const auto f = mgr.from_truth_table(bits);
    const auto w = InputPartition::random(n, 3, rng);

    TruthTable tt(n, 1);
    tt.set_output(0, bits);
    const auto matrix = BooleanMatrix::from_function(tt, 0, w);

    EXPECT_EQ(bdd_column_multiplicity(mgr, f, w),
              matrix.distinct_columns().size())
        << w.to_string();
  }
}

TEST(BddDecompose, AgreesWithTheorem2Check) {
  Rng rng(17);
  int decomposable = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const unsigned n = 6;
    BddManager mgr(n);
    const auto w = InputPartition::random(n, 2, rng);
    // Mix decomposable and random functions.
    const BitVec bits = (trial % 2 == 0) ? random_decomposable_output(w, rng)
                                         : random_table(n, rng);
    const auto f = mgr.from_truth_table(bits);

    TruthTable tt(n, 1);
    tt.set_output(0, bits);
    const auto matrix = BooleanMatrix::from_function(tt, 0, w);
    const bool matrix_ok = check_column_decomposition(matrix).has_value();
    EXPECT_EQ(bdd_is_decomposable(mgr, f, w), matrix_ok);
    decomposable += matrix_ok;
  }
  EXPECT_GT(decomposable, 10);
}

TEST(BddDecompose, FindsPlantedPartition) {
  Rng rng(19);
  const unsigned n = 7;
  const InputPartition planted({1, 3, 6}, {0, 2, 4, 5});
  const BitVec bits = random_decomposable_output(planted, rng);
  BddManager mgr(n);
  const auto f = mgr.from_truth_table(bits);
  const auto found = bdd_find_decomposable_partition(mgr, f, 3);
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(bdd_is_decomposable(mgr, f, *found));
}

TEST(BddDecompose, RandomFunctionHasNoDecomposablePartition) {
  Rng rng(23);
  const unsigned n = 7;
  BddManager mgr(n);
  const auto f = mgr.from_truth_table(random_table(n, rng));
  EXPECT_FALSE(bdd_find_decomposable_partition(mgr, f, 3).has_value());
}

TEST(BddDecompose, BrentKungCarryDecomposes) {
  // The adder's MSB (carry-out) depends on its operands through the prefix
  // structure; sanity-check multiplicity behaviour on a real circuit
  // output at small width.
  const auto tt = make_benchmark_table("brent-kung", 6, 4);
  BddManager mgr(6);
  const auto f = mgr.from_truth_table(tt.output(3));  // carry bit
  // Partition by operand: rows = first operand, cols = second.
  const InputPartition w({0, 1, 2}, {3, 4, 5});
  const std::size_t mu = bdd_column_multiplicity(mgr, f, w);
  TruthTable single(6, 1);
  single.set_output(0, tt.output(3));
  const auto matrix = BooleanMatrix::from_function(single, 0, w);
  EXPECT_EQ(mu, matrix.distinct_columns().size());
  EXPECT_GT(mu, 2u) << "carry is not disjoint-decomposable by operand split";
}

TEST(BddDecompose, WidthMismatchThrows) {
  BddManager mgr(5);
  const auto w = InputPartition::trivial(6, 3);
  EXPECT_THROW((void)bdd_column_multiplicity(mgr, BddManager::kTrue, w),
               std::invalid_argument);
}

}  // namespace
}  // namespace adsd
