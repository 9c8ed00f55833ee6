#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#include "boolean/boolean_matrix.hpp"
#include "boolean/decomposition.hpp"
#include "boolean/error_metrics.hpp"
#include "boolean/partition.hpp"
#include "boolean/truth_table.hpp"
#include "support/rng.hpp"

namespace adsd {
namespace {

// ------------------------------------------------------------ TruthTable

TEST(TruthTable, ShapeAndDefaults) {
  TruthTable tt(4, 3);
  EXPECT_EQ(tt.num_inputs(), 4u);
  EXPECT_EQ(tt.num_outputs(), 3u);
  EXPECT_EQ(tt.num_patterns(), 16u);
  for (std::uint64_t x = 0; x < 16; ++x) {
    EXPECT_EQ(tt.word(x), 0u);
  }
}

TEST(TruthTable, FromFunctionTabulates) {
  auto tt = TruthTable::from_function(4, 5, [](std::uint64_t x) {
    return x + 1;  // 5 bits enough for 16+1
  });
  for (std::uint64_t x = 0; x < 16; ++x) {
    EXPECT_EQ(tt.word(x), x + 1);
  }
}

TEST(TruthTable, WordSetAndBitConsistency) {
  TruthTable tt(3, 4);
  tt.set_word(5, 0b1010);
  EXPECT_EQ(tt.word(5), 0b1010u);
  EXPECT_FALSE(tt.bit(0, 5));
  EXPECT_TRUE(tt.bit(1, 5));
  EXPECT_FALSE(tt.bit(2, 5));
  EXPECT_TRUE(tt.bit(3, 5));
  tt.set_bit(0, 5, true);
  EXPECT_EQ(tt.word(5), 0b1011u);
}

TEST(TruthTable, HighBitsOfWordIgnored) {
  TruthTable tt(2, 2);
  tt.set_word(0, 0xFF);
  EXPECT_EQ(tt.word(0), 0b11u);
}

TEST(TruthTable, SetOutputValidatesSize) {
  TruthTable tt(3, 2);
  EXPECT_THROW(tt.set_output(0, BitVec(4)), std::invalid_argument);
  tt.set_output(0, BitVec(8, true));
  EXPECT_TRUE(tt.bit(0, 7));
}

TEST(TruthTable, DiffCount) {
  auto a = TruthTable::from_function(3, 2, [](std::uint64_t x) { return x; });
  auto b = a;
  EXPECT_EQ(a.diff_count(b), 0u);
  b.set_word(3, a.word(3) ^ 1);
  b.set_word(5, a.word(5) ^ 2);
  EXPECT_EQ(a.diff_count(b), 2u);
  EXPECT_NE(a, b);
}

TEST(TruthTable, RejectsBadShapes) {
  EXPECT_THROW(TruthTable(0, 1), std::invalid_argument);
  EXPECT_THROW(TruthTable(27, 1), std::invalid_argument);
  EXPECT_THROW(TruthTable(4, 0), std::invalid_argument);
}

// -------------------------------------------------------- InputPartition

TEST(InputPartition, TrivialSplit) {
  const auto w = InputPartition::trivial(5, 2);
  EXPECT_EQ(w.free_vars().size(), 2u);
  EXPECT_EQ(w.bound_vars().size(), 3u);
  EXPECT_EQ(w.num_rows(), 4u);
  EXPECT_EQ(w.num_cols(), 8u);
}

TEST(InputPartition, RowColExtraction) {
  // A = {x0, x2}, B = {x1, x3}: row bits from positions 0 and 2.
  const InputPartition w({0, 2}, {1, 3});
  const std::uint64_t x = 0b1011;  // x0=1 x1=1 x2=0 x3=1
  EXPECT_EQ(w.row_of(x), 0b01u);
  EXPECT_EQ(w.col_of(x), 0b11u);
}

TEST(InputPartition, InputOfInvertsRowCol) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const auto w = InputPartition::random(8, 3, rng);
    for (std::uint64_t x = 0; x < 256; x += 7) {
      EXPECT_EQ(w.input_of(w.row_of(x), w.col_of(x)), x);
    }
  }
}

TEST(InputPartition, RowColCoverAllCells) {
  const auto w = InputPartition::trivial(6, 3);
  std::vector<bool> seen(64, false);
  for (std::uint64_t x = 0; x < 64; ++x) {
    const auto idx = w.row_of(x) * 8 + w.col_of(x);
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST(InputPartition, RandomHasRequestedSizes) {
  Rng rng(17);
  const auto w = InputPartition::random(16, 7, rng);
  EXPECT_EQ(w.free_vars().size(), 7u);
  EXPECT_EQ(w.bound_vars().size(), 9u);
}

TEST(InputPartition, RandomIsSortedAndDisjoint) {
  Rng rng(23);
  const auto w = InputPartition::random(10, 4, rng);
  std::vector<bool> seen(10, false);
  unsigned prev = 0;
  bool first = true;
  for (unsigned v : w.free_vars()) {
    EXPECT_TRUE(first || v > prev);
    prev = v;
    first = false;
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  for (unsigned v : w.bound_vars()) {
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(InputPartition, RejectsInvalid) {
  EXPECT_THROW(InputPartition({}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(InputPartition({0}, {}), std::invalid_argument);
  EXPECT_THROW(InputPartition({0, 0}, {1}), std::invalid_argument);
  EXPECT_THROW(InputPartition({0, 5}, {1}), std::invalid_argument);
  EXPECT_THROW(InputPartition::trivial(4, 0), std::invalid_argument);
  EXPECT_THROW(InputPartition::trivial(4, 4), std::invalid_argument);
}

TEST(InputPartition, ToStringMentionsVariables) {
  const InputPartition w({1, 3}, {0, 2});
  const std::string s = w.to_string();
  EXPECT_NE(s.find("x1"), std::string::npos);
  EXPECT_NE(s.find("x2"), std::string::npos);
}

// ------------------------------------------------------ PartitionIndexer

TEST(PartitionIndexer, MatchesRowColOfExhaustively) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.next_below(8));
    const unsigned free =
        1 + static_cast<unsigned>(rng.next_below(n - 1));
    const auto w = InputPartition::random(n, free, rng);
    const PartitionIndexer idx(w);
    for (std::uint64_t x = 0; x < (std::uint64_t{1} << n); ++x) {
      ASSERT_EQ(idx.row_of(x), w.row_of(x)) << w.to_string() << " x=" << x;
      ASSERT_EQ(idx.col_of(x), w.col_of(x)) << w.to_string() << " x=" << x;
    }
  }
}

TEST(PartitionIndexer, HandlesMultiBytePatterns) {
  // 12 inputs span two LUT bytes; interleave the sets across the byte edge.
  const InputPartition w({0, 7, 8, 11}, {1, 2, 3, 4, 5, 6, 9, 10});
  const PartitionIndexer idx(w);
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << 12); ++x) {
    ASSERT_EQ(idx.row_of(x), w.row_of(x));
    ASSERT_EQ(idx.col_of(x), w.col_of(x));
  }
}

// --------------------------------------------------------- BooleanMatrix

TEST(BooleanMatrix, FromFunctionMatchesTable) {
  auto tt = TruthTable::from_function(4, 1, [](std::uint64_t x) {
    return (x * 7 + 3) & 1;
  });
  const auto w = InputPartition::trivial(4, 2);
  const auto m = BooleanMatrix::from_function(tt, 0, w);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::uint64_t x = 0; x < 16; ++x) {
    EXPECT_EQ(m.at(w.row_of(x), w.col_of(x)), tt.bit(0, x));
  }
}

TEST(BooleanMatrix, FromFunctionIntoReusesStorage) {
  auto tt = TruthTable::from_function(6, 2, [](std::uint64_t x) {
    return (x * 5 + 1) & 3;
  });
  Rng rng(7);
  BooleanMatrix scratch(1, 1);
  for (int trial = 0; trial < 8; ++trial) {
    const unsigned free = 1 + static_cast<unsigned>(rng.next_below(5));
    const auto w = InputPartition::random(6, free, rng);
    const PartitionIndexer idx(w);
    for (unsigned k = 0; k < 2; ++k) {
      BooleanMatrix::from_function_into(tt, k, w, idx, scratch);
      EXPECT_EQ(scratch, BooleanMatrix::from_function(tt, k, w));
    }
  }
}

TEST(BooleanMatrix, ReshapeClearsBits) {
  BooleanMatrix m(2, 2);
  m.set(1, 1, true);
  m.reshape(4, 2);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 2u);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_FALSE(m.at(i, j));
    }
  }
  EXPECT_THROW(m.reshape(0, 2), std::invalid_argument);
}

TEST(BooleanMatrix, RowAndColumnViews) {
  BooleanMatrix m(2, 3);
  m.set(0, 1, true);
  m.set(1, 2, true);
  EXPECT_EQ(m.row(0).to_string(), "010");
  EXPECT_EQ(m.row(1).to_string(), "001");
  EXPECT_EQ(m.column(1).to_string(), "10");
  EXPECT_EQ(m.column(2).to_string(), "01");
}

TEST(BooleanMatrix, DistinctRowsAndColumns) {
  // Matrix from Fig. 2 of the paper: rows (1010),(0000),(0101),(1111)
  // wait -- use the actual figure: V = 1100 with S = (3,1,2,4).
  BooleanMatrix m(4, 4);
  auto set_row = [&m](std::size_t i, const std::string& bits) {
    for (std::size_t j = 0; j < 4; ++j) {
      m.set(i, j, bits[j] == '1');
    }
  };
  set_row(0, "1100");  // V
  set_row(1, "0000");  // all-0
  set_row(2, "1111");  // all-1
  set_row(3, "0011");  // ~V
  EXPECT_EQ(m.distinct_rows().size(), 4u);
  EXPECT_EQ(m.distinct_columns().size(), 2u);
}

TEST(BooleanMatrix, FromFunctionRejectsMismatch) {
  auto tt = TruthTable::from_function(4, 2, [](std::uint64_t) { return 0; });
  const auto w5 = InputPartition::trivial(5, 2);
  EXPECT_THROW((void)BooleanMatrix::from_function(tt, 0, w5),
               std::invalid_argument);
  const auto w4 = InputPartition::trivial(4, 2);
  EXPECT_THROW((void)BooleanMatrix::from_function(tt, 2, w4),
               std::invalid_argument);
}

// ----------------------------------------- Decomposition (Theorems 1, 2)

/// Fig. 2 matrix of the paper: decomposable, V = (1,1,0,0), two column
/// patterns (1,0,1,0) and (0,0,1,1).
BooleanMatrix paper_fig2_matrix() {
  BooleanMatrix m(4, 4);
  const char* rows[4] = {"1100", "0000", "1111", "0011"};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      m.set(i, j, rows[i][j] == '1');
    }
  }
  return m;
}

TEST(Decomposition, PaperFig2RowCheckSucceeds) {
  const auto m = paper_fig2_matrix();
  const auto rs = check_row_decomposition(m);
  ASSERT_TRUE(rs.has_value());
  EXPECT_EQ(rs->pattern.to_string(), "1100");
  EXPECT_EQ(rs->types[0], RowType::kPattern);
  EXPECT_EQ(rs->types[1], RowType::kAllZero);
  EXPECT_EQ(rs->types[2], RowType::kAllOne);
  EXPECT_EQ(rs->types[3], RowType::kComplement);
  EXPECT_EQ(realize(*rs), m);
}

TEST(Decomposition, PaperFig2ColumnCheckSucceeds) {
  const auto m = paper_fig2_matrix();
  const auto cs = check_column_decomposition(m);
  ASSERT_TRUE(cs.has_value());
  EXPECT_EQ(cs->v1.to_string(), "1010");
  EXPECT_EQ(cs->v2.to_string(), "0011");
  EXPECT_EQ(cs->t.to_string(), "0011");
  EXPECT_EQ(realize(*cs), m);
}

TEST(Decomposition, ThreeColumnPatternsFailBothChecks) {
  BooleanMatrix m(2, 3);
  // Columns: 00, 01, 10 -> three distinct columns; rows 001 and 010 are
  // neither constant nor complementary.
  m.set(1, 1, true);
  m.set(0, 2, true);
  EXPECT_FALSE(check_column_decomposition(m).has_value());
  EXPECT_FALSE(check_row_decomposition(m).has_value());
}

TEST(Decomposition, ConstantMatrixDecomposes) {
  BooleanMatrix m(4, 4);
  auto rs = check_row_decomposition(m);
  auto cs = check_column_decomposition(m);
  ASSERT_TRUE(rs.has_value());
  ASSERT_TRUE(cs.has_value());
  EXPECT_EQ(realize(*rs), m);
  EXPECT_EQ(realize(*cs), m);
}

TEST(Decomposition, Theorem1IffTheorem2OnRandomMatrices) {
  Rng rng(99);
  int decomposable = 0;
  for (int trial = 0; trial < 400; ++trial) {
    BooleanMatrix m(4, 4);
    // Small random matrices: some decompose, some do not.
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        m.set(i, j, rng.next_bool());
      }
    }
    const bool row_ok = check_row_decomposition(m).has_value();
    const bool col_ok = check_column_decomposition(m).has_value();
    EXPECT_EQ(row_ok, col_ok) << "Theorem 1 and 2 disagree";
    decomposable += row_ok;
  }
  EXPECT_GT(decomposable, 0);  // the sweep hit both classes
}

TEST(Decomposition, RandomDecomposableAlwaysPassesBothChecks) {
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const auto w = InputPartition::random(8, 3, rng);
    const BitVec out = random_decomposable_output(w, rng);
    TruthTable tt(8, 1);
    tt.set_output(0, out);
    const auto m = BooleanMatrix::from_function(tt, 0, w);
    EXPECT_TRUE(check_row_decomposition(m).has_value());
    EXPECT_TRUE(check_column_decomposition(m).has_value());
  }
}

TEST(Decomposition, SettingConversionsPreserveMatrix) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    ColumnSetting cs;
    cs.v1 = BitVec(5);
    cs.v2 = BitVec(5);
    cs.t = BitVec(6);
    for (std::size_t i = 0; i < 5; ++i) {
      cs.v1.set(i, rng.next_bool());
      cs.v2.set(i, rng.next_bool());
    }
    for (std::size_t j = 0; j < 6; ++j) {
      cs.t.set(j, rng.next_bool());
    }
    const RowSetting rs = to_row_setting(cs);
    EXPECT_EQ(realize(rs), realize(cs));
    const ColumnSetting back = to_column_setting(rs);
    EXPECT_EQ(realize(back), realize(cs));
  }
}

TEST(Decomposition, ComposeOutputMatchesRealize) {
  Rng rng(31);
  const auto w = InputPartition::random(7, 3, rng);
  ColumnSetting cs;
  cs.v1 = BitVec(w.num_rows());
  cs.v2 = BitVec(w.num_rows());
  cs.t = BitVec(w.num_cols());
  for (std::size_t i = 0; i < cs.v1.size(); ++i) {
    cs.v1.set(i, rng.next_bool());
    cs.v2.set(i, rng.next_bool());
  }
  for (std::size_t j = 0; j < cs.t.size(); ++j) {
    cs.t.set(j, rng.next_bool());
  }
  const BitVec out = compose_output(cs, w);
  const auto m = realize(cs);
  for (std::uint64_t x = 0; x < out.size(); ++x) {
    EXPECT_EQ(out.get(x), m.at(w.row_of(x), w.col_of(x)));
  }
}

TEST(Decomposition, MismatchCountZeroForWitness) {
  const auto m = paper_fig2_matrix();
  EXPECT_EQ(mismatch_count(m, *check_row_decomposition(m)), 0u);
  EXPECT_EQ(mismatch_count(m, *check_column_decomposition(m)), 0u);
}

TEST(Decomposition, MismatchCountCountsCells) {
  const auto m = paper_fig2_matrix();
  auto cs = *check_column_decomposition(m);
  cs.t.flip(0);  // column 0 switches from pattern 1 to pattern 2
  EXPECT_EQ(mismatch_count(m, cs),
            m.column(0).hamming_distance(cs.v2));
}

// ----------------------------------------------------------- Metrics

TEST(Decomposition, DominantColumnPairMatchesMapReference) {
  // The reference is the std::map count scan the word-level version
  // replaced: map order is BitVec::operator<, and a strictly larger count
  // displaces the leader. Matrices draw their columns from a few
  // patterns, so counts tie often; r = 64 and 65 straddle a word boundary.
  const auto reference = [](const BooleanMatrix& m) {
    std::map<BitVec, std::size_t> freq;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      ++freq[m.column(j)];
    }
    const BitVec* first = nullptr;
    const BitVec* second = nullptr;
    std::size_t first_count = 0;
    std::size_t second_count = 0;
    for (const auto& [col, count] : freq) {
      if (count > first_count) {
        second = first;
        second_count = first_count;
        first = &col;
        first_count = count;
      } else if (count > second_count) {
        second = &col;
        second_count = count;
      }
    }
    return std::pair<BitVec, BitVec>(
        *first, second != nullptr ? *second : first->complement());
  };
  Rng rng(61);
  for (const std::size_t r : {2u, 16u, 64u, 65u, 128u}) {
    for (const std::size_t c : {1u, 6u, 32u, 40u}) {
      for (const std::size_t patterns : {1u, 2u, 3u, 5u}) {
        for (int trial = 0; trial < 8; ++trial) {
          std::vector<BitVec> pool(patterns, BitVec(r));
          for (BitVec& p : pool) {
            for (std::size_t i = 0; i < r; ++i) {
              p.set(i, rng.next_bool());
            }
          }
          BooleanMatrix m(r, c);
          for (std::size_t j = 0; j < c; ++j) {
            const BitVec& p = pool[rng.next_below(patterns)];
            for (std::size_t i = 0; i < r; ++i) {
              m.set(i, j, p.get(i));
            }
          }
          const auto want = reference(m);
          const auto got = dominant_column_pair(m);
          EXPECT_EQ(got.first, want.first)
              << "r=" << r << " c=" << c << " patterns=" << patterns;
          EXPECT_EQ(got.second, want.second)
              << "r=" << r << " c=" << c << " patterns=" << patterns;
        }
      }
    }
  }
  // One distinct column: the second pattern is its complement.
  BooleanMatrix one(65, 7);
  for (std::size_t j = 0; j < 7; ++j) {
    one.set(64, j, true);
  }
  const auto [a, b] = dominant_column_pair(one);
  EXPECT_EQ(a, one.column(0));
  EXPECT_EQ(b, one.column(0).complement());
}

TEST(BooleanMatrix, ColumnWordsPackEveryColumn) {
  Rng rng(67);
  for (const std::size_t r : {3u, 64u, 65u, 130u}) {
    for (const std::size_t c : {9u, 32u, 64u, 100u}) {
      BooleanMatrix m(r, c);
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          m.set(i, j, rng.next_bool());
        }
      }
      std::vector<std::uint64_t> words(3, ~std::uint64_t{0});
      m.column_words(words);
      const std::size_t wpc = column_word_count(r);
      ASSERT_EQ(words.size(), c * wpc);
      for (std::size_t j = 0; j < c; ++j) {
        const BitVec column = m.column(j);
        const std::vector<std::uint64_t>& want = column.words();
        EXPECT_TRUE(std::equal(want.begin(), want.end(),
                               words.begin() + static_cast<long>(j * wpc)))
            << "r=" << r << " c=" << c << " column " << j;
      }
    }
  }
}

TEST(InputDistributionTest, UniformSumsToOne) {
  const auto d = InputDistribution::uniform(6);
  double total = 0.0;
  for (std::uint64_t x = 0; x < d.num_patterns(); ++x) {
    total += d.prob(x);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_TRUE(d.is_uniform());
}

TEST(InputDistributionTest, WeightsNormalized) {
  auto d = InputDistribution::from_weights({1.0, 3.0, 0.0, 4.0});
  EXPECT_DOUBLE_EQ(d.prob(0), 0.125);
  EXPECT_DOUBLE_EQ(d.prob(1), 0.375);
  EXPECT_DOUBLE_EQ(d.prob(2), 0.0);
  EXPECT_DOUBLE_EQ(d.prob(3), 0.5);
  EXPECT_EQ(d.num_inputs(), 2u);
  EXPECT_FALSE(d.is_uniform());
}

TEST(InputDistributionTest, RejectsBadWeights) {
  EXPECT_THROW((void)InputDistribution::from_weights({1.0, 2.0, 3.0}),
               std::invalid_argument);
  EXPECT_THROW((void)InputDistribution::from_weights({0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)InputDistribution::from_weights({-1.0, 2.0}),
               std::invalid_argument);
  // Finite weights whose total overflows would normalize to all zeros,
  // and an infinite weight to NaN.
  EXPECT_THROW((void)InputDistribution::from_weights({1e308, 1e308}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)InputDistribution::from_weights(
          {std::numeric_limits<double>::infinity(), 1.0}),
      std::invalid_argument);
}

TEST(Metrics, ErrorRateSingleOutput) {
  const auto d = InputDistribution::uniform(3);
  BitVec a(8);
  BitVec b(8);
  b.set(0, true);
  b.set(5, true);
  EXPECT_DOUBLE_EQ(error_rate(a, b, d), 0.25);
  EXPECT_DOUBLE_EQ(error_rate(a, a, d), 0.0);
}

TEST(Metrics, ErrorRateMultiOutputAnyBit) {
  const auto d = InputDistribution::uniform(2);
  auto g = TruthTable::from_function(2, 2, [](std::uint64_t x) { return x; });
  auto h = g;
  h.set_word(1, 0);  // one pattern differs (in one bit)
  h.set_word(2, 1);  // another differs (in two bits) -- still one pattern
  EXPECT_DOUBLE_EQ(error_rate(g, h, d), 0.5);
}

TEST(Metrics, MedMatchesHandComputation) {
  const auto d = InputDistribution::uniform(2);
  auto g = TruthTable::from_function(2, 3, [](std::uint64_t x) { return x; });
  auto h = g;
  h.set_word(0, 4);  // |0-4| = 4
  h.set_word(3, 1);  // |3-1| = 2
  EXPECT_DOUBLE_EQ(mean_error_distance(g, h, d), (4.0 + 2.0) / 4.0);
}

TEST(Metrics, MedWeightedByDistribution) {
  auto d = InputDistribution::from_weights({3.0, 1.0});
  auto g = TruthTable::from_function(1, 2, [](std::uint64_t) { return 0; });
  auto h = g;
  h.set_word(0, 2);
  EXPECT_DOUBLE_EQ(mean_error_distance(g, h, d), 0.75 * 2.0);
}

TEST(Metrics, WorstCaseError) {
  auto g = TruthTable::from_function(2, 4, [](std::uint64_t x) { return x; });
  auto h = g;
  h.set_word(1, 9);
  h.set_word(2, 3);
  EXPECT_EQ(worst_case_error(g, h), 8u);
  EXPECT_EQ(worst_case_error(g, g), 0u);
}

TEST(Metrics, MeanRelativeError) {
  const auto d = InputDistribution::uniform(1);
  auto g = TruthTable::from_function(1, 3, [](std::uint64_t x) {
    return x == 0 ? 0 : 4;
  });
  auto h = g;
  h.set_word(0, 1);  // |0-1|/max(1,0) = 1
  h.set_word(1, 2);  // |4-2|/4 = 0.5
  EXPECT_DOUBLE_EQ(mean_relative_error(g, h, d), (1.0 + 0.5) / 2.0);
}

TEST(Metrics, ShapeMismatchThrows) {
  const auto d = InputDistribution::uniform(3);
  auto g = TruthTable::from_function(2, 2, [](std::uint64_t x) { return x; });
  EXPECT_THROW((void)mean_error_distance(g, g, d), std::invalid_argument);
  auto h = TruthTable::from_function(2, 3, [](std::uint64_t x) { return x; });
  EXPECT_THROW((void)g.diff_count(h), std::invalid_argument);
}

// Property sweep: MED is zero iff tables are equal, ER bounds MED/ max.
class MetricPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MetricPropertyTest, MedZeroIffEqualAndBounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const unsigned n = 5;
  const unsigned m = 4;
  const auto d = InputDistribution::uniform(n);
  auto g = TruthTable::from_function(
      n, m, [&](std::uint64_t) { return rng.next_u64() & 0xF; });
  auto h = TruthTable::from_function(
      n, m, [&](std::uint64_t) { return rng.next_u64() & 0xF; });

  const double med = mean_error_distance(g, h, d);
  const double er = error_rate(g, h, d);
  const auto wce = worst_case_error(g, h);

  EXPECT_EQ(med == 0.0, g == h);
  EXPECT_EQ(er == 0.0, g == h);
  // Per-pattern distance is at least 1 whenever the word differs and at
  // most WCE, so er <= med <= er * wce.
  EXPECT_LE(er, med + 1e-12);
  EXPECT_LE(med, er * static_cast<double>(wce) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace adsd
