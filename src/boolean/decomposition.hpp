#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "boolean/boolean_matrix.hpp"
#include "boolean/partition.hpp"
#include "boolean/truth_table.hpp"
#include "support/bitvec.hpp"
#include "support/rng.hpp"

namespace adsd {

/// Row classification of Theorem 1 (Shen-McKellar, row-based condition):
/// every row of a decomposable matrix is all-zeros, all-ones, a fixed
/// pattern V, or the complement of V.
enum class RowType : std::uint8_t {
  kAllZero = 0,
  kAllOne = 1,
  kPattern = 2,
  kComplement = 3,
};

/// Row-based decomposition setting (V, S): the fixed row pattern V (one bit
/// per column) and the per-row type vector S. Together with the partition it
/// fully determines the decomposed function g(X) = F(phi(B), A).
struct RowSetting {
  BitVec pattern;             // V, length = number of columns
  std::vector<RowType> types; // S, length = number of rows

  /// Value of the (re)composed function at matrix cell (i, j).
  bool value(std::size_t i, std::size_t j) const {
    switch (types[i]) {
      case RowType::kAllZero:
        return false;
      case RowType::kAllOne:
        return true;
      case RowType::kPattern:
        return pattern.get(j);
      case RowType::kComplement:
        return !pattern.get(j);
    }
    return false;  // unreachable
  }
};

/// Column-based decomposition setting (V1, V2, T) of Theorem 2: two column
/// patterns (one bit per row) and a per-column type selector. T_j = 0 picks
/// V1 for column j, T_j = 1 picks V2. This is the representation the Ising
/// formulation optimizes: it is quadratic in the binary unknowns.
struct ColumnSetting {
  BitVec v1;  // column pattern 1, length = number of rows
  BitVec v2;  // column pattern 2, length = number of rows
  BitVec t;   // column type vector, length = number of columns

  /// Value of the (re)composed function at matrix cell (i, j), i.e. Eq. (3).
  bool value(std::size_t i, std::size_t j) const {
    return t.get(j) ? v2.get(i) : v1.get(i);
  }
};

/// Theorem 1 check. Returns a witness setting when the matrix has a disjoint
/// decomposition, std::nullopt otherwise. When all rows are constant any
/// pattern works; the all-zeros pattern is returned.
std::optional<RowSetting> check_row_decomposition(const BooleanMatrix& m);

/// Theorem 2 check. Returns a witness setting when the matrix has at most
/// two distinct columns. With a single distinct column, V1 = V2 = that
/// column and T = 0.
std::optional<ColumnSetting> check_column_decomposition(const BooleanMatrix& m);

/// Converts a column setting into the equivalent row setting (V = T; the row
/// type follows from the pair (V1_i, V2_i)). The two representations always
/// describe the same matrix.
RowSetting to_row_setting(const ColumnSetting& cs);

/// Converts a row setting into the equivalent column setting (T = V).
ColumnSetting to_column_setting(const RowSetting& rs);

/// Materializes the matrix described by a setting.
BooleanMatrix realize(const ColumnSetting& cs);
BooleanMatrix realize(const RowSetting& rs);

/// Truth-table column (2^n bits) of the decomposed function under `w`.
BitVec compose_output(const ColumnSetting& cs, const InputPartition& w);

/// Number of matrix cells where the setting disagrees with `m`
/// (unweighted error; the weighted objectives live in core/).
std::uint64_t mismatch_count(const BooleanMatrix& m, const ColumnSetting& cs);
std::uint64_t mismatch_count(const BooleanMatrix& m, const RowSetting& rs);

/// Random single-output function that decomposes exactly under `w`
/// (used by tests and the exact-case benchmarks).
BitVec random_decomposable_output(const InputPartition& w, Rng& rng);

/// The two most frequent distinct columns of `m`. The first has the
/// highest count, ties going to the smallest column under BitVec::
/// operator< (its words compared lexicographically as unsigned integers,
/// word 0 first); the second is the runner-up by the same rule, or the
/// complement of the first when only one distinct column exists. This is
/// the natural 2-clustering seed for the column
/// patterns: the greedy baseline starts from it, and the Ising solver uses
/// it to break the V1 <-> V2 exchange symmetry of the formulation (see
/// IsingCoreSolver::Options::column_seed_init).
std::pair<BitVec, BitVec> dominant_column_pair(const BooleanMatrix& m);

}  // namespace adsd
