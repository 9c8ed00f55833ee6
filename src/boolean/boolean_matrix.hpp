#pragma once

#include <cstdint>
#include <vector>

#include "boolean/partition.hpp"
#include "boolean/truth_table.hpp"
#include "support/bitvec.hpp"

namespace adsd {

/// The Boolean matrix of one component function under an input partition:
/// rows are indexed by the free-set assignment, columns by the bound-set
/// assignment, entry (i, j) is the function value at the corresponding
/// input pattern.
class BooleanMatrix {
 public:
  BooleanMatrix(std::size_t rows, std::size_t cols);

  /// Materializes the matrix of output `k` of `tt` under partition `w`.
  static BooleanMatrix from_function(const TruthTable& tt, unsigned k,
                                     const InputPartition& w);

  /// Allocation-free variant for hot loops: materializes the matrix of
  /// output `k` under `w` into `out`, reshaping it as needed (reusing its
  /// bit storage when the capacity already fits). `idx` must be the indexer
  /// of `w`; the caller keeps it alive across the outputs of one partition
  /// so the byte LUTs are built once per candidate, not once per output.
  static void from_function_into(const TruthTable& tt, unsigned k,
                                 const InputPartition& w,
                                 const PartitionIndexer& idx,
                                 BooleanMatrix& out);

  /// One-pass gather: reshapes to cells.rows.size() x cells.cols.size()
  /// and fills the matrix row-major from the packed 2^n-bit column `g`,
  /// cell (i, j) taking bit cells.rows[i] | cells.cols[j], a whole storage
  /// word at a time. In the same pass cell(idx, x, bit) runs for every
  /// cell (idx = i * cols() + j, x the cell's input pattern) and
  /// row_done(i) once row i is through, so a caller builds its other
  /// per-cell tables alongside and finishes each row while it is in cache.
  /// Every cell pattern must index into `g`.
  template <class Cell, class RowDone>
  void gather(const BitVec& g, const CellPatterns& cells, Cell&& cell,
              RowDone&& row_done);

  /// Resizes to rows x cols and clears every bit.
  void reshape(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  bool at(std::size_t i, std::size_t j) const {
    return bits_.get(i * cols_ + j);
  }
  void set(std::size_t i, std::size_t j, bool v) {
    bits_.set(i * cols_ + j, v);
  }

  /// Copy of row i as a BitVec of length cols().
  BitVec row(std::size_t i) const;

  /// Copy of column j as a BitVec of length rows().
  BitVec column(std::size_t j) const;

  /// Distinct row patterns in first-appearance order.
  std::vector<BitVec> distinct_rows() const;

  /// Distinct column patterns in first-appearance order.
  std::vector<BitVec> distinct_columns() const;

  /// Packs every column into column_word_count(rows()) words (layout at
  /// sort_column_words), reusing `out`'s storage.
  void column_words(std::vector<std::uint64_t>& out) const;

  bool operator==(const BooleanMatrix& other) const;
  bool operator!=(const BooleanMatrix& other) const {
    return !(*this == other);
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  BitVec bits_;  // row-major
};

template <class Cell, class RowDone>
void BooleanMatrix::gather(const BitVec& g, const CellPatterns& cells,
                           Cell&& cell, RowDone&& row_done) {
  reshape(cells.rows.size(), cells.cols.size());
  const std::uint64_t* table = g.words().data();
  const std::uint64_t* col_patterns = cells.cols.data();
  std::size_t idx = 0;
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    const std::uint64_t row = cells.rows[i];
    for (std::size_t j = 0; j < cols_; ++j, ++idx) {
      const std::uint64_t x = row | col_patterns[j];
      const std::uint64_t bit = (table[x >> 6] >> (x & 63)) & 1;
      word |= bit << (idx & 63);
      cell(idx, x, bit != 0);
      if ((idx & 63) == 63) {
        bits_.set_word(idx >> 6, word);
        word = 0;
      }
    }
    row_done(i);
  }
  if ((idx & 63) != 0) {
    bits_.set_word(idx >> 6, word);
  }
}

/// Words per packed column of an r-row matrix: ceil(r / 64).
inline std::size_t column_word_count(std::size_t rows) {
  return (rows + 63) / 64;
}

/// Sorts the column indices [0, cols) of `words` -- cols packed columns of
/// `wpc` words each, column j at [j * wpc, (j + 1) * wpc), row i at bit
/// i % 64 of word i / 64 (BitVec's layout) -- ascending, comparing the
/// words lexicographically as unsigned integers. That is BitVec::operator<
/// on same-size columns, and equal columns end up adjacent. Reuses
/// `order`'s storage.
void sort_column_words(const std::vector<std::uint64_t>& words,
                       std::size_t wpc, std::vector<std::uint32_t>& order);

}  // namespace adsd
