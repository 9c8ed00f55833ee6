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

  /// Resizes to rows x cols and clears every bit.
  void reshape(std::size_t rows, std::size_t cols);

  /// Row-major bit storage (cell (i, j) at bit i * cols() + j, BitVec's
  /// layout) for a pass that writes whole words, such as the one-pass COP
  /// build; the caller keeps the bits past rows() * cols() zero.
  std::uint64_t* word_data() { return bits_.word_data(); }

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
