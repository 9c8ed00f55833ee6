#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace adsd {

/// Bit v set for each listed variable v (every v < 64).
inline std::uint64_t variable_mask(const std::vector<unsigned>& vars) {
  std::uint64_t mask = 0;
  for (unsigned v : vars) {
    mask |= std::uint64_t{1} << v;
  }
  return mask;
}

/// first[i] is the lowest index j with keys[j] == keys[i], so first[i] == i
/// marks a first occurrence. Found by sorting (key, index) pairs:
/// O(P log P) compares of integer keys.
template <class Key>
std::vector<std::size_t> first_occurrences(const std::vector<Key>& keys) {
  std::vector<std::pair<Key, std::size_t>> order(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    order[i] = {keys[i], i};
  }
  std::sort(order.begin(), order.end());
  std::vector<std::size_t> first(keys.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const bool repeat = k > 0 && order[k].first == order[k - 1].first;
    first[order[k].second] = repeat ? first[order[k - 1].second]
                                    : order[k].second;
  }
  return first;
}

/// A disjoint partition w = {A, B} of the n input variables.
///
/// A is the *free set* (its variables index the rows of the Boolean matrix)
/// and B is the *bound set* (columns). Variable positions refer to bit
/// positions of the input code. The i-th listed variable of a set supplies
/// bit i of the corresponding row/column index, so the partition fully
/// determines the row/column coordinate system.
class InputPartition {
 public:
  InputPartition(std::vector<unsigned> free_vars,
                 std::vector<unsigned> bound_vars);

  /// Partition with A = {0, .., free_size-1}, B = the rest.
  static InputPartition trivial(unsigned num_inputs, unsigned free_size);

  /// Uniformly random partition with the given free-set size.
  static InputPartition random(unsigned num_inputs, unsigned free_size,
                               Rng& rng);

  unsigned num_inputs() const { return num_inputs_; }
  const std::vector<unsigned>& free_vars() const { return free_vars_; }
  const std::vector<unsigned>& bound_vars() const { return bound_vars_; }

  std::uint64_t num_rows() const { return std::uint64_t{1} << free_vars_.size(); }
  std::uint64_t num_cols() const { return std::uint64_t{1} << bound_vars_.size(); }

  /// Row index of an input pattern (bits of x at the free positions).
  std::uint64_t row_of(std::uint64_t x) const;

  /// Column index of an input pattern (bits of x at the bound positions).
  std::uint64_t col_of(std::uint64_t x) const;

  /// Input pattern whose free bits spell `row` and bound bits spell `col`.
  std::uint64_t input_of(std::uint64_t row, std::uint64_t col) const;

  bool operator==(const InputPartition& other) const {
    return free_vars_ == other.free_vars_ && bound_vars_ == other.bound_vars_;
  }

  /// The free set as one integer, bit v set for free variable v (n <= 63),
  /// whatever the listed order: equal masks name the same split.
  std::uint64_t free_mask() const { return variable_mask(free_vars_); }

  /// "A={...} B={...}" for logs.
  std::string to_string() const;

 private:
  unsigned num_inputs_;
  std::vector<unsigned> free_vars_;
  std::vector<unsigned> bound_vars_;
};

/// The input patterns of a Boolean matrix's cells: cell (i, j) holds the
/// function's value at input pattern rows[i] | cols[j]. rows[i] is the row
/// index i deposited onto the free variable positions (bit k of i moves to
/// bit free_vars[k]) and cols[j] the column index deposited onto the bound
/// positions, so a cell's pattern costs one OR and no per-pattern index
/// work. Both arrays are built by doubling: entry half + i is entry i with
/// one more variable bit set.
struct CellPatterns {
  std::vector<std::uint64_t> rows;
  std::vector<std::uint64_t> cols;

  /// The cells of the matrix under `w`, reusing the arrays' storage.
  void assign(const InputPartition& w) {
    assign(w.free_vars(), w.bound_vars(), 0);
  }

  /// General form: `offset` is ORed into every row pattern (a
  /// non-disjoint partition's slice, its shared bits deposited).
  void assign(const std::vector<unsigned>& free_vars,
              const std::vector<unsigned>& bound_vars, std::uint64_t offset);
};

/// Precomputed byte-wise lookup tables for a partition's (row_of, col_of)
/// maps. row_of/col_of gather scattered bits one at a time — O(free + bound)
/// shifts per pattern — and the DALTA hot loop calls them for all 2^n
/// patterns of every candidate partition. The indexer instead splits the
/// pattern into bytes and ORs one 256-entry table lookup per byte: the
/// tables fold the entire bit scatter of that byte into a single load, so a
/// full (row, col) pair costs 2 * ceil(n / 8) table loads.
class PartitionIndexer {
 public:
  explicit PartitionIndexer(const InputPartition& w);

  /// Identical to w.row_of(x) / w.col_of(x) for every x in [0, 2^n).
  std::uint64_t row_of(std::uint64_t x) const {
    return lookup(row_lut_, x);
  }
  std::uint64_t col_of(std::uint64_t x) const {
    return lookup(col_lut_, x);
  }

 private:
  std::uint64_t lookup(const std::vector<std::uint64_t>& lut,
                       std::uint64_t x) const {
    std::uint64_t out = 0;
    for (std::size_t b = 0; b < bytes_; ++b) {
      out |= lut[b * 256 + ((x >> (8 * b)) & 0xff)];
    }
    return out;
  }

  std::size_t bytes_;
  std::vector<std::uint64_t> row_lut_;  // bytes_ * 256
  std::vector<std::uint64_t> col_lut_;  // bytes_ * 256
};

}  // namespace adsd
