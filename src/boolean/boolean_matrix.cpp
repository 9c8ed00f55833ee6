#include "boolean/boolean_matrix.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

namespace adsd {

BooleanMatrix::BooleanMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), bits_(rows * cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("BooleanMatrix: empty shape");
  }
}

BooleanMatrix BooleanMatrix::from_function(const TruthTable& tt, unsigned k,
                                           const InputPartition& w) {
  BooleanMatrix m(w.num_rows(), w.num_cols());
  from_function_into(tt, k, w, PartitionIndexer(w), m);
  return m;
}

void BooleanMatrix::from_function_into(const TruthTable& tt, unsigned k,
                                       const InputPartition& w,
                                       const PartitionIndexer& idx,
                                       BooleanMatrix& out) {
  if (w.num_inputs() != tt.num_inputs()) {
    throw std::invalid_argument(
        "BooleanMatrix::from_function: partition does not match the table");
  }
  if (k >= tt.num_outputs()) {
    throw std::invalid_argument("BooleanMatrix::from_function: bad output");
  }
  out.reshape(w.num_rows(), w.num_cols());
  const BitVec& g = tt.output(k);
  // Iterate over input patterns once rather than over (row, col) pairs; the
  // indexer resolves each pattern's (row, col) with byte-LUT gathers.
  const std::uint64_t patterns = tt.num_patterns();
  const std::size_t cols = out.cols_;
  for (std::uint64_t x = 0; x < patterns; ++x) {
    out.bits_.set(idx.row_of(x) * cols + idx.col_of(x), g.get(x));
  }
}

void BooleanMatrix::reshape(std::size_t rows, std::size_t cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("BooleanMatrix: empty shape");
  }
  rows_ = rows;
  cols_ = cols;
  bits_.resize(rows * cols);
  bits_.fill(false);
}

BitVec BooleanMatrix::row(std::size_t i) const {
  BitVec out(cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    out.set(j, at(i, j));
  }
  return out;
}

BitVec BooleanMatrix::column(std::size_t j) const {
  BitVec out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    out.set(i, at(i, j));
  }
  return out;
}

std::vector<BitVec> BooleanMatrix::distinct_rows() const {
  std::vector<BitVec> out;
  std::unordered_set<std::size_t> seen;
  for (std::size_t i = 0; i < rows_; ++i) {
    BitVec r = row(i);
    const std::size_t h = r.hash();
    if (seen.count(h) != 0) {
      bool dup = false;
      for (const auto& existing : out) {
        if (existing == r) {
          dup = true;
          break;
        }
      }
      if (dup) {
        continue;
      }
    }
    seen.insert(h);
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<BitVec> BooleanMatrix::distinct_columns() const {
  std::vector<BitVec> out;
  for (std::size_t j = 0; j < cols_; ++j) {
    BitVec c = column(j);
    bool dup = false;
    for (const auto& existing : out) {
      if (existing == c) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      out.push_back(std::move(c));
    }
  }
  return out;
}

namespace {

/// Transposes an s x s bit block in place (s a power of two <= 64, the
/// block in the low s bits of a[0, s)): bit j of a[i] moves to bit i of
/// a[j]. log2(s) rounds of swapping the off-diagonal halves of ever smaller
/// sub-blocks; at s = 64 this is the full word-block transpose.
void transpose_block(std::uint64_t* a, std::size_t s) {
  if (s < 2) {
    return;
  }
  std::size_t j = s / 2;
  // Low j bits of every 2j-bit group: 0x00000000FFFFFFFF at j = 32.
  std::uint64_t m = ~std::uint64_t{0} / ((std::uint64_t{1} << j) + 1);
  for (; j != 0; j >>= 1, m ^= m << j) {
    for (std::size_t k = 0; k < s; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

/// `len` <= 64 bits of `words` starting at bit `pos`, in the low bits.
std::uint64_t bits_at(const std::vector<std::uint64_t>& words,
                      std::size_t pos, std::size_t len) {
  const std::size_t w = pos / 64;
  const unsigned shift = pos % 64;
  std::uint64_t out = words[w] >> shift;
  if (shift != 0 && shift + len > 64) {
    out |= words[w + 1] << (64 - shift);
  }
  return len == 64 ? out : out & ((std::uint64_t{1} << len) - 1);
}

}  // namespace

void BooleanMatrix::column_words(std::vector<std::uint64_t>& out) const {
  // s x s tiles of the row-major bits, each transposed once: word j of a
  // transposed tile is s rows of column j, one whole column word past 64
  // rows. Under 64 rows the tile shrinks to the rows (16 x 16 for a
  // 16-row matrix), so no work goes to absent rows.
  const std::size_t wpc = column_word_count(rows_);
  out.resize(cols_ * wpc);
  const std::vector<std::uint64_t>& bits = bits_.words();
  const std::size_t s = std::bit_ceil(std::min<std::size_t>(rows_, 64));
  std::uint64_t tile[64];
  for (std::size_t i0 = 0; i0 < rows_; i0 += s) {
    const std::size_t live_rows = std::min(s, rows_ - i0);
    for (std::size_t j0 = 0; j0 < cols_; j0 += s) {
      const std::size_t live_cols = std::min(s, cols_ - j0);
      for (std::size_t t = 0; t < s; ++t) {
        tile[t] = t < live_rows
                      ? bits_at(bits, (i0 + t) * cols_ + j0, live_cols)
                      : 0;
      }
      transpose_block(tile, s);
      for (std::size_t t = 0; t < live_cols; ++t) {
        out[(j0 + t) * wpc + i0 / 64] = tile[t];
      }
    }
  }
}

void sort_column_words(const std::vector<std::uint64_t>& words,
                       std::size_t wpc, std::vector<std::uint32_t>& order) {
  order.resize(words.size() / wpc);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(),
            [&words, wpc](std::uint32_t a, std::uint32_t b) {
              const std::uint64_t* ka = words.data() + a * wpc;
              const std::uint64_t* kb = words.data() + b * wpc;
              return std::lexicographical_compare(ka, ka + wpc, kb, kb + wpc);
            });
}

bool BooleanMatrix::operator==(const BooleanMatrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         bits_ == other.bits_;
}

}  // namespace adsd
