#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace adsd {

/// The exact-sum rule, four lanes wide: per lane the sum of magnitudes and
/// the smallest grid step 2^L that holds every nonzero value, its lowest
/// set bit. When every value is an integer multiple of 2^L and their
/// magnitudes sum to at most 2^(52+L), every partial sum of any subset lies
/// on the 2^L grid within 2^(52+L), so no addition rounds and a sum in any
/// order gives the same double. IsingModel::exact_arithmetic() applies it
/// to a model's coefficients and the reference ColumnCop builds to their
/// base and gain planes.
///
/// The lowest set bit is found on the bit fields: clearing the lowest set
/// mantissa bit and subtracting gives its weight exactly; a power of two
/// (no mantissa bit set) is its own weight. An inf or NaN makes the sum inf
/// or NaN, which fails the bound.
struct GridScan {
  static constexpr std::uint64_t kAbs = ~(std::uint64_t{1} << 63);
  static constexpr std::uint64_t kFrac = (std::uint64_t{1} << 52) - 1;
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  double total[4] = {};
  double step[4] = {kInf, kInf, kInf, kInf};

  /// Folds |v| into lane q.
  void add(double v, std::size_t q) {
    const std::uint64_t u = std::bit_cast<std::uint64_t>(v) & kAbs;
    const double a = std::bit_cast<double>(u);
    const double low =
        (u & kFrac) != 0 ? a - std::bit_cast<double>(u & (u - 1)) : a;
    total[q] += a;
    step[q] = std::min(step[q], u != 0 ? low : kInf);
  }

  void add_all(std::span<const double> values) {
    const std::size_t n = values.size();
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      for (std::size_t q = 0; q < 4; ++q) {
        add(values[k + q], q);
      }
    }
    for (; k < n; ++k) {
      add(values[k], k - (n & ~std::size_t{3}));
    }
  }

  /// Folds in a scan whose magnitudes count `times` (1, or 2 for plane
  /// entries, each two coupled pairs; doubling is exact).
  void merge(const GridScan& other, double times) {
    for (std::size_t q = 0; q < 4; ++q) {
      total[q] += times * other.total[q];
      step[q] = std::min(step[q], other.step[q]);
    }
  }

  /// The sum of magnitudes, as summed, is at most the bound exactly when
  /// the true sum is: below the bound every partial sum is a grid multiple
  /// within 2^(53+L), so none rounds, and the first partial sum past it is
  /// still exact (or rounds up), and no later one is smaller.
  bool exact() const {
    const double sum = (total[0] + total[1]) + (total[2] + total[3]);
    const double grid =
        std::min(std::min(step[0], step[1]), std::min(step[2], step[3]));
    // 2^(52+L), capped at 2^1022 so that a doubled field stays finite (an
    // all-zero scan has an infinite step and passes with a zero sum).
    return sum <= std::min(grid * 0x1p52, 0x1p1022);
  }
};

/// A sum kept exactly whatever the order of its terms (Shewchuk's
/// non-overlapping partials, as in Python's math.fsum): value() is the
/// exact sum of the finite terms rounded once, to nearest even, so any
/// permutation of one multiset of terms reads the same double. Non-finite
/// terms add up on their own (inf - inf is NaN), and a sum whose partials
/// overflow reads +-inf.
class ExactSum {
 public:
  void add(double x);
  double value() const;

 private:
  std::vector<double> partials_;  // non-overlapping, increasing magnitude
  double special_ = 0.0;          // the non-finite terms and overflows
};

}  // namespace adsd
