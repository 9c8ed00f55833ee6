#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/cop_passes.hpp"

#ifdef __AVX512F__
#include <immintrin.h>
#endif

// The COP passes (cop_passes.hpp), written once and compiled by each ISA
// tier's translation unit with its own -m flags, as bipartite_pass.hpp is
// for the force kernels. Everything here has internal linkage and reads
// and writes raw pointers only, so no instantiation, helper or container
// code of one tier can be shared with (and picked by the linker for)
// another tier or a baseline caller. The loops are plain C++: each tier
// gets what the compiler makes of them at its width (zmm or xmm
// registers; BMI2's flag-free shifts for the bit gather). In the build
// and the resets, vectorization runs across independent cells and
// columns only, never across one sum's terms, and the build pins
// -ffp-contract=off, so every tier rounds exactly as the portable one.
// The certified objective and its base total are the passes that split a
// sum: they serve only COPs on which no partial sum rounds, and their
// accumulators (MaskedSum) are the one piece written per tier.

namespace adsd::cop_passes_impl {
namespace {

/// One separate-mode cell: ED = O + (1 - 2O) * Ohat (Eq. 6/7), so
/// cost(Ohat = 0) = O and cost(1) = 1 - O.
inline void separate_cell(double p, bool exact_bit, double& base,
                          double& gain) {
  const double o = static_cast<double>(exact_bit);
  base = p * o;
  gain = p * (1.0 - 2.0 * o);
}

/// One joint-mode cell: ED = |2^(k-1) Ohat + D|, linearized per the sign
/// of D (Eqs. 12-15):
///   -2^(k-1) <= D <= 0 : ED = (2^(k-1) + 2D) Ohat - D
///   otherwise           : ED = 2^(k-1) sgn(D) Ohat + |D|.
/// Both branches are exact for Ohat in {0, 1}. Both are computed and one
/// is selected, so no branch depends on D and a row loop vectorizes:
/// 2^(k-1) sgn(D) is +-2^(k-1) exactly, and |D| is D above 0 and -D
/// below, as on the first branch (-0.0 at D = +0.0).
inline void joint_cell(double p, double dij, double bit_weight, double& base,
                       double& gain) {
  const double sum = bit_weight + 2.0 * dij;
  const double side = dij > 0.0 ? bit_weight : -bit_weight;
  const double q = (dij >= -bit_weight) & (dij <= 0.0) ? sum : side;
  const double b = dij > 0.0 ? dij : -dij;
  base = p * b;
  gain = p * q;
}

/// The build pass: walks the cells row-major, gathering each cell's output
/// bit into a word that is stored once full. Separate mode writes the
/// cell's base and gain as it goes. Joint mode stages the cell's D in base
/// (and a non-uniform probability in gain), then turns each finished row
/// into base and gain in one contiguous loop.
template <bool kJoint, bool kUniform>
inline void build_cells(const CopBuildPlanes& p) {
  // Every operand in a local: a store through bits, base or gain could
  // otherwise alias a field of p and force it to be reloaded per cell.
  const std::uint64_t* table = p.output;
  const std::uint64_t* col_patterns = p.cols;
  const double* d = p.d;
  const double* probs = p.probs;
  const double uniform_prob = p.uniform_prob;
  const double bit_weight = p.bit_weight;
  std::uint64_t* bits = p.bits;
  const std::size_t r = p.r;
  const std::size_t c = p.c;
  std::size_t idx = 0;
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < r; ++i) {
    const std::uint64_t row = p.rows[i];
    double* base = p.base + i * c;
    double* gain = p.gain + i * c;
    for (std::size_t j = 0; j < c; ++j, ++idx) {
      const std::uint64_t x = row | col_patterns[j];
      const std::uint64_t bit = (table[x >> 6] >> (x & 63)) & 1;
      word |= bit << (idx & 63);
      if ((idx & 63) == 63) {
        bits[idx >> 6] = word;
        word = 0;
      }
      if constexpr (kJoint) {
        base[j] = d[x];
        if constexpr (!kUniform) {
          gain[j] = probs[x];
        }
      } else {
        separate_cell(kUniform ? uniform_prob : probs[x], bit != 0, base[j],
                      gain[j]);
      }
    }
    if constexpr (kJoint) {
      for (std::size_t j = 0; j < c; ++j) {
        joint_cell(kUniform ? uniform_prob : gain[j], base[j], bit_weight,
                   base[j], gain[j]);
      }
    }
  }
  if ((idx & 63) != 0) {
    bits[idx >> 6] = word;
  }
}

inline void build(const CopBuildPlanes& p) {
  const bool uniform = p.probs == nullptr;
  if (p.joint) {
    uniform ? build_cells<true, true>(p) : build_cells<true, false>(p);
  } else {
    uniform ? build_cells<false, true>(p) : build_cells<false, false>(p);
  }
}

/// True when bit i of `words` is set.
inline bool bit_at(const std::uint64_t* words, std::size_t i) {
  return ((words[i >> 6] >> (i & 63)) & 1) != 0;
}

/// The T reset (Theorem 3). Row-outer over blocks of up to kCols columns:
/// a row whose V1 (V2) bit is set adds its gains to the block's pattern-1
/// (pattern-2) costs, so every column sums its rows in ascending i, and
/// T_j = 1 iff cost2 < cost1. The add loops run over contiguous columns
/// at the tier's vector width.
inline void reset_t(const HalfStepPlanes& p) {
  constexpr std::size_t kCols = 512;  // a multiple of 64: 8 KiB of costs
  double cost1[kCols];
  double cost2[kCols];
  for (std::size_t j0 = 0; j0 < p.c; j0 += kCols) {
    const std::size_t n = std::min(kCols, p.c - j0);
    std::fill_n(cost1, n, 0.0);
    std::fill_n(cost2, n, 0.0);
    for (std::size_t i = 0; i < p.r; ++i) {
      const double* g = p.gain + i * p.c + j0;
      if (bit_at(p.v1, i)) {
        for (std::size_t j = 0; j < n; ++j) {
          cost1[j] += g[j];
        }
      }
      if (bit_at(p.v2, i)) {
        for (std::size_t j = 0; j < n; ++j) {
          cost2[j] += g[j];
        }
      }
    }
    for (std::size_t j = 0; j < n; j += 64) {
      const std::size_t end = std::min(n, j + 64);
      std::uint64_t word = 0;
      for (std::size_t k = j; k < end; ++k) {
        word |= static_cast<std::uint64_t>(cost2[k] < cost1[k]) << (k - j);
      }
      p.t[(j0 + j) >> 6] = word;
    }
  }
}

/// Rows [i, i + rows) of the V reset, rows <= 8: each row's V1 sum walks
/// the clear T bits and its V2 sum the set ones, in ascending j, the rows
/// side by side. Returns the rows' V1 bits in bits 0-7 and their V2 bits
/// in 8-15.
inline std::uint64_t v_rows(const HalfStepPlanes& p, std::size_t i,
                            std::size_t rows) {
  const std::size_t c = p.c;
  const double* g = p.gain + i * c;
  double sum1[8] = {};
  double sum2[8] = {};
  const auto walk = [&](std::size_t live) {
    for (std::size_t j0 = 0; j0 < c; j0 += 64) {
      const std::uint64_t t = p.t[j0 >> 6];  // tail bits past c are zero
      const std::uint64_t valid = c - j0 >= 64
                                      ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << (c - j0)) - 1;
      for (std::uint64_t m = ~t & valid; m != 0; m &= m - 1) {
        const std::size_t j = j0 + std::countr_zero(m);
        for (std::size_t k = 0; k < live; ++k) {
          sum1[k] += g[k * c + j];
        }
      }
      for (std::uint64_t m = t; m != 0; m &= m - 1) {
        const std::size_t j = j0 + std::countr_zero(m);
        for (std::size_t k = 0; k < live; ++k) {
          sum2[k] += g[k * c + j];
        }
      }
    }
  };
  if (rows == 8) {
    walk(8);  // a constant count, so the full block unrolls
  } else {
    walk(rows);
  }
  std::uint64_t bits = 0;
  for (std::size_t k = 0; k < rows; ++k) {
    bits |= static_cast<std::uint64_t>(sum1[k] < 0.0) << k;
    bits |= static_cast<std::uint64_t>(sum2[k] < 0.0) << (k + 8);
  }
  return bits;
}

/// The V reset: V1_i = 1 iff row i's gains over the columns with T_j = 0
/// sum below zero in ascending j, V2_i likewise over T_j = 1. Rows are
/// independent chains, run in blocks of eight (blocks never straddle a V
/// word). Returns true when a V1 or V2 word changed.
inline bool reset_v(const HalfStepPlanes& p) {
  bool moved = false;
  for (std::size_t i0 = 0; i0 < p.r; i0 += 64) {
    const std::size_t i_end = std::min(p.r, i0 + 64);
    std::uint64_t word1 = 0;
    std::uint64_t word2 = 0;
    for (std::size_t i = i0; i < i_end; i += 8) {
      const std::uint64_t bits =
          v_rows(p, i, std::min<std::size_t>(8, i_end - i));
      word1 |= (bits & 0xFF) << (i - i0);
      word2 |= ((bits >> 8) & 0xFF) << (i - i0);
    }
    const std::size_t w = i0 / 64;
    moved = moved || p.v1[w] != word1 || p.v2[w] != word2;
    p.v1[w] = word1;
    p.v2[w] = word2;
  }
  return moved;
}

#ifdef __AVX512F__

/// The certified passes' accumulators at the AVX-512 tier: four zmm, each
/// adding one 8-value group of a step, the group's byte of the mask (an
/// Ohat byte in the objective) as the mask of its load. A masked-off lane
/// reads nothing and adds +0.0, so a short step never touches memory past
/// its row.
class MaskedSum {
 public:
  /// Adds the values v[q], q < live <= 32, whose bit q of `bits` is set;
  /// bits at and past `live` are clear.
  void add(const double* v, std::uint64_t bits, std::size_t live) {
    acc_[0] = plus(acc_[0], v, bits);
    if (live > 8) {
      acc_[1] = plus(acc_[1], v + 8, bits >> 8);
    }
    if (live > 16) {
      acc_[2] = plus(acc_[2], v + 16, bits >> 16);
    }
    if (live > 24) {
      acc_[3] = plus(acc_[3], v + 24, bits >> 24);
    }
  }

  double total() const {
    double lanes[8];
    _mm512_storeu_pd(lanes, _mm512_add_pd(_mm512_add_pd(acc_[0], acc_[1]),
                                          _mm512_add_pd(acc_[2], acc_[3])));
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
           ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  }

 private:
  static __m512d plus(__m512d acc, const double* v, std::uint64_t bits) {
    return _mm512_add_pd(
        acc, _mm512_maskz_loadu_pd(static_cast<__mmask8>(bits & 0xFF), v));
  }

  __m512d acc_[4] = {_mm512_setzero_pd(), _mm512_setzero_pd(),
                     _mm512_setzero_pd(), _mm512_setzero_pd()};
};

#else

/// The certified passes' accumulators at the portable tier: eight scalar
/// chains, one per value of each 8-value group (a ninth for a group cut
/// short by the row's end), every value ANDed with its mask bit spread to
/// all 64 bits (a cleared value is +0.0).
class MaskedSum {
 public:
  /// Adds the values v[q], q < live <= 32, whose bit q of `bits` is set.
  void add(const double* v, std::uint64_t bits, std::size_t live) {
    std::size_t q = 0;
    for (; q + 8 <= live; q += 8) {
      for (std::size_t l = 0; l < 8; ++l) {  // constant lanes: registers
        acc_[l] += masked(v[q + l], bits >> (q + l));
      }
    }
    for (; q < live; ++q) {
      tail_ += masked(v[q], bits >> q);
    }
  }

  double total() const {
    return (((acc_[0] + acc_[1]) + (acc_[2] + acc_[3])) +
            ((acc_[4] + acc_[5]) + (acc_[6] + acc_[7]))) +
           tail_;
  }

 private:
  /// v when bit 0 of `bits` is set, else +0.0.
  static double masked(double v, std::uint64_t bits) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) &
                                 (0 - (bits & 1)));
  }

  double acc_[8] = {};
  double tail_ = 0.0;
};

#endif  // __AVX512F__

/// The certified objective: base_total plus every gain whose Ohat bit is
/// set, row by row in 32-column steps of the row's Ohat words (T's word
/// ANDed with V2_i, or'ed with its complement ANDed with V1_i, cut at the
/// row's end) into the tier's accumulators. On a COP whose sums are exact
/// every order of these adds gives the exact sum, and all accumulators
/// start at +0.0, so a zero total is +0.0 as on the row-major chain.
inline double objective(const ObjectivePlanes& p) {
  const std::size_t c = p.c;
  MaskedSum sum;
  for (std::size_t i = 0; i < p.r; ++i) {
    const std::uint64_t on1 = 0 - ((p.v1[i >> 6] >> (i & 63)) & 1);
    const std::uint64_t on2 = 0 - ((p.v2[i >> 6] >> (i & 63)) & 1);
    const double* g = p.gain + i * c;
    for (std::size_t j0 = 0; j0 < c; j0 += 64) {
      const std::uint64_t tw = p.t[j0 >> 6];
      const std::size_t live = std::min<std::size_t>(64, c - j0);
      const std::uint64_t valid =
          live == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << live) - 1;
      const std::uint64_t ohat = ((tw & on2) | (~tw & on1)) & valid;
      sum.add(g + j0, ohat, std::min<std::size_t>(32, live));
      if (live > 32) {
        sum.add(g + j0 + 32, ohat >> 32, live - 32);
      }
    }
  }
  return p.base_total + sum.total();
}

/// The certified COP's base total: every value of base[0, n) added into
/// the tier's accumulators, 32 at a time. Exact there, in any order.
inline double base_total(const double* base, std::size_t n) {
  MaskedSum sum;
  std::size_t k = 0;
  for (; k + 32 <= n; k += 32) {
    sum.add(base + k, 0xFFFFFFFF, 32);
  }
  if (k < n) {
    sum.add(base + k, (std::uint64_t{1} << (n - k)) - 1, n - k);
  }
  return sum.total();
}

}  // namespace
}  // namespace adsd::cop_passes_impl
