// Hand-vectorized AVX2 force kernels. Compiled with -mavx2 -mfma in its
// own translation unit; only reached through the dispatcher after a
// runtime CPUID check, so the rest of the binary stays baseline-ISA.
//
// Vectorization runs across the replica-contiguous lanes: one ymm holds 4
// consecutive replicas of the same oscillator, the coupling weight is
// broadcast, and lane blocks of 8 (two accumulator registers) / 4 / 1 are
// peeled off exactly like the portable kernel's W = 8/4/1 register files.
// Each lane's per-edge accumulation order is therefore identical to the
// scalar reference -- and the arithmetic is mul-then-add (never FMA; the
// build also pins -ffp-contract=off), so results are bit-exact against
// every other kernel tier. The R = 1 row-block kernel vectorizes across
// the 8 rows of a block instead, under the same contract.

#include "ising/kernels/force_kernels_detail.hpp"

#ifdef __AVX2__

#include <immintrin.h>

namespace adsd::kernels::detail {

namespace {

/// w * x (continuous) or w * sign(x) (discrete) for one 4-lane vector.
/// sign(x) is the branchless select the scalar kernels use: >= 0 maps to
/// +1 (including -0.0, which IEEE compares equal to +0.0), else -1.
template <bool Discrete>
inline __m256d edge_term(__m256d w, __m256d xj) {
  if constexpr (Discrete) {
    const __m256d ge = _mm256_cmp_pd(xj, _mm256_setzero_pd(), _CMP_GE_OQ);
    xj = _mm256_blendv_pd(_mm256_set1_pd(-1.0), _mm256_set1_pd(1.0), ge);
  }
  return _mm256_mul_pd(w, xj);
}

template <bool Discrete>
inline double edge_term_scalar(double w, double xj) {
  if constexpr (Discrete) {
    return w * (xj >= 0.0 ? 1.0 : -1.0);
  } else {
    return w * xj;
  }
}

/// 2-lane variant for the pack kernel's slot tail (S mod 4 in {2, 3}):
/// same per-lane arithmetic, so the bit-exactness contract holds at any
/// active-slot count.
template <bool Discrete>
inline __m128d edge_term_128(__m128d w, __m128d xj) {
  if constexpr (Discrete) {
    const __m128d ge = _mm_cmp_pd(xj, _mm_setzero_pd(), _CMP_GE_OQ);
    xj = _mm_blendv_pd(_mm_set1_pd(-1.0), _mm_set1_pd(1.0), ge);
  }
  return _mm_mul_pd(w, xj);
}

template <bool Discrete>
void csr_force(const ForcePlanes& p, std::size_t row_begin,
               std::size_t row_end) {
  const std::size_t R = p.replicas;
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const std::size_t e_begin = p.row_start[i];
    const std::size_t e_end = p.row_start[i + 1];
    const double hi = p.h[i];
    double* fi = p.force + i * R;
    std::size_t lane = 0;
    for (; lane + 8 <= R; lane += 8) {
      __m256d acc0 = _mm256_set1_pd(hi);
      __m256d acc1 = acc0;
      for (std::size_t e = e_begin; e < e_end; ++e) {
        const __m256d w = _mm256_set1_pd(p.weights[e]);
        const double* xj =
            p.x + static_cast<std::size_t>(p.cols[e]) * R + lane;
        acc0 = _mm256_add_pd(acc0,
                             edge_term<Discrete>(w, _mm256_loadu_pd(xj)));
        acc1 = _mm256_add_pd(
            acc1, edge_term<Discrete>(w, _mm256_loadu_pd(xj + 4)));
      }
      _mm256_storeu_pd(fi + lane, acc0);
      _mm256_storeu_pd(fi + lane + 4, acc1);
    }
    if (lane + 4 <= R) {
      __m256d acc = _mm256_set1_pd(hi);
      for (std::size_t e = e_begin; e < e_end; ++e) {
        const __m256d w = _mm256_set1_pd(p.weights[e]);
        const double* xj =
            p.x + static_cast<std::size_t>(p.cols[e]) * R + lane;
        acc =
            _mm256_add_pd(acc, edge_term<Discrete>(w, _mm256_loadu_pd(xj)));
      }
      _mm256_storeu_pd(fi + lane, acc);
      lane += 4;
    }
    for (; lane < R; ++lane) {
      double acc = hi;
      for (std::size_t e = e_begin; e < e_end; ++e) {
        acc += edge_term_scalar<Discrete>(
            p.weights[e], p.x[static_cast<std::size_t>(p.cols[e]) * R + lane]);
      }
      fi[lane] = acc;
    }
  }
}

// Slot-packed kernel (DESIGN.md §4.7): the vector axis is the slot axis,
// so both the weight and the position are vector loads (each slot solves a
// different instance -- no broadcastable scalar weight). The column loop
// runs over the union sparsity pattern -- columns that are structural
// zeros in every slot are skipped; the dropped +-0.0 addends keep each
// slot's h-seeded accumulation bit-identical. Slot blocks of 8 (two
// accumulators) / 4 / 2 / 1 are peeled over the active prefix exactly
// like the replica peel above.
template <bool Discrete>
void pack_force(const PackForcePlanes& p, std::size_t row_begin,
                std::size_t row_end) {
  const std::size_t R = p.replicas;
  const std::size_t S = p.slots;
  const std::size_t A = p.active;
  const std::uint32_t* cs = p.ucols;
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const double* hi = p.hp + i * S;
    const std::uint32_t e0 = p.urow_start[i];
    const std::uint32_t e1 = p.urow_start[i + 1];
    for (std::size_t r = 0; r < R; ++r) {
      const double* xr = p.x + r * S;
      double* fi = p.force + (i * R + r) * S;
      std::size_t s = 0;
      for (; s + 8 <= A; s += 8) {
        __m256d acc0 = _mm256_loadu_pd(hi + s);
        __m256d acc1 = _mm256_loadu_pd(hi + s + 4);
        for (std::uint32_t e = e0; e < e1; ++e) {
          const double* we = p.wp + static_cast<std::size_t>(e) * S + s;
          const double* xj = xr + static_cast<std::size_t>(cs[e]) * R * S + s;
          acc0 = _mm256_add_pd(
              acc0, edge_term<Discrete>(_mm256_loadu_pd(we),
                                        _mm256_loadu_pd(xj)));
          acc1 = _mm256_add_pd(
              acc1, edge_term<Discrete>(_mm256_loadu_pd(we + 4),
                                        _mm256_loadu_pd(xj + 4)));
        }
        _mm256_storeu_pd(fi + s, acc0);
        _mm256_storeu_pd(fi + s + 4, acc1);
      }
      if (s + 4 <= A) {
        __m256d acc = _mm256_loadu_pd(hi + s);
        for (std::uint32_t e = e0; e < e1; ++e) {
          acc = _mm256_add_pd(
              acc,
              edge_term<Discrete>(
                  _mm256_loadu_pd(p.wp + static_cast<std::size_t>(e) * S + s),
                  _mm256_loadu_pd(
                      xr + static_cast<std::size_t>(cs[e]) * R * S + s)));
        }
        _mm256_storeu_pd(fi + s, acc);
        s += 4;
      }
      if (s + 2 <= A) {
        __m128d acc = _mm_loadu_pd(hi + s);
        for (std::uint32_t e = e0; e < e1; ++e) {
          acc = _mm_add_pd(
              acc,
              edge_term_128<Discrete>(
                  _mm_loadu_pd(p.wp + static_cast<std::size_t>(e) * S + s),
                  _mm_loadu_pd(
                      xr + static_cast<std::size_t>(cs[e]) * R * S + s)));
        }
        _mm_storeu_pd(fi + s, acc);
        s += 2;
      }
      for (; s < A; ++s) {
        double acc = hi[s];
        for (std::uint32_t e = e0; e < e1; ++e) {
          acc += edge_term_scalar<Discrete>(
              p.wp[static_cast<std::size_t>(e) * S + s],
              xr[static_cast<std::size_t>(cs[e]) * R * S + s]);
        }
        fi[s] = acc;
      }
    }
  }
}

// Row-block kernel (R = 1): two ymm hold the 8 row accumulators of a
// block (rows 0-3 and 4-7); each union column broadcasts its position (or
// sign) against the block's contiguous weight column. The tail block
// stores through lane masks, so rows past n are never written.
template <bool Discrete>
void rowblock_force(const ForcePlanes& p, std::size_t row_begin,
                    std::size_t row_end) {
  constexpr std::size_t B = kRowBlockRows;
  for (std::size_t row0 = row_begin; row0 < row_end; row0 += B) {
    const std::size_t b = row0 / B;
    __m256d acc0 = _mm256_loadu_pd(p.block_h + row0);
    __m256d acc1 = _mm256_loadu_pd(p.block_h + row0 + 4);
    const std::uint32_t e_end = p.block_start[b + 1];
    for (std::uint32_t e = p.block_start[b]; e < e_end; ++e) {
      const double* we = p.block_weights + static_cast<std::size_t>(e) * B;
      const double xj = p.x[p.block_cols[e]];
      const __m256d v =
          _mm256_set1_pd(Discrete ? (xj >= 0.0 ? 1.0 : -1.0) : xj);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(we), v));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(we + 4), v));
    }
    double* fb = p.force + row0;
    const std::size_t rows = row_end - row0;
    if (rows >= B) {
      _mm256_storeu_pd(fb, acc0);
      _mm256_storeu_pd(fb + 4, acc1);
    } else {
      const __m256i live = _mm256_set1_epi64x(static_cast<long long>(rows));
      _mm256_maskstore_pd(
          fb, _mm256_cmpgt_epi64(live, _mm256_setr_epi64x(0, 1, 2, 3)), acc0);
      _mm256_maskstore_pd(
          fb + 4, _mm256_cmpgt_epi64(live, _mm256_setr_epi64x(4, 5, 6, 7)),
          acc1);
    }
  }
}

}  // namespace

void csr_force_avx2(const ForcePlanes& p, std::size_t row_begin,
                    std::size_t row_end) {
  csr_force<false>(p, row_begin, row_end);
}
void csr_force_avx2_d(const ForcePlanes& p, std::size_t row_begin,
                      std::size_t row_end) {
  csr_force<true>(p, row_begin, row_end);
}
void rowblock_force_avx2(const ForcePlanes& p, std::size_t row_begin,
                         std::size_t row_end) {
  rowblock_force<false>(p, row_begin, row_end);
}
void rowblock_force_avx2_d(const ForcePlanes& p, std::size_t row_begin,
                           std::size_t row_end) {
  rowblock_force<true>(p, row_begin, row_end);
}
void pack_force_avx2(const PackForcePlanes& p, std::size_t row_begin,
                     std::size_t row_end) {
  pack_force<false>(p, row_begin, row_end);
}
void pack_force_avx2_d(const PackForcePlanes& p, std::size_t row_begin,
                       std::size_t row_end) {
  pack_force<true>(p, row_begin, row_end);
}

}  // namespace adsd::kernels::detail

#endif  // __AVX2__
