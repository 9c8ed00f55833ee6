// Hand-vectorized AVX-512F force kernels: the 8-lane (zmm) sibling of the
// AVX2 file, same lane-across-replicas vectorization, same mul-then-add
// bit-exactness contract (no FMA, -ffp-contract=off). Lane blocks of 16
// (two zmm accumulators) / 8 are peeled, with an AVX2-free scalar tail so
// the file depends on -mavx512f alone; the R = 1 row-block kernel holds
// the 8 rows of a block in one zmm. Only reached after the runtime
// CPUID + XCR0 probe confirms OS zmm state support.

#include "ising/kernels/force_kernels_detail.hpp"

#ifdef __AVX512F__

#include <immintrin.h>

namespace adsd::kernels::detail {

namespace {

template <bool Discrete>
inline __m512d edge_term(__m512d w, __m512d xj) {
  if constexpr (Discrete) {
    const __mmask8 ge =
        _mm512_cmp_pd_mask(xj, _mm512_setzero_pd(), _CMP_GE_OQ);
    xj = _mm512_mask_blend_pd(ge, _mm512_set1_pd(-1.0), _mm512_set1_pd(1.0));
  }
  return _mm512_mul_pd(w, xj);
}

template <bool Discrete>
inline double edge_term_scalar(double w, double xj) {
  if constexpr (Discrete) {
    return w * (xj >= 0.0 ? 1.0 : -1.0);
  } else {
    return w * xj;
  }
}

/// 4-lane variant for the pack kernel's slot tail (S mod 8 in {4..7}):
/// AVX is a prerequisite of AVX-512F, so __m256d is available in this TU.
/// Same per-lane arithmetic, keeping the bit-exactness contract at any
/// active-slot count.
template <bool Discrete>
inline __m256d edge_term_256(__m256d w, __m256d xj) {
  if constexpr (Discrete) {
    const __m256d ge = _mm256_cmp_pd(xj, _mm256_setzero_pd(), _CMP_GE_OQ);
    xj = _mm256_blendv_pd(_mm256_set1_pd(-1.0), _mm256_set1_pd(1.0), ge);
  }
  return _mm256_mul_pd(w, xj);
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
    for (; lane + 16 <= R; lane += 16) {
      __m512d acc0 = _mm512_set1_pd(hi);
      __m512d acc1 = acc0;
      for (std::size_t e = e_begin; e < e_end; ++e) {
        const __m512d w = _mm512_set1_pd(p.weights[e]);
        const double* xj =
            p.x + static_cast<std::size_t>(p.cols[e]) * R + lane;
        acc0 = _mm512_add_pd(acc0,
                             edge_term<Discrete>(w, _mm512_loadu_pd(xj)));
        acc1 = _mm512_add_pd(
            acc1, edge_term<Discrete>(w, _mm512_loadu_pd(xj + 8)));
      }
      _mm512_storeu_pd(fi + lane, acc0);
      _mm512_storeu_pd(fi + lane + 8, acc1);
    }
    if (lane + 8 <= R) {
      __m512d acc = _mm512_set1_pd(hi);
      for (std::size_t e = e_begin; e < e_end; ++e) {
        const __m512d w = _mm512_set1_pd(p.weights[e]);
        const double* xj =
            p.x + static_cast<std::size_t>(p.cols[e]) * R + lane;
        acc =
            _mm512_add_pd(acc, edge_term<Discrete>(w, _mm512_loadu_pd(xj)));
      }
      _mm512_storeu_pd(fi + lane, acc);
      lane += 8;
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

template <bool Discrete>
void dense_force(const ForcePlanes& p, std::size_t row_begin,
                 std::size_t row_end) {
  const std::size_t R = p.replicas;
  const std::size_t n = p.n;
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const double* ji = p.dense + i * p.dense_stride;
    const double hi = p.h[i];
    double* fi = p.force + i * R;
    std::size_t lane = 0;
    for (; lane + 16 <= R; lane += 16) {
      __m512d acc0 = _mm512_set1_pd(hi);
      __m512d acc1 = acc0;
      for (std::size_t j = 0; j < n; ++j) {
        const __m512d w = _mm512_set1_pd(ji[j]);
        const double* xj = p.x + j * R + lane;
        acc0 = _mm512_add_pd(acc0,
                             edge_term<Discrete>(w, _mm512_loadu_pd(xj)));
        acc1 = _mm512_add_pd(
            acc1, edge_term<Discrete>(w, _mm512_loadu_pd(xj + 8)));
      }
      _mm512_storeu_pd(fi + lane, acc0);
      _mm512_storeu_pd(fi + lane + 8, acc1);
    }
    if (lane + 8 <= R) {
      __m512d acc = _mm512_set1_pd(hi);
      for (std::size_t j = 0; j < n; ++j) {
        const __m512d w = _mm512_set1_pd(ji[j]);
        const double* xj = p.x + j * R + lane;
        acc =
            _mm512_add_pd(acc, edge_term<Discrete>(w, _mm512_loadu_pd(xj)));
      }
      _mm512_storeu_pd(fi + lane, acc);
      lane += 8;
    }
    for (; lane < R; ++lane) {
      double acc = hi;
      for (std::size_t j = 0; j < n; ++j) {
        acc += edge_term_scalar<Discrete>(ji[j], p.x[j * R + lane]);
      }
      fi[lane] = acc;
    }
  }
}

// Slot-packed kernel: zmm sibling of the AVX2 pack kernel, slot blocks of
// 16 (two zmm accumulators) / 8 peeled over the active prefix with an
// AVX-512-only scalar tail. Weights and positions are both vector loads
// (per-slot J matrices) over the union sparsity pattern — columns that
// are zero in every slot are skipped, which halves weight traffic for
// same-template packs while the skipped +-0.0 addends keep accumulation
// order bit-identical to the per-instance kernels.
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
      for (; s + 16 <= A; s += 16) {
        __m512d acc0 = _mm512_loadu_pd(hi + s);
        __m512d acc1 = _mm512_loadu_pd(hi + s + 8);
        for (std::uint32_t e = e0; e < e1; ++e) {
          const double* we = p.wp + static_cast<std::size_t>(e) * S + s;
          const double* xj = xr + static_cast<std::size_t>(cs[e]) * R * S + s;
          acc0 = _mm512_add_pd(
              acc0, edge_term<Discrete>(_mm512_loadu_pd(we),
                                        _mm512_loadu_pd(xj)));
          acc1 = _mm512_add_pd(
              acc1, edge_term<Discrete>(_mm512_loadu_pd(we + 8),
                                        _mm512_loadu_pd(xj + 8)));
        }
        _mm512_storeu_pd(fi + s, acc0);
        _mm512_storeu_pd(fi + s + 8, acc1);
      }
      if (s + 8 <= A) {
        __m512d acc = _mm512_loadu_pd(hi + s);
        for (std::uint32_t e = e0; e < e1; ++e) {
          acc = _mm512_add_pd(
              acc,
              edge_term<Discrete>(
                  _mm512_loadu_pd(p.wp + static_cast<std::size_t>(e) * S + s),
                  _mm512_loadu_pd(
                      xr + static_cast<std::size_t>(cs[e]) * R * S + s)));
        }
        _mm512_storeu_pd(fi + s, acc);
        s += 8;
      }
      if (s + 4 <= A) {
        __m256d acc = _mm256_loadu_pd(hi + s);
        for (std::uint32_t e = e0; e < e1; ++e) {
          acc = _mm256_add_pd(
              acc,
              edge_term_256<Discrete>(
                  _mm256_loadu_pd(p.wp + static_cast<std::size_t>(e) * S + s),
                  _mm256_loadu_pd(
                      xr + static_cast<std::size_t>(cs[e]) * R * S + s)));
        }
        _mm256_storeu_pd(fi + s, acc);
        s += 4;
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

// Shared-J pack kernel: one broadcast weight per union edge (the zmm
// sibling of the AVX2 shared kernel), positions as slot vectors. Weight
// traffic collapses from uedges*S to uedges doubles per pass — measured
// ~5.9x on the n = 64, S = 64 force pass on this host — and the broadcast
// value equals the per-slot load, so bit-exactness holds.
template <bool Discrete>
void pack_force_shared(const PackForcePlanes& p, std::size_t row_begin,
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
      for (; s + 16 <= A; s += 16) {
        __m512d acc0 = _mm512_loadu_pd(hi + s);
        __m512d acc1 = _mm512_loadu_pd(hi + s + 8);
        for (std::uint32_t e = e0; e < e1; ++e) {
          const __m512d w = _mm512_set1_pd(p.wj[e]);
          const double* xj = xr + static_cast<std::size_t>(cs[e]) * R * S + s;
          acc0 = _mm512_add_pd(acc0,
                               edge_term<Discrete>(w, _mm512_loadu_pd(xj)));
          acc1 = _mm512_add_pd(
              acc1, edge_term<Discrete>(w, _mm512_loadu_pd(xj + 8)));
        }
        _mm512_storeu_pd(fi + s, acc0);
        _mm512_storeu_pd(fi + s + 8, acc1);
      }
      if (s + 8 <= A) {
        __m512d acc = _mm512_loadu_pd(hi + s);
        for (std::uint32_t e = e0; e < e1; ++e) {
          acc = _mm512_add_pd(
              acc, edge_term<Discrete>(
                       _mm512_set1_pd(p.wj[e]),
                       _mm512_loadu_pd(
                           xr + static_cast<std::size_t>(cs[e]) * R * S + s)));
        }
        _mm512_storeu_pd(fi + s, acc);
        s += 8;
      }
      if (s + 4 <= A) {
        __m256d acc = _mm256_loadu_pd(hi + s);
        for (std::uint32_t e = e0; e < e1; ++e) {
          acc = _mm256_add_pd(
              acc, edge_term_256<Discrete>(
                       _mm256_set1_pd(p.wj[e]),
                       _mm256_loadu_pd(
                           xr + static_cast<std::size_t>(cs[e]) * R * S + s)));
        }
        _mm256_storeu_pd(fi + s, acc);
        s += 4;
      }
      for (; s < A; ++s) {
        double acc = hi[s];
        for (std::uint32_t e = e0; e < e1; ++e) {
          acc += edge_term_scalar<Discrete>(
              p.wj[e], xr[static_cast<std::size_t>(cs[e]) * R * S + s]);
        }
        fi[s] = acc;
      }
    }
  }
}

// Row-block kernel (R = 1): one zmm holds the 8 row accumulators of a
// block; each union column broadcasts its position (or sign) against the
// block's contiguous weight column. The tail block stores through a lane
// mask, so rows past n are never written.
template <bool Discrete>
void rowblock_force(const ForcePlanes& p, std::size_t row_begin,
                    std::size_t row_end) {
  constexpr std::size_t B = kRowBlockRows;
  for (std::size_t row0 = row_begin; row0 < row_end; row0 += B) {
    const std::size_t b = row0 / B;
    __m512d acc = _mm512_loadu_pd(p.block_h + row0);
    const std::uint32_t e_end = p.block_start[b + 1];
    for (std::uint32_t e = p.block_start[b]; e < e_end; ++e) {
      const __m512d w =
          _mm512_loadu_pd(p.block_weights + static_cast<std::size_t>(e) * B);
      const double xj = p.x[p.block_cols[e]];
      const __m512d v =
          _mm512_set1_pd(Discrete ? (xj >= 0.0 ? 1.0 : -1.0) : xj);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(w, v));
    }
    const std::size_t rows = row_end - row0;
    if (rows >= B) {
      _mm512_storeu_pd(p.force + row0, acc);
    } else {
      _mm512_mask_storeu_pd(p.force + row0,
                            static_cast<__mmask8>((1u << rows) - 1u), acc);
    }
  }
}

}  // namespace

void csr_force_avx512(const ForcePlanes& p, std::size_t row_begin,
                      std::size_t row_end) {
  csr_force<false>(p, row_begin, row_end);
}
void csr_force_avx512_d(const ForcePlanes& p, std::size_t row_begin,
                        std::size_t row_end) {
  csr_force<true>(p, row_begin, row_end);
}
void dense_force_avx512(const ForcePlanes& p, std::size_t row_begin,
                        std::size_t row_end) {
  dense_force<false>(p, row_begin, row_end);
}
void dense_force_avx512_d(const ForcePlanes& p, std::size_t row_begin,
                          std::size_t row_end) {
  dense_force<true>(p, row_begin, row_end);
}
void rowblock_force_avx512(const ForcePlanes& p, std::size_t row_begin,
                           std::size_t row_end) {
  rowblock_force<false>(p, row_begin, row_end);
}
void rowblock_force_avx512_d(const ForcePlanes& p, std::size_t row_begin,
                             std::size_t row_end) {
  rowblock_force<true>(p, row_begin, row_end);
}
void pack_force_avx512(const PackForcePlanes& p, std::size_t row_begin,
                       std::size_t row_end) {
  pack_force<false>(p, row_begin, row_end);
}
void pack_force_avx512_d(const PackForcePlanes& p, std::size_t row_begin,
                         std::size_t row_end) {
  pack_force<true>(p, row_begin, row_end);
}
void pack_force_shared_avx512(const PackForcePlanes& p, std::size_t row_begin,
                              std::size_t row_end) {
  pack_force_shared<false>(p, row_begin, row_end);
}
void pack_force_shared_avx512_d(const PackForcePlanes& p,
                                std::size_t row_begin, std::size_t row_end) {
  pack_force_shared<true>(p, row_begin, row_end);
}

}  // namespace adsd::kernels::detail

#endif  // __AVX512F__
