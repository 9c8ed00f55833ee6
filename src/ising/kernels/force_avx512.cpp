// Hand-vectorized AVX-512F force kernels: the 8-lane (zmm) sibling of the
// AVX2 file, same lane-across-replicas vectorization, same mul-then-add
// bit-exactness contract (no FMA, -ffp-contract=off). Lane blocks of 16
// (two zmm accumulators) / 8 are peeled, with an AVX2-free scalar tail so
// the file depends on -mavx512f alone; the R = 1 bipartite kernel holds a
// V block in four zmm (16 V1 and 16 V2 rows) and a T block in four zmm
// (32 rows), and the bSB step runs eight lanes per zmm. Only reached after
// the runtime CPUID + XCR0 probe confirms OS zmm state support.

#include "ising/kernels/force_kernels_detail.hpp"

#ifdef __AVX512F__

#include <immintrin.h>

#include <algorithm>

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

/// Lane mask of the first `live` lanes (all eight when live >= 8).
inline __mmask8 first_lanes(std::size_t live) {
  return live >= 8 ? static_cast<__mmask8>(0xFF)
                   : static_cast<__mmask8>((1u << live) - 1u);
}

template <bool Discrete>
inline __m512d broadcast_drive(double x) {
  return _mm512_set1_pd(Discrete ? (x >= 0.0 ? 1.0 : -1.0) : x);
}

// Bipartite kernel (R = 1, BipartiteLayout). A V block keeps 16 V1 and
// 16 V2 accumulators in four zmm -- four independent add chains -- and
// per T column multiplies the tile row by the broadcast position once,
// adding the product to the V1 side and subtracting it from the V2 side.
// A T block keeps 32 accumulators in four zmm and walks its tile over the
// V1 spins (+), then over the V2 spins (-). Biases load and forces store
// through lane masks, so padding lanes are never read from h or written.
template <bool Discrete>
void bipartite_force(const ForcePlanes& p, std::size_t, std::size_t) {
  constexpr std::size_t VB = kBipartiteVRows;
  constexpr std::size_t TB = kBipartiteTRows;
  const std::size_t r = p.bip_rows;
  const std::size_t c = p.bip_cols;
  const double* xt = p.x + 2 * r;
  for (std::size_t row0 = 0; row0 < r; row0 += VB) {
    const std::size_t live = std::min(VB, r - row0);
    const __mmask8 m0 = first_lanes(live);
    const __mmask8 m1 = first_lanes(live > 8 ? live - 8 : 0);
    const double* h1 = p.h + row0;
    const double* h2 = p.h + r + row0;
    __m512d a1 = _mm512_maskz_loadu_pd(m0, h1);
    __m512d b1 = _mm512_maskz_loadu_pd(m1, h1 + 8);
    __m512d a2 = _mm512_maskz_loadu_pd(m0, h2);
    __m512d b2 = _mm512_maskz_loadu_pd(m1, h2 + 8);
    const double* w = p.v_tiles + row0 * c;
    for (std::size_t j = 0; j < c; ++j, w += VB) {
      const __m512d v = broadcast_drive<Discrete>(xt[j]);
      const __m512d pa = _mm512_mul_pd(_mm512_loadu_pd(w), v);
      const __m512d pb = _mm512_mul_pd(_mm512_loadu_pd(w + 8), v);
      a1 = _mm512_add_pd(a1, pa);
      b1 = _mm512_add_pd(b1, pb);
      a2 = _mm512_sub_pd(a2, pa);
      b2 = _mm512_sub_pd(b2, pb);
    }
    _mm512_mask_storeu_pd(p.force + row0, m0, a1);
    _mm512_mask_storeu_pd(p.force + row0 + 8, m1, b1);
    _mm512_mask_storeu_pd(p.force + r + row0, m0, a2);
    _mm512_mask_storeu_pd(p.force + r + row0 + 8, m1, b2);
  }
  for (std::size_t col0 = 0; col0 < c; col0 += TB) {
    const std::size_t live = std::min(TB, c - col0);
    __mmask8 m[4];
    __m512d acc[4];
    for (std::size_t q = 0; q < 4; ++q) {
      m[q] = first_lanes(live > 8 * q ? live - 8 * q : 0);
      acc[q] = _mm512_maskz_loadu_pd(m[q], p.h + 2 * r + col0 + 8 * q);
    }
    const double* tile = p.t_tiles + col0 * r;
    const double* w = tile;
    for (std::size_t i = 0; i < r; ++i, w += TB) {
      const __m512d v = broadcast_drive<Discrete>(p.x[i]);
      for (std::size_t q = 0; q < 4; ++q) {
        acc[q] = _mm512_add_pd(acc[q],
                               _mm512_mul_pd(_mm512_loadu_pd(w + 8 * q), v));
      }
    }
    w = tile;
    for (std::size_t i = 0; i < r; ++i, w += TB) {
      const __m512d v = broadcast_drive<Discrete>(p.x[r + i]);
      for (std::size_t q = 0; q < 4; ++q) {
        acc[q] = _mm512_sub_pd(acc[q],
                               _mm512_mul_pd(_mm512_loadu_pd(w + 8 * q), v));
      }
    }
    for (std::size_t q = 0; q < 4; ++q) {
      _mm512_mask_storeu_pd(p.force + 2 * r + col0 + 8 * q, m[q], acc[q]);
    }
  }
}

// One bSB step over eight lanes selected by `m` (all of them but in the
// tail): the portable loop's expression tree, with the walls as compare +
// blend so a NaN x' keeps its value and zeroes its momentum exactly as
// the scalar selects do.
inline void bsb_step_lanes(const BsbStepPlanes& s, std::size_t k, __mmask8 m) {
  const __m512d x = _mm512_maskz_loadu_pd(m, s.x + k);
  const __m512d f = _mm512_maskz_loadu_pd(m, s.force + k);
  __m512d y = _mm512_maskz_loadu_pd(m, s.y + k);
  const __m512d drive = _mm512_add_pd(
      _mm512_mul_pd(_mm512_set1_pd(s.neg_stiffness), x),
      _mm512_mul_pd(_mm512_set1_pd(s.c0), f));
  y = _mm512_add_pd(y, _mm512_mul_pd(_mm512_set1_pd(s.dt), drive));
  const __m512d xk =
      _mm512_add_pd(x, _mm512_mul_pd(_mm512_set1_pd(s.dt_detuning), y));
  const __m512d lo_wall = _mm512_set1_pd(-1.0);
  const __m512d hi_wall = _mm512_set1_pd(1.0);
  const __m512d lo = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(xk, lo_wall, _CMP_LT_OQ), xk, lo_wall);
  const __m512d clamped = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(lo, hi_wall, _CMP_GT_OQ), lo, hi_wall);
  y = _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(clamped, xk, _CMP_EQ_OQ), y);
  _mm512_mask_storeu_pd(s.y + k, m, y);
  _mm512_mask_storeu_pd(s.x + k, m, clamped);
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
void bipartite_force_avx512(const ForcePlanes& p, std::size_t row_begin,
                            std::size_t row_end) {
  bipartite_force<false>(p, row_begin, row_end);
}
void bipartite_force_avx512_d(const ForcePlanes& p, std::size_t row_begin,
                              std::size_t row_end) {
  bipartite_force<true>(p, row_begin, row_end);
}
void bsb_step_avx512(const BsbStepPlanes& s) {
  std::size_t k = 0;
  for (; k + 8 <= s.lanes; k += 8) {
    bsb_step_lanes(s, k, first_lanes(8));
  }
  if (k < s.lanes) {
    bsb_step_lanes(s, k, first_lanes(s.lanes - k));
  }
}
void pack_force_avx512(const PackForcePlanes& p, std::size_t row_begin,
                       std::size_t row_end) {
  pack_force<false>(p, row_begin, row_end);
}
void pack_force_avx512_d(const PackForcePlanes& p, std::size_t row_begin,
                         std::size_t row_end) {
  pack_force<true>(p, row_begin, row_end);
}

}  // namespace adsd::kernels::detail

#endif  // __AVX512F__
