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
// every other kernel tier. The R = 1 bipartite kernel vectorizes across
// the rows of a block instead, and the bSB step and the Theorem-3 reset
// across four lanes, under the same contract.

#include "ising/kernels/force_kernels_detail.hpp"

#ifdef __AVX2__

#include <immintrin.h>

#include <algorithm>

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

/// Lane mask (all-ones lanes) of lanes base .. base + 3 below `live`.
inline __m256i lanes_below(std::size_t live, long long base) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(live)),
                            _mm256_setr_epi64x(base, base + 1, base + 2,
                                               base + 3));
}

template <bool Discrete>
inline __m256d broadcast_drive(double x) {
  return _mm256_set1_pd(Discrete ? (x >= 0.0 ? 1.0 : -1.0) : x);
}

// Bipartite kernel (R = 1, BipartiteLayout): the AVX-512 kernel's blocks
// in four-lane registers. A V block keeps 16 V1 and 16 V2 accumulators in
// eight ymm and shares each column's product between the two sides; a T
// block keeps 32 accumulators in eight ymm and walks its tile over the V1
// spins (+), then the V2 spins (-). Biases load and forces store through
// lane masks, so padding lanes are never read from h or written.
template <bool Discrete>
void bipartite_force(const ForcePlanes& p, std::size_t, std::size_t) {
  constexpr std::size_t VB = kBipartiteVRows;
  constexpr std::size_t TB = kBipartiteTRows;
  const std::size_t r = p.bip_rows;
  const std::size_t c = p.bip_cols;
  const double* xt = p.x + 2 * r;
  for (std::size_t row0 = 0; row0 < r; row0 += VB) {
    const std::size_t live = std::min(VB, r - row0);
    __m256i m[4];
    __m256d acc1[4];
    __m256d acc2[4];
    for (std::size_t q = 0; q < 4; ++q) {
      m[q] = lanes_below(live, static_cast<long long>(4 * q));
      acc1[q] = _mm256_maskload_pd(p.h + row0 + 4 * q, m[q]);
      acc2[q] = _mm256_maskload_pd(p.h + r + row0 + 4 * q, m[q]);
    }
    const double* w = p.v_tiles + row0 * c;
    for (std::size_t j = 0; j < c; ++j, w += VB) {
      const __m256d v = broadcast_drive<Discrete>(xt[j]);
      for (std::size_t q = 0; q < 4; ++q) {
        const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(w + 4 * q), v);
        acc1[q] = _mm256_add_pd(acc1[q], prod);
        acc2[q] = _mm256_sub_pd(acc2[q], prod);
      }
    }
    for (std::size_t q = 0; q < 4; ++q) {
      _mm256_maskstore_pd(p.force + row0 + 4 * q, m[q], acc1[q]);
      _mm256_maskstore_pd(p.force + r + row0 + 4 * q, m[q], acc2[q]);
    }
  }
  for (std::size_t col0 = 0; col0 < c; col0 += TB) {
    const std::size_t live = std::min(TB, c - col0);
    __m256i m[8];
    __m256d acc[8];
    for (std::size_t q = 0; q < 8; ++q) {
      m[q] = lanes_below(live, static_cast<long long>(4 * q));
      acc[q] = _mm256_maskload_pd(p.h + 2 * r + col0 + 4 * q, m[q]);
    }
    const double* tile = p.t_tiles + col0 * r;
    const double* w = tile;
    for (std::size_t i = 0; i < r; ++i, w += TB) {
      const __m256d v = broadcast_drive<Discrete>(p.x[i]);
      for (std::size_t q = 0; q < 8; ++q) {
        acc[q] = _mm256_add_pd(acc[q],
                               _mm256_mul_pd(_mm256_loadu_pd(w + 4 * q), v));
      }
    }
    w = tile;
    for (std::size_t i = 0; i < r; ++i, w += TB) {
      const __m256d v = broadcast_drive<Discrete>(p.x[r + i]);
      for (std::size_t q = 0; q < 8; ++q) {
        acc[q] = _mm256_sub_pd(acc[q],
                               _mm256_mul_pd(_mm256_loadu_pd(w + 4 * q), v));
      }
    }
    for (std::size_t q = 0; q < 8; ++q) {
      _mm256_maskstore_pd(p.force + 2 * r + col0 + 4 * q, m[q], acc[q]);
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
void bipartite_force_avx2(const ForcePlanes& p, std::size_t row_begin,
                          std::size_t row_end) {
  bipartite_force<false>(p, row_begin, row_end);
}
void bipartite_force_avx2_d(const ForcePlanes& p, std::size_t row_begin,
                            std::size_t row_end) {
  bipartite_force<true>(p, row_begin, row_end);
}

// bSB step, four lanes per ymm: the portable loop's expression tree, with
// the walls as compare + blend (a NaN x' keeps its value and zeroes its
// momentum, as the scalar selects do) and the portable loop as the tail.
void bsb_step_avx2(const BsbStepPlanes& s) {
  const __m256d neg_stiffness = _mm256_set1_pd(s.neg_stiffness);
  const __m256d c0 = _mm256_set1_pd(s.c0);
  const __m256d dt = _mm256_set1_pd(s.dt);
  const __m256d dt_detuning = _mm256_set1_pd(s.dt_detuning);
  const __m256d lo_wall = _mm256_set1_pd(-1.0);
  const __m256d hi_wall = _mm256_set1_pd(1.0);
  std::size_t k = 0;
  for (; k + 4 <= s.lanes; k += 4) {
    const __m256d x = _mm256_loadu_pd(s.x + k);
    const __m256d drive =
        _mm256_add_pd(_mm256_mul_pd(neg_stiffness, x),
                      _mm256_mul_pd(c0, _mm256_loadu_pd(s.force + k)));
    __m256d y = _mm256_add_pd(_mm256_loadu_pd(s.y + k),
                              _mm256_mul_pd(dt, drive));
    const __m256d xk = _mm256_add_pd(x, _mm256_mul_pd(dt_detuning, y));
    const __m256d lo =
        _mm256_blendv_pd(xk, lo_wall, _mm256_cmp_pd(xk, lo_wall, _CMP_LT_OQ));
    const __m256d clamped =
        _mm256_blendv_pd(lo, hi_wall, _mm256_cmp_pd(lo, hi_wall, _CMP_GT_OQ));
    y = _mm256_and_pd(y, _mm256_cmp_pd(clamped, xk, _CMP_EQ_OQ));
    _mm256_storeu_pd(s.y + k, y);
    _mm256_storeu_pd(s.x + k, clamped);
  }
  if (k < s.lanes) {
    BsbStepPlanes tail = s;
    tail.x += k;
    tail.y += k;
    tail.force += k;
    tail.lanes -= k;
    bsb_step_portable(tail);
  }
}
// Theorem-3 reset: per replica, a 16-column chunk keeps each pattern's
// costs in four ymm across the ascending rows. A row ANDs its gain chunk
// with an all-ones or all-zeros mask, so a negative sign adds +0.0,
// which leaves the cost unchanged. At R = 1 the T positions and momenta
// store through lane masks; at R > 1 they are strided and written one by
// one.
void theorem3_reset_avx2(const Theorem3Planes& p) {
  constexpr std::size_t CB = 16;
  const std::size_t R = p.replicas;
  const std::size_t r = p.rows;
  const std::size_t c = p.cols;
  const __m256d minus_one = _mm256_set1_pd(-1.0);
  const __m256d plus_one = _mm256_set1_pd(1.0);
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d none = _mm256_setzero_pd();
  for (std::size_t q = 0; q < R; ++q) {
    const double* x1 = p.x + q;
    const double* x2 = p.x + r * R + q;
    std::size_t pattern2 = 0;
    for (std::size_t col0 = 0; col0 < c; col0 += CB) {
      const std::size_t live = std::min(CB, c - col0);
      __m256i m[4];
      __m256d a1[4];
      __m256d a2[4];
      for (std::size_t k = 0; k < 4; ++k) {
        m[k] = lanes_below(live, static_cast<long long>(4 * k));
        a1[k] = _mm256_setzero_pd();
        a2[k] = _mm256_setzero_pd();
      }
      for (std::size_t i = 0; i < r; ++i) {
        const __m256d on1 = x1[i * R] >= 0.0 ? all : none;
        const __m256d on2 = x2[i * R] >= 0.0 ? all : none;
        const double* g = p.gain + i * c + col0;
        for (std::size_t k = 0; k < 4; ++k) {
          const __m256d gk = _mm256_maskload_pd(g + 4 * k, m[k]);
          a1[k] = _mm256_add_pd(a1[k], _mm256_and_pd(gk, on1));
          a2[k] = _mm256_add_pd(a2[k], _mm256_and_pd(gk, on2));
        }
      }
      double* xt = p.x + (2 * r + col0) * R + q;
      double* yt = p.y + (2 * r + col0) * R + q;
      for (std::size_t k = 0; k < 4; ++k) {
        const __m256d two = _mm256_and_pd(
            _mm256_cmp_pd(a2[k], a1[k], _CMP_LT_OQ), _mm256_castsi256_pd(m[k]));
        pattern2 += static_cast<std::size_t>(
            __builtin_popcount(static_cast<unsigned>(_mm256_movemask_pd(two))));
        const __m256d t = _mm256_blendv_pd(minus_one, plus_one, two);
        if (R == 1) {
          _mm256_maskstore_pd(xt + 4 * k, m[k], t);
          _mm256_maskstore_pd(yt + 4 * k, m[k], _mm256_setzero_pd());
        } else {
          alignas(32) double lanes[4];
          _mm256_store_pd(lanes, t);
          const std::size_t n =
              live > 4 * k ? std::min<std::size_t>(4, live - 4 * k) : 0;
          for (std::size_t l = 0; l < n; ++l) {
            xt[(4 * k + l) * R] = lanes[l];
            yt[(4 * k + l) * R] = 0.0;
          }
        }
      }
    }
    if (p.one_pattern != nullptr) {
      p.one_pattern[q] = pattern2 == 0 || pattern2 == c ? 1 : 0;
    }
  }
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
