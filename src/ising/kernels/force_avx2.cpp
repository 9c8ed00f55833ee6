// Hand-vectorized AVX2 kernels. Compiled with -mavx2 -mfma in their own
// translation unit; only reached through the dispatcher after a runtime
// CPUID check, so the rest of the binary stays baseline-ISA.
//
// The arithmetic is mul-then-add (never FMA; the build also pins
// -ffp-contract=off), so results are bit-exact against every other
// tier. The R = 1 bipartite pass vectorizes across the rows of a half
// block, and the bSB step and the Theorem-3 reset across four lanes,
// under the same contract.

#include "ising/kernels/bipartite_pass.hpp"
#include "ising/kernels/force_kernels_detail.hpp"

#ifdef __AVX2__

#include <immintrin.h>

#include <algorithm>

namespace adsd::kernels::detail {

namespace {

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

// The bSB step's broadcast operands (BsbStepPlanes).
struct StepConsts {
  __m256d neg_stiffness;
  __m256d c0;
  __m256d dt;
  __m256d dt_detuning;

  StepConsts(double neg_stiffness_, double c0_, double dt_,
             double dt_detuning_)
      : neg_stiffness(_mm256_set1_pd(neg_stiffness_)),
        c0(_mm256_set1_pd(c0_)),
        dt(_mm256_set1_pd(dt_)),
        dt_detuning(_mm256_set1_pd(dt_detuning_)) {}
};

// One bSB step of four lanes: updates y and returns the new x. The
// portable loop's expression tree, with the walls as compare + blend (a
// NaN x' keeps its value and zeroes its momentum, as the scalar selects
// do).
inline __m256d step_vec(const StepConsts& s, __m256d x, __m256d f,
                        __m256d& y) {
  const __m256d drive = _mm256_add_pd(_mm256_mul_pd(s.neg_stiffness, x),
                                      _mm256_mul_pd(s.c0, f));
  y = _mm256_add_pd(y, _mm256_mul_pd(s.dt, drive));
  const __m256d xk = _mm256_add_pd(x, _mm256_mul_pd(s.dt_detuning, y));
  const __m256d lo_wall = _mm256_set1_pd(-1.0);
  const __m256d hi_wall = _mm256_set1_pd(1.0);
  const __m256d lo =
      _mm256_blendv_pd(xk, lo_wall, _mm256_cmp_pd(xk, lo_wall, _CMP_LT_OQ));
  const __m256d clamped =
      _mm256_blendv_pd(lo, hi_wall, _mm256_cmp_pd(lo, hi_wall, _CMP_GT_OQ));
  y = _mm256_and_pd(y, _mm256_cmp_pd(clamped, xk, _CMP_EQ_OQ));
  return clamped;
}

// Bipartite groups (R = 1, BipartiteLayout; the pass is in
// bipartite_pass.hpp): half tile blocks, so a pair fits the sixteen ymm.
// A V group keeps 8 V1 and 8 V2 accumulators in four ymm and shares each
// column's product between the two sides; a T group keeps 16 accumulators
// in four ymm. Paired, a pass keeps eight add chains in flight: V rows
// 0-7 beside T columns 0-15, then V rows 8-15 beside T columns 16-31 at
// n = 9. Biases load and results store through lane masks where a group
// has padding lanes, so those are never read from h or written.
struct VGroup {
  static constexpr std::size_t kRows = 8;
  __m256d acc1[2];
  __m256d acc2[2];

  void load(const double* h1, const double* h2, std::size_t live) {
    for (std::size_t q = 0; q < 2; ++q) {
      if (live == kRows) {
        acc1[q] = _mm256_loadu_pd(h1 + 4 * q);
        acc2[q] = _mm256_loadu_pd(h2 + 4 * q);
      } else {
        const __m256i m = lanes_below(live, static_cast<long long>(4 * q));
        acc1[q] = _mm256_maskload_pd(h1 + 4 * q, m);
        acc2[q] = _mm256_maskload_pd(h2 + 4 * q, m);
      }
    }
  }
  template <bool Discrete>
  void trip(const double* w, double x) {
    const __m256d v = broadcast_drive<Discrete>(x);
    for (std::size_t q = 0; q < 2; ++q) {
      const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(w + 4 * q), v);
      acc1[q] = _mm256_add_pd(acc1[q], prod);
      acc2[q] = _mm256_sub_pd(acc2[q], prod);
    }
  }
  template <class Out>
  void emit(const Out& out, std::size_t k1, std::size_t k2,
            std::size_t live) const {
    for (std::size_t q = 0; q < 2 && live > 4 * q; ++q) {
      const std::size_t n = std::min<std::size_t>(live - 4 * q, 4);
      out(k1 + 4 * q, n, acc1[q]);
      out(k2 + 4 * q, n, acc2[q]);
    }
  }
};

struct TGroup {
  static constexpr std::size_t kCols = 16;
  __m256d acc[4];

  void load(const double* h, std::size_t live) {
    for (std::size_t q = 0; q < 4; ++q) {
      acc[q] = live == kCols
                   ? _mm256_loadu_pd(h + 4 * q)
                   : _mm256_maskload_pd(
                         h + 4 * q,
                         lanes_below(live, static_cast<long long>(4 * q)));
    }
  }
  template <bool Discrete, bool Minus>
  void trip(const double* w, double x) {
    const __m256d v = broadcast_drive<Discrete>(x);
    for (std::size_t q = 0; q < 4; ++q) {
      const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(w + 4 * q), v);
      acc[q] = Minus ? _mm256_sub_pd(acc[q], prod)
                     : _mm256_add_pd(acc[q], prod);
    }
  }
  template <class Out>
  void emit(const Out& out, std::size_t k, std::size_t live) const {
    for (std::size_t q = 0; q < 4 && live > 4 * q; ++q) {
      out(k + 4 * q, std::min<std::size_t>(live - 4 * q, 4), acc[q]);
    }
  }
};

// The force entry point's output: forces stored to the plane.
struct ForceOut {
  double* force;

  void operator()(std::size_t k, std::size_t live, __m256d f) const {
    if (live == 4) {
      _mm256_storeu_pd(force + k, f);
    } else {
      _mm256_maskstore_pd(force + k, lanes_below(live, 0), f);
    }
  }
};

// The interval kernel's output: the bSB step of the lanes, from x into
// x_next (y in place). Full registers load and store unmasked, which
// keeps the next pass's position loads forwardable from these stores.
struct StepOut {
  StepConsts consts;
  const double* x;
  double* y;
  double* x_next;

  StepOut(const BsbIntervalPlanes& s, double neg_stiffness,
          const double* x_, double* x_next_)
      : consts(neg_stiffness, s.c0, s.dt, s.dt_detuning),
        x(x_),
        y(s.y),
        x_next(x_next_) {}

  void operator()(std::size_t k, std::size_t live, __m256d f) const {
    if (live == 4) {
      __m256d yk = _mm256_loadu_pd(y + k);
      const __m256d xk = step_vec(consts, _mm256_loadu_pd(x + k), f, yk);
      _mm256_storeu_pd(y + k, yk);
      _mm256_storeu_pd(x_next + k, xk);
    } else {
      const __m256i m = lanes_below(live, 0);
      __m256d yk = _mm256_maskload_pd(y + k, m);
      const __m256d xk =
          step_vec(consts, _mm256_maskload_pd(x + k, m), f, yk);
      _mm256_maskstore_pd(y + k, m, yk);
      _mm256_maskstore_pd(x_next + k, m, xk);
    }
  }
};

}  // namespace

void bipartite_force_avx2(const ForcePlanes& p) {
  bipartite_pass<VGroup, TGroup, false>(p, p.x, ForceOut{p.force});
}
void bipartite_force_avx2_d(const ForcePlanes& p) {
  bipartite_pass<VGroup, TGroup, true>(p, p.x, ForceOut{p.force});
}
void bipartite_interval_avx2(const ForcePlanes& p,
                             const BsbIntervalPlanes& s) {
  bipartite_interval<VGroup, TGroup, false, StepOut>(p, s);
}
void bipartite_interval_avx2_d(const ForcePlanes& p,
                               const BsbIntervalPlanes& s) {
  bipartite_interval<VGroup, TGroup, true, StepOut>(p, s);
}

// bSB step, four lanes per ymm, with the portable loop as the tail.
void bsb_step_avx2(const BsbStepPlanes& s) {
  const StepConsts c(s.neg_stiffness, s.c0, s.dt, s.dt_detuning);
  std::size_t k = 0;
  for (; k + 4 <= s.lanes; k += 4) {
    __m256d y = _mm256_loadu_pd(s.y + k);
    const __m256d x = step_vec(c, _mm256_loadu_pd(s.x + k),
                               _mm256_loadu_pd(s.force + k), y);
    _mm256_storeu_pd(s.y + k, y);
    _mm256_storeu_pd(s.x + k, x);
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

}  // namespace adsd::kernels::detail

#endif  // __AVX2__
