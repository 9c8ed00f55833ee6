// Hand-vectorized AVX-512F kernels, compiled with -mavx512f in their own
// translation unit under the mul-then-add bit-exactness contract (no FMA,
// -ffp-contract=off): the bipartite pass holds a V block in four
// zmm (16 V1 and 16 V2 rows) beside a T block in four zmm (32 rows), the
// bSB step runs eight lanes per zmm (also inside the bipartite interval
// kernel), and the Theorem-3 reset holds a 32-column chunk of costs per
// pattern in four zmm. Only reached after the runtime CPUID + XCR0 probe
// confirms OS zmm state support.

#include "ising/kernels/bipartite_pass.hpp"
#include "ising/kernels/force_kernels_detail.hpp"

#ifdef __AVX512F__

#include <immintrin.h>

#include <algorithm>

namespace adsd::kernels::detail {

namespace {

/// Lane mask of the first `live` lanes (all eight when live >= 8).
inline __mmask8 first_lanes(std::size_t live) {
  return live >= 8 ? static_cast<__mmask8>(0xFF)
                   : static_cast<__mmask8>((1u << live) - 1u);
}

template <bool Discrete>
inline __m512d broadcast_drive(double x) {
  return _mm512_set1_pd(Discrete ? (x >= 0.0 ? 1.0 : -1.0) : x);
}

// The bSB step's broadcast operands (BsbStepPlanes).
struct StepConsts {
  __m512d neg_stiffness;
  __m512d c0;
  __m512d dt;
  __m512d dt_detuning;
  __m512d lo_wall = _mm512_set1_pd(-1.0);
  __m512d hi_wall = _mm512_set1_pd(1.0);

  StepConsts(double neg_stiffness_, double c0_, double dt_,
             double dt_detuning_)
      : neg_stiffness(_mm512_set1_pd(neg_stiffness_)),
        c0(_mm512_set1_pd(c0_)),
        dt(_mm512_set1_pd(dt_)),
        dt_detuning(_mm512_set1_pd(dt_detuning_)) {}
};

// One bSB step of eight lanes: updates y and returns the new x. The
// portable loop's expression tree, with the walls as compare + blend so a
// NaN x' keeps its value and zeroes its momentum exactly as the scalar
// selects do.
inline __m512d step_vec(const StepConsts& s, __m512d x, __m512d f,
                        __m512d& y) {
  const __m512d drive = _mm512_add_pd(_mm512_mul_pd(s.neg_stiffness, x),
                                      _mm512_mul_pd(s.c0, f));
  y = _mm512_add_pd(y, _mm512_mul_pd(s.dt, drive));
  const __m512d xk = _mm512_add_pd(x, _mm512_mul_pd(s.dt_detuning, y));
  const __m512d lo = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(xk, s.lo_wall, _CMP_LT_OQ), xk, s.lo_wall);
  const __m512d clamped = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(lo, s.hi_wall, _CMP_GT_OQ), lo, s.hi_wall);
  y = _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(clamped, xk, _CMP_EQ_OQ), y);
  return clamped;
}

// One bSB step over the lanes [k, k + 8) selected by `m`.
inline void bsb_step_lanes(const BsbStepPlanes& s, const StepConsts& c,
                           std::size_t k, __mmask8 m) {
  __m512d y = _mm512_maskz_loadu_pd(m, s.y + k);
  const __m512d x =
      step_vec(c, _mm512_maskz_loadu_pd(m, s.x + k),
               _mm512_maskz_loadu_pd(m, s.force + k), y);
  _mm512_mask_storeu_pd(s.y + k, m, y);
  _mm512_mask_storeu_pd(s.x + k, m, x);
}

// Bipartite groups (BipartiteLayout; the pass is in
// bipartite_pass.hpp): a V group is a whole tile block, 16 V1 and 16 V2
// accumulators in four zmm, sharing one product per T column between the
// two sides; a T group is a whole tile block, 32 accumulators in four zmm.
// Paired, a pass keeps eight add chains in flight. Biases load and
// results store through lane masks where a group has padding lanes, so
// those are never read from h or written.
struct VGroup {
  static constexpr std::size_t kRows = 16;
  __m512d a1;
  __m512d b1;
  __m512d a2;
  __m512d b2;

  void load(const double* h1, const double* h2, std::size_t live) {
    if (live == kRows) {
      a1 = _mm512_loadu_pd(h1);
      b1 = _mm512_loadu_pd(h1 + 8);
      a2 = _mm512_loadu_pd(h2);
      b2 = _mm512_loadu_pd(h2 + 8);
      return;
    }
    const __mmask8 m0 = first_lanes(live);
    const __mmask8 m1 = first_lanes(live > 8 ? live - 8 : 0);
    a1 = _mm512_maskz_loadu_pd(m0, h1);
    b1 = _mm512_maskz_loadu_pd(m1, h1 + 8);
    a2 = _mm512_maskz_loadu_pd(m0, h2);
    b2 = _mm512_maskz_loadu_pd(m1, h2 + 8);
  }
  template <bool Discrete>
  void trip(const double* w, double x) {
    const __m512d v = broadcast_drive<Discrete>(x);
    const __m512d pa = _mm512_mul_pd(_mm512_loadu_pd(w), v);
    const __m512d pb = _mm512_mul_pd(_mm512_loadu_pd(w + 8), v);
    a1 = _mm512_add_pd(a1, pa);
    b1 = _mm512_add_pd(b1, pb);
    a2 = _mm512_sub_pd(a2, pa);
    b2 = _mm512_sub_pd(b2, pb);
  }
  template <class Out>
  void emit(const Out& out, std::size_t k1, std::size_t k2,
            std::size_t live) const {
    const std::size_t live1 = live > 8 ? live - 8 : 0;
    out(k1, std::min<std::size_t>(live, 8), a1);
    out(k2, std::min<std::size_t>(live, 8), a2);
    if (live1 > 0) {
      out(k1 + 8, live1, b1);
      out(k2 + 8, live1, b2);
    }
  }
};

struct TGroup {
  static constexpr std::size_t kCols = 32;
  __m512d a;
  __m512d b;
  __m512d c;
  __m512d d;

  static std::size_t lanes(std::size_t live, std::size_t q) {
    return live > 8 * q ? std::min<std::size_t>(live - 8 * q, 8) : 0;
  }
  static __m512d apply(bool minus, __m512d acc, __m512d prod) {
    return minus ? _mm512_sub_pd(acc, prod) : _mm512_add_pd(acc, prod);
  }
  void load(const double* h, std::size_t live) {
    if (live == kCols) {
      a = _mm512_loadu_pd(h);
      b = _mm512_loadu_pd(h + 8);
      c = _mm512_loadu_pd(h + 16);
      d = _mm512_loadu_pd(h + 24);
      return;
    }
    a = _mm512_maskz_loadu_pd(first_lanes(lanes(live, 0)), h);
    b = _mm512_maskz_loadu_pd(first_lanes(lanes(live, 1)), h + 8);
    c = _mm512_maskz_loadu_pd(first_lanes(lanes(live, 2)), h + 16);
    d = _mm512_maskz_loadu_pd(first_lanes(lanes(live, 3)), h + 24);
  }
  template <bool Discrete, bool Minus>
  void trip(const double* w, double x) {
    const __m512d v = broadcast_drive<Discrete>(x);
    a = apply(Minus, a, _mm512_mul_pd(_mm512_loadu_pd(w), v));
    b = apply(Minus, b, _mm512_mul_pd(_mm512_loadu_pd(w + 8), v));
    c = apply(Minus, c, _mm512_mul_pd(_mm512_loadu_pd(w + 16), v));
    d = apply(Minus, d, _mm512_mul_pd(_mm512_loadu_pd(w + 24), v));
  }
  template <class Out>
  void emit(const Out& out, std::size_t k, std::size_t live) const {
    out(k, lanes(live, 0), a);
    if (live > 8) {
      out(k + 8, lanes(live, 1), b);
    }
    if (live > 16) {
      out(k + 16, lanes(live, 2), c);
    }
    if (live > 24) {
      out(k + 24, lanes(live, 3), d);
    }
  }
};

// The force entry point's output: forces stored to the plane.
struct ForceOut {
  double* force;

  void operator()(std::size_t k, std::size_t live, __m512d f) const {
    if (live == 8) {
      _mm512_storeu_pd(force + k, f);
    } else {
      _mm512_mask_storeu_pd(force + k, first_lanes(live), f);
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

  void operator()(std::size_t k, std::size_t live, __m512d f) const {
    if (live == 8) {
      __m512d yk = _mm512_loadu_pd(y + k);
      const __m512d xk = step_vec(consts, _mm512_loadu_pd(x + k), f, yk);
      _mm512_storeu_pd(y + k, yk);
      _mm512_storeu_pd(x_next + k, xk);
    } else {
      const __mmask8 m = first_lanes(live);
      __m512d yk = _mm512_maskz_loadu_pd(m, y + k);
      const __m512d xk =
          step_vec(consts, _mm512_maskz_loadu_pd(m, x + k), f, yk);
      _mm512_mask_storeu_pd(y + k, m, yk);
      _mm512_mask_storeu_pd(x_next + k, m, xk);
    }
  }
};

}  // namespace

void bipartite_force_avx512(const ForcePlanes& p) {
  bipartite_pass<VGroup, TGroup, false>(p, p.x, ForceOut{p.force});
}
void bipartite_force_avx512_d(const ForcePlanes& p) {
  bipartite_pass<VGroup, TGroup, true>(p, p.x, ForceOut{p.force});
}
void bipartite_interval_avx512(const ForcePlanes& p,
                               const BsbIntervalPlanes& s) {
  bipartite_interval<VGroup, TGroup, false, StepOut>(p, s);
}
void bipartite_interval_avx512_d(const ForcePlanes& p,
                                 const BsbIntervalPlanes& s) {
  bipartite_interval<VGroup, TGroup, true, StepOut>(p, s);
}
void bsb_step_avx512(const BsbStepPlanes& s) {
  const StepConsts c(s.neg_stiffness, s.c0, s.dt, s.dt_detuning);
  std::size_t k = 0;
  for (; k + 8 <= s.lanes; k += 8) {
    bsb_step_lanes(s, c, k, first_lanes(8));
  }
  if (k < s.lanes) {
    bsb_step_lanes(s, c, k, first_lanes(s.lanes - k));
  }
}
// Theorem-3 reset: a 32-column chunk keeps each pattern's costs in four
// zmm across the ascending rows; a row adds its gain chunk through a mask
// that is empty when the row's sign is negative. The T positions and
// momenta store through lane masks.
void theorem3_reset_avx512(const Theorem3Planes& p) {
  constexpr std::size_t CB = 32;
  const std::size_t r = p.rows;
  const std::size_t c = p.cols;
  const __m512d minus_one = _mm512_set1_pd(-1.0);
  const __m512d plus_one = _mm512_set1_pd(1.0);
  const double* x1 = p.x;
  const double* x2 = p.x + r;
  std::size_t pattern2 = 0;
  for (std::size_t col0 = 0; col0 < c; col0 += CB) {
    const std::size_t live = std::min(CB, c - col0);
    __mmask8 m[4];
    __m512d a1[4];
    __m512d a2[4];
    for (std::size_t k = 0; k < 4; ++k) {
      m[k] = first_lanes(live > 8 * k ? live - 8 * k : 0);
      a1[k] = _mm512_setzero_pd();
      a2[k] = _mm512_setzero_pd();
    }
    for (std::size_t i = 0; i < r; ++i) {
      const auto on1 = static_cast<__mmask8>(x1[i] >= 0.0 ? 0xFF : 0x00);
      const auto on2 = static_cast<__mmask8>(x2[i] >= 0.0 ? 0xFF : 0x00);
      const double* g = p.gain + i * c + col0;
      for (std::size_t k = 0; k < 4; ++k) {
        const __m512d gk = _mm512_maskz_loadu_pd(m[k], g + 8 * k);
        a1[k] = _mm512_mask_add_pd(a1[k], on1, a1[k], gk);
        a2[k] = _mm512_mask_add_pd(a2[k], on2, a2[k], gk);
      }
    }
    double* xt = p.x + 2 * r + col0;
    double* yt = p.y + 2 * r + col0;
    for (std::size_t k = 0; k < 4; ++k) {
      const __mmask8 two =
          _mm512_cmp_pd_mask(a2[k], a1[k], _CMP_LT_OQ) & m[k];
      pattern2 += static_cast<std::size_t>(__builtin_popcount(two));
      const __m512d t = _mm512_mask_blend_pd(two, minus_one, plus_one);
      _mm512_mask_storeu_pd(xt + 8 * k, m[k], t);
      _mm512_mask_storeu_pd(yt + 8 * k, m[k], _mm512_setzero_pd());
    }
  }
  if (p.one_pattern != nullptr) {
    *p.one_pattern = pattern2 == 0 || pattern2 == c;
  }
}

}  // namespace adsd::kernels::detail

#endif  // __AVX512F__
