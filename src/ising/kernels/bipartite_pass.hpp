#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "ising/kernels/force_kernels_detail.hpp"

// The bipartite layout's interleaved force pass and its interval loop
// (DESIGN.md §4.6), written once and instantiated by each ISA tier with
// its own register groups. Everything here has internal linkage: each
// tier's translation unit is compiled with its own -m flags, so no
// instantiation or helper may be shared with (and picked by the linker
// for) another tier.
//
// A tier supplies two group types that hold accumulators in registers:
//
//   struct VGroup {  // kRows V rows: their V1 and their V2 accumulators
//     static constexpr std::size_t kRows;
//     void load(const double* h1, const double* h2, std::size_t live);
//     template <bool Discrete> void trip(const double* w, double x);
//     template <class Out>
//     void emit(const Out& out, std::size_t k1, std::size_t k2,
//               std::size_t live) const;
//   };
//   struct TGroup {  // kCols T rows
//     static constexpr std::size_t kCols;
//     void load(const double* h, std::size_t live);
//     template <bool Discrete, bool Minus>
//     void trip(const double* w, double x);
//     template <class Out>
//     void emit(const Out& out, std::size_t k, std::size_t live) const;
//   };
//
// load() seeds the `live` leading lanes with their biases and the padding
// lanes with +0.0. A V group's trip j (j = 0 .. c-1) forms p = w * x_Tj
// once per lane (x's sign for dSB), adds p to the V1 side and subtracts it
// from the V2 side. A T group's trip i (i = 0 .. 2r-1) reads x_i -- V1 row
// i for i < r, then V2 row i - r -- and adds (Minus = false) or subtracts
// (Minus = true) w * x_i per lane. Both are the CSR reference's order
// (BipartiteLayout). emit() hands the finished forces to `out` one
// register at a time: out(lane, live, reg) for the register whose first
// lane is spin `lane` and whose first `live` lanes are real spins (V1 rows
// from k1, V2 rows from k2, T rows from k). The force entry point's `out`
// stores them; the interval kernel's runs the bSB step on them.
//
// The pass walks the V groups' trips and the T groups' trips side by side,
// one V trip and one T trip per iteration, so a tier keeps its V chains
// and its T chains in flight together instead of one pass after the
// other. Group boundaries need not line up: when a group runs out of
// trips it emits and the next group of its kind opens while the other
// side carries on, and once one side has no groups left the other runs
// alone. Every accumulator still sees its own trips in ascending order,
// one rounding per multiply and per add, so the forces are bit-identical
// to running the V groups, then the T groups.
//
// The interval kernel steps each group's lanes as soon as the group is
// done, from its registers. The rest of the pass still reads the old
// positions, so the step writes the new ones to a second plane and the
// two planes swap roles every step.

namespace adsd::kernels::detail {
namespace {

inline double ramp_neg_stiffness(double detuning, double total,
                                 std::size_t step) {
  const double a = detuning * (static_cast<double>(step) + 1.0) / total;
  return -(detuning - a);
}

template <bool Discrete, class V>
inline void v_trips(V& v, const double* w, const double* xt, std::size_t k) {
  for (std::size_t q = 0; q < k; ++q, w += kBipartiteVRows) {
    v.template trip<Discrete>(w, xt[q]);
  }
}

template <bool Discrete, bool Minus, class T>
inline void t_trips(T& t, const double* w, const double* xv, std::size_t k) {
  for (std::size_t q = 0; q < k; ++q, w += kBipartiteTRows) {
    t.template trip<Discrete, Minus>(w, xv[q]);
  }
}

template <bool Discrete, bool Minus, class V, class T>
inline void paired_trips(V& v, T& t, const double* vw, const double* tw,
                         const double* xt, const double* xv, std::size_t k) {
  for (std::size_t q = 0; q < k;
       ++q, vw += kBipartiteVRows, tw += kBipartiteTRows) {
    v.template trip<Discrete>(vw, xt[q]);
    t.template trip<Discrete, Minus>(tw, xv[q]);
  }
}

/// One force pass of the bipartite layout over positions `x`:
/// every one of the n forces goes to `out` (see emit()).
template <class V, class T, bool Discrete, class Out>
[[gnu::always_inline]] inline void bipartite_pass(const ForcePlanes& p,
                                                  const double* x,
                                                  const Out& out) {
  constexpr std::size_t VB = kBipartiteVRows;
  constexpr std::size_t TB = kBipartiteTRows;
  static_assert(VB % V::kRows == 0 && TB % T::kCols == 0,
                "a group must not straddle tile blocks");
  const std::size_t r = p.bip_rows;
  const std::size_t c = p.bip_cols;
  const double* const x_v2 = x + r;      // T trips switch to V2 rows here
  const double* const x_t = x + 2 * r;   // T positions: the V trips' x
  const double* const x_end = x_t + c;
  // T side: the group of columns [col0, col0 + kCols); tx is its next
  // trip's position (V1 rows, then V2 rows) and tw its tile row, which
  // restarts at the V1/V2 switch.
  T t;
  std::size_t col0 = 0;
  const double* tx = x;
  const double* tile = nullptr;
  const double* tw = nullptr;
  const auto open_t = [&] {
    t.load(p.h + 2 * r + col0, std::min(T::kCols, c - col0));
    tile = p.t_tiles + (col0 - col0 % TB) * r + col0 % TB;
    tw = tile;
    tx = x;
  };
  // Moves the T side past k trips, emitting and opening groups.
  const auto advance_t = [&](std::size_t k) {
    tx += k;
    tw += k * TB;
    if (tx == x_v2) {
      tw = tile;
    }
    if (tx == x_t) {
      t.emit(out, 2 * r + col0, std::min(T::kCols, c - col0));
      col0 += T::kCols;
      if (col0 < c) {
        open_t();
      }
    }
  };
  if (c > 0) {
    open_t();
  }
  // V groups in order, each beside the T trips that remain.
  for (std::size_t row0 = 0; row0 < r; row0 += V::kRows) {
    V v;
    v.load(p.h + row0, p.h + r + row0, std::min(V::kRows, r - row0));
    const double* vw = p.v_tiles + (row0 - row0 % VB) * c + row0 % VB;
    for (const double* vx = x_t; vx != x_end;) {
      const std::size_t v_left = static_cast<std::size_t>(x_end - vx);
      if (col0 >= c) {
        v_trips<Discrete>(v, vw, vx, v_left);
        break;
      }
      const bool minus = tx >= x_v2;
      const std::size_t k = std::min(
          v_left, static_cast<std::size_t>((minus ? x_t : x_v2) - tx));
      if (minus) {
        paired_trips<Discrete, true>(v, t, vw, tw, vx, tx, k);
      } else {
        paired_trips<Discrete, false>(v, t, vw, tw, vx, tx, k);
      }
      vx += k;
      vw += k * VB;
      advance_t(k);
    }
    v.emit(out, row0, r + row0, std::min(V::kRows, r - row0));
  }
  // T groups left once the V side is done.
  while (col0 < c) {
    if (tx < x_v2) {
      const auto k = static_cast<std::size_t>(x_v2 - tx);
      t_trips<Discrete, false>(t, tw, tx, k);
      advance_t(k);
    }
    const auto k = static_cast<std::size_t>(x_t - tx);
    t_trips<Discrete, true>(t, tw, tx, k);
    advance_t(k);
  }
}

/// A whole BsbIntervalPlanes interval: per step one pass whose `out`
/// (StepOut, built from the interval, the step's neg_stiffness and the
/// position planes it reads and writes) steps every group's lanes. The
/// positions end in s.x whatever the parity of s.steps.
template <class V, class T, bool Discrete, class StepOut>
void bipartite_interval(const ForcePlanes& p, const BsbIntervalPlanes& s) {
  double* cur = s.x;
  double* next = s.x_next;
  for (std::size_t k = 0; k < s.steps; ++k) {
    const StepOut out(
        s, ramp_neg_stiffness(s.detuning, s.total, s.step0 + k), cur, next);
    bipartite_pass<V, T, Discrete>(p, cur, out);
    std::swap(cur, next);
  }
  if (cur != s.x) {
    std::copy(cur, cur + p.n, s.x);
  }
}

}  // namespace
}  // namespace adsd::kernels::detail
