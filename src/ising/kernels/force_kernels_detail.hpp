#pragma once

#include <cstddef>

#include "ising/kernels/force_kernels.hpp"

// Internal linkage surface between the dispatcher (force_kernels.cpp) and
// the per-ISA translation units, which are compiled with their own -m
// flags. Every force function fills all n force rows; *_d variants are
// the discrete (sign-of-x) dSB flavor.
//
// Bit-exactness contract shared by every implementation: row i
// accumulates h[i] then w_e * x_e terms in the portable CSR kernel's edge
// order with one rounding per multiply and one per add -- no FMA
// contraction (the build pins -ffp-contract=off) and no cross-edge
// reassociation. Vector code vectorizes across the rows of one block
// only, so each row's scalar accumulation order is untouched. The
// bipartite kernels subtract w * x where CSR adds (-w) * x, which IEEE
// negation makes the same value, and their zero tile entries add
// 0.0 * x = +-0.0, which cannot change an h-seeded accumulator:
// IsingModel stores biases canonically, so h[i] is never -0.0, and a
// finite sum is -0.0 only when both addends are (see BipartiteLayout).

namespace adsd::kernels::detail {

// Bipartite kernels (column-COP models; bipartite_pass.hpp): the
// force entry points run one pass; the interval entry points integrate a
// BsbIntervalPlanes interval with the same pass and the tier's bSB step.
void bipartite_force_avx2(const ForcePlanes& p);
void bipartite_force_avx2_d(const ForcePlanes& p);
void bipartite_interval_avx2(const ForcePlanes& p, const BsbIntervalPlanes& s);
void bipartite_interval_avx2_d(const ForcePlanes& p,
                               const BsbIntervalPlanes& s);

void bipartite_force_avx512(const ForcePlanes& p);
void bipartite_force_avx512_d(const ForcePlanes& p);
void bipartite_interval_avx512(const ForcePlanes& p,
                               const BsbIntervalPlanes& s);
void bipartite_interval_avx512_d(const ForcePlanes& p,
                                 const BsbIntervalPlanes& s);

// bSB step tiers (BsbStepPlanes): the portable loop (built for the
// baseline ISA; also the AVX2 tier's tail) and its vector siblings, with
// the same per-lane expression order and separate multiplies and adds.
void bsb_step_portable(const BsbStepPlanes& s);
void bsb_step_avx2(const BsbStepPlanes& s);
void bsb_step_avx512(const BsbStepPlanes& s);

// Theorem-3 reset tiers (Theorem3Planes): cost accumulators held in
// registers over column chunks (8 columns portable, 16 AVX2, 32
// AVX-512), rows ascending, no FMA.
void theorem3_reset_portable(const Theorem3Planes& p);
void theorem3_reset_avx2(const Theorem3Planes& p);
void theorem3_reset_avx512(const Theorem3Planes& p);

}  // namespace adsd::kernels::detail
