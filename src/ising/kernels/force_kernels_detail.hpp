#pragma once

#include <cstddef>

#include "ising/kernels/force_kernels.hpp"

// Internal linkage surface between the dispatcher (force_kernels.cpp) and
// the per-ISA translation units, which are compiled with their own -m
// flags. Every function fills force rows [row_begin, row_end) for all
// replica lanes; *_d variants are the discrete (sign-of-x) dSB flavor.
//
// Bit-exactness contract shared by every implementation: lane t of row i
// accumulates h[i] then w_e * x_e terms in CSR edge order with one
// rounding per multiply and one per add -- no FMA contraction (the build
// pins -ffp-contract=off) and no cross-edge reassociation. Vector code
// vectorizes across lanes (replicas, or rows of one block) only, so each
// row's scalar accumulation order is untouched. The bipartite kernels
// subtract w * x where CSR adds (-w) * x, which IEEE negation makes the
// same value, and their zero tile entries add 0.0 * x = +-0.0, which
// cannot change an h-seeded accumulator: IsingModel stores biases
// canonically, so h[i] is never -0.0, and a finite sum is -0.0 only when
// both addends are (see BipartiteLayout).

namespace adsd::kernels::detail {

void csr_force_avx2(const ForcePlanes& p, std::size_t row_begin,
                    std::size_t row_end);
void csr_force_avx2_d(const ForcePlanes& p, std::size_t row_begin,
                      std::size_t row_end);

// Bipartite kernels (R = 1, column-COP models; bipartite_pass.hpp): the
// force entry points fill all n rows and take only the range [0, n); the
// interval entry points integrate a BsbIntervalPlanes interval with the
// same pass and the tier's bSB step.
void bipartite_force_avx2(const ForcePlanes& p, std::size_t row_begin,
                          std::size_t row_end);
void bipartite_force_avx2_d(const ForcePlanes& p, std::size_t row_begin,
                            std::size_t row_end);
void bipartite_interval_avx2(const ForcePlanes& p, const BsbIntervalPlanes& s);
void bipartite_interval_avx2_d(const ForcePlanes& p,
                               const BsbIntervalPlanes& s);

void csr_force_avx512(const ForcePlanes& p, std::size_t row_begin,
                      std::size_t row_end);
void csr_force_avx512_d(const ForcePlanes& p, std::size_t row_begin,
                        std::size_t row_end);
void bipartite_force_avx512(const ForcePlanes& p, std::size_t row_begin,
                            std::size_t row_end);
void bipartite_force_avx512_d(const ForcePlanes& p, std::size_t row_begin,
                              std::size_t row_end);
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

// Pack kernels (DESIGN.md §4.7): same contract per (instance, replica)
// lane, but the vector axis is the slot axis -- `active` consecutive
// instances per (row, replica) group. Each slot's accumulator still sees
// hp then w * x per ascending column j with one rounding per multiply and
// one per add, so a packed instance's trajectory is bit-identical to the
// same instance run alone through any per-instance kernel.

void pack_force_avx2(const PackForcePlanes& p, std::size_t row_begin,
                     std::size_t row_end);
void pack_force_avx2_d(const PackForcePlanes& p, std::size_t row_begin,
                       std::size_t row_end);

void pack_force_avx512(const PackForcePlanes& p, std::size_t row_begin,
                       std::size_t row_end);
void pack_force_avx512_d(const PackForcePlanes& p, std::size_t row_begin,
                         std::size_t row_end);

}  // namespace adsd::kernels::detail
