#pragma once

#include <cstddef>

#include "ising/kernels/force_kernels.hpp"

// Internal linkage surface between the dispatcher (force_kernels.cpp) and
// the per-ISA translation units, which are compiled with their own -m
// flags. Every function fills force rows [row_begin, row_end) for all
// replica lanes; *_d variants are the discrete (sign-of-x) dSB flavor.
//
// Bit-exactness contract shared by every implementation: lane t of row i
// accumulates h[i] then w_e * x_e terms in CSR edge order (row-block
// kernels: ascending column order, which matches CSR order because
// finalize() stores neighbors ascending) with one rounding per multiply
// and one per add -- no FMA contraction (the build pins
// -ffp-contract=off) and no cross-edge reassociation. Vector code
// vectorizes across lanes (replicas, or rows of one block) only, so each
// row's scalar accumulation order is untouched. The extra columns the
// row-block kernels walk add 0.0 * x = +-0.0, which cannot change an
// h-seeded accumulator: IsingModel stores biases canonically, so h[i] is
// never -0.0, and a finite sum is -0.0 only when both addends are.

namespace adsd::kernels::detail {

void csr_force_avx2(const ForcePlanes& p, std::size_t row_begin,
                    std::size_t row_end);
void csr_force_avx2_d(const ForcePlanes& p, std::size_t row_begin,
                      std::size_t row_end);

// Row-block kernels (R = 1): row_begin must be a block boundary and
// row_end a block boundary or n; the tail block's store is masked.
void rowblock_force_avx2(const ForcePlanes& p, std::size_t row_begin,
                         std::size_t row_end);
void rowblock_force_avx2_d(const ForcePlanes& p, std::size_t row_begin,
                           std::size_t row_end);

void csr_force_avx512(const ForcePlanes& p, std::size_t row_begin,
                      std::size_t row_end);
void csr_force_avx512_d(const ForcePlanes& p, std::size_t row_begin,
                        std::size_t row_end);
void rowblock_force_avx512(const ForcePlanes& p, std::size_t row_begin,
                           std::size_t row_end);
void rowblock_force_avx512_d(const ForcePlanes& p, std::size_t row_begin,
                             std::size_t row_end);

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
