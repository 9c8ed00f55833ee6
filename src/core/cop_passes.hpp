#pragma once

#include <cstddef>
#include <cstdint>

#include "ising/kernels/force_kernels.hpp"
#include "support/cpu_features.hpp"

namespace adsd {

/// Operands of one COP build pass (ColumnCop::gather, DESIGN.md §4.2):
/// cell (i, j) is input pattern rows[i] | cols[j]. The pass walks the
/// cells row-major once, writes the cell's exact output bit to `bits`
/// (bit i * c + j, whole words, tail bits zero) and its base and gain
/// (index i * c + j) with the separate-mode arithmetic or, when `joint`,
/// the joint-mode case analysis over D = d[x].
struct CopBuildPlanes {
  const std::uint64_t* output = nullptr;  // exact output column, 2^n bits
  const std::uint64_t* rows = nullptr;    // r row patterns
  const std::uint64_t* cols = nullptr;    // c column patterns
  std::size_t r = 0;
  std::size_t c = 0;
  const double* probs = nullptr;  // per-pattern probabilities, or nullptr
  double uniform_prob = 0.0;      // every cell's probability when null
  bool joint = false;
  const double* d = nullptr;  // joint: D per pattern
  double bit_weight = 0.0;    // joint: 1 << k
  std::uint64_t* bits = nullptr;  // ceil(r * c / 64) words out
  double* base = nullptr;         // r * c out
  double* gain = nullptr;         // r * c out
};

/// Operands of greedy's half-steps on one setting, in BitVec's word
/// layout (bit k of word k / 64, tail bits zero). The T reset
/// (ColumnCop::reset_optimal_t, Theorem 3) rewrites t: T_j = 1 iff the
/// gains of column j summed over the rows with V2_i = 1 fall below the sum
/// over V1_i = 1, each in ascending i (ties keep pattern 1). The V reset
/// (ColumnCop::reset_optimal_v) rewrites v1 and v2: V1_i = 1 iff the gains
/// of row i over the columns with T_j = 0 sum below zero in ascending j,
/// and V2_i likewise over T_j = 1.
struct HalfStepPlanes {
  const double* gain = nullptr;  // r * c, row-major
  std::uint64_t* v1 = nullptr;   // ceil(r / 64) words
  std::uint64_t* v2 = nullptr;   // ceil(r / 64) words
  std::uint64_t* t = nullptr;    // ceil(c / 64) words
  std::size_t r = 0;
  std::size_t c = 0;
};

/// One build tier, one T-reset tier and one V-reset tier; the V reset
/// returns true when it changed a V1 or V2 word. Every tier is compiled
/// from one source (cop_passes_impl.hpp) for its ISA, with the same
/// per-cell arithmetic and the same ascending sums at one rounding per
/// operation, so all are bit-identical to the portable tier.
using CopBuildFn = void (*)(const CopBuildPlanes& planes);
using TResetFn = void (*)(const HalfStepPlanes& planes);
using VResetFn = bool (*)(const HalfStepPlanes& planes);

/// The COP passes of one ISA tier: kScalar (portable, the x86-64
/// baseline) or kAvx512. There is no AVX2 tier: measured against the
/// portable tier it sped up the build only, not the half-steps or a
/// greedy solve (EXPERIMENTS.md), so AVX2 hosts run the portable tier.
struct CopPasses {
  CopBuildFn build = nullptr;
  TResetFn reset_t = nullptr;
  VResetFn reset_v = nullptr;
  kernels::ForceKernel isa = kernels::ForceKernel::kScalar;
};

/// True when the tier for `isa` is compiled in and the CPU runs it: the
/// AVX-512 tier needs AVX-512F and BMI2 (its translation unit is built
/// with both). kScalar is always supported; kAvx2 and kAuto name no tier.
bool cop_pass_tier_supported(kernels::ForceKernel isa,
                             const CpuFeatures& features);

/// The tier a request resolves to: AVX-512 for kAuto or kAvx512 when
/// supported, else portable. Never fails. ColumnCop selects once with
/// kAuto and cpu_features(); tests pin tiers through explicit requests and
/// masked features.
CopPasses select_cop_passes(kernels::ForceKernel requested,
                            const CpuFeatures& features);

}  // namespace adsd
