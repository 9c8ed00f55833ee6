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

/// Operands of the certified objective (ColumnCop::objective on a COP
/// whose sums are exact, ColumnCop::exact_sums): base_total plus the gain
/// of every cell whose Ohat bit is set, Ohat_ij = T_j ? V2_i : V1_i, with
/// the setting in BitVec's word layout. The gains may be added in any
/// order: on such a COP no partial sum rounds, so every order gives the
/// exact sum, the one the row-major cell-cost chain reaches.
struct ObjectivePlanes {
  const double* gain = nullptr;       // r * c, row-major
  const std::uint64_t* v1 = nullptr;  // ceil(r / 64) words
  const std::uint64_t* v2 = nullptr;  // ceil(r / 64) words
  const std::uint64_t* t = nullptr;   // ceil(c / 64) words
  std::size_t r = 0;
  std::size_t c = 0;
  double base_total = 0.0;  // every cell's base, summed
};

/// One build tier, one T-reset tier, one V-reset tier, and the certified
/// objective and base-total tiers; the V reset returns true when it
/// changed a V1 or V2 word, and the base total sums `n` values. Every tier
/// is compiled from one source (cop_passes_impl.hpp) for its ISA. The
/// build and the resets run the same per-cell arithmetic and the same
/// ascending sums at one rounding per operation, so all are bit-identical
/// to the portable tier; the objective and the base total add in a tier's
/// own order, which on the COPs they serve gives the exact sum in every
/// tier.
using CopBuildFn = void (*)(const CopBuildPlanes& planes);
using TResetFn = void (*)(const HalfStepPlanes& planes);
using VResetFn = bool (*)(const HalfStepPlanes& planes);
using ObjectiveFn = double (*)(const ObjectivePlanes& planes);
using BaseTotalFn = double (*)(const double* base, std::size_t n);

/// The COP passes of one ISA tier: kScalar (portable, the x86-64
/// baseline) or kAvx512. There is no AVX2 tier: measured against the
/// portable tier it sped up the build only, not the half-steps or a
/// greedy solve (EXPERIMENTS.md), so AVX2 hosts run the portable tier.
struct CopPasses {
  CopBuildFn build = nullptr;
  TResetFn reset_t = nullptr;
  VResetFn reset_v = nullptr;
  ObjectiveFn objective = nullptr;
  BaseTotalFn base_total = nullptr;
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
