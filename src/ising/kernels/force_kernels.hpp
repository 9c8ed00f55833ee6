#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/aligned.hpp"
#include "support/cpu_features.hpp"

namespace adsd::kernels {

/// Force-kernel requests and resolved kinds of the ensemble engines
/// (DESIGN.md §4.6). No user setting picks one: the engines request kAuto,
/// and the host and the model decide.
///
///  - kAuto:      at R = 1 on a column-COP model the bipartite layout at
///                the widest ISA; otherwise the CSR kernel.
///  - kScalar:    the CSR kernel, the same on every host: a lane-blocked
///                register file over the replica-contiguous lanes that
///                auto-vectorizes at whatever width the build targets and
///                keeps each lane's per-edge accumulation order, and
///                therefore bit-exact parity with solve_sb_scalar(). As a
///                request it also pins the portable tier of the families
///                below.
///  - kAvx2 /
///    kAvx512:    ISA tiers of the kernel families that have them (the
///                bipartite force and interval kernels, the bSB step and
///                the Theorem-3 reset). A force request for one still
///                resolves to the CSR kernel.
///  - kBipartite: what kAuto resolves to at R = 1 on a column-COP model
///                (IsingModel::bipartite_shape(); never requested).
///                Vectorizes across ROWS: each V1/V2 row pair shares one
///                product per T column, and T rows walk the transposed
///                plane (BipartiteLayout). The replica-lane kernel
///                degenerates to one dependent scalar chain per row at
///                R = 1.
///
/// An ISA the host cannot run falls down the chain (avx512 -> avx2 ->
/// scalar) instead of failing, and the resolved force kernel is reported
/// by name through engine metrics/QoR ("ising/sb/kernel/<name>").
/// In-process callers (tests, benchmarks) request kScalar to reach the
/// CSR reference at R = 1 and explicit ISAs to pin a tier.
enum class ForceKernel { kAuto, kScalar, kAvx2, kAvx512, kBipartite };

/// V rows per tile block of the bipartite layout (16 V1 rows plus the same
/// 16 V2 rows) and T rows per tile block. A tier's pass may walk a block in
/// narrower groups (the AVX-512 tier takes whole blocks in two / four zmm,
/// the AVX2 and portable tiers half blocks), so these are the tile
/// strides, not every tier's register width.
inline constexpr std::size_t kBipartiteVRows = 16;
inline constexpr std::size_t kBipartiteTRows = 32;

/// Pointer bundle over the engine's flattened planes: replica-contiguous
/// SoA positions/forces (element i of replica r at index i * replicas + r),
/// split CSR index/weight planes, and -- for the bipartite layout -- its
/// tiles and shape. All pointers stay owned by the engine/model; kernels
/// write only force[row * replicas ...].
struct ForcePlanes {
  const double* x = nullptr;            // n * replicas positions
  double* force = nullptr;              // n * replicas output
  const double* h = nullptr;            // n biases
  const std::size_t* row_start = nullptr;  // n + 1 CSR offsets
  const std::uint32_t* cols = nullptr;  // CSR column indices
  const double* weights = nullptr;      // CSR coupling weights
  const double* v_tiles = nullptr;      // bipartite V-block tiles
  const double* t_tiles = nullptr;      // bipartite T-block tiles
  std::size_t bip_rows = 0;             // bipartite r (V1 = [0, r))
  std::size_t bip_cols = 0;             // bipartite c (T = [2r, 2r + c))
  std::size_t n = 0;                    // spins
  std::size_t replicas = 0;             // lanes per spin
};

/// Bipartite layout of a column-COP model (R = 1 only; DESIGN.md §4.6).
/// Spins are V1 [0, r), V2 [r, 2r), T [2r, 2r + c), the V1-T couplings
/// form one r x c plane w (IsingModel::bipartite_plane()), and V2 row i
/// holds -w(i, .). Tiles are zero-padded to whole blocks:
///  - v_tiles: block b of kBipartiteVRows V rows at offset b * 16 * c,
///    element [j * 16 + t] = w(16b + t, j);
///  - t_tiles: block b of kBipartiteTRows T rows at offset b * 32 * r,
///    element [i * 32 + t] = w(i, 32b + t).
///
/// Bit-exactness: a V block computes p = w * x_Tj once per column and
/// adds it to the V1 accumulator and subtracts it from the V2 one; CSR
/// adds (-w) * x_Tj, and IEEE negation is exact, so both see the same
/// rounded values. A T block adds w * x_V1i over ascending i, then
/// subtracts w * x_V2i over ascending i: CSR's order, V1 neighbours
/// before V2 neighbours. The couplings CSR drops (zero plane entries) and
/// the padding sit in the tiles as +-0.0 and add +-0.0, which leaves any
/// accumulator that is not -0.0 unchanged, and an h-seeded accumulator
/// never is: IsingModel stores biases canonically (never -0.0), and a sum
/// of finite doubles is -0.0 only when both addends are.
struct BipartiteLayout {
  AlignedVector<double> v_tiles;
  AlignedVector<double> t_tiles;
  std::size_t rows = 0;
  std::size_t cols = 0;

  /// Points the planes' bipartite fields at this layout.
  void bind(ForcePlanes& planes) const;
};

/// Builds the bipartite layout of an r x c column COP from its coupling
/// plane (row-major w(i, j), IsingModel::bipartite_plane()).
BipartiteLayout build_bipartite(const double* plane, std::size_t rows,
                                std::size_t cols);

/// One kernel entry point: fill all n force rows for every replica lane.
using ForceRowsFn = void (*)(const ForcePlanes& planes);

/// Operands of a bSB interval on the bipartite layout
/// (BsbBatchEngine::advance at R = 1): `steps` Euler steps, step k of
/// which is engine step step0 + k. Each step is one force pass over the
/// positions with the ForcePlanes' biases and tiles (its x and force are
/// not used), then the BsbStepPlanes update of all n lanes at
/// neg_stiffness = bsb_neg_stiffness(detuning, total, step0 + k). The
/// forces never leave registers; x_next is an n-double scratch plane the
/// steps alternate with x, and the positions end in x.
struct BsbIntervalPlanes {
  double* x = nullptr;
  double* y = nullptr;
  double* x_next = nullptr;
  std::size_t step0 = 0;
  std::size_t steps = 0;
  double detuning = 0.0;
  double total = 0.0;  // the iteration cap the pump ramp spans
  double dt = 0.0;
  double c0 = 0.0;
  double dt_detuning = 0.0;
};

/// One interval kernel: integrates a whole BsbIntervalPlanes interval in
/// one call, bit-identical to `steps` rounds of the CSR reference's force
/// pass followed by the portable step loop.
using BsbIntervalFn = void (*)(const ForcePlanes& planes,
                               const BsbIntervalPlanes& interval);

/// The pump ramp of engine step `step` (0-based) as the step's
/// BsbStepPlanes::neg_stiffness: -(detuning - detuning * (step + 1) /
/// total), the scalar reference's expression tree.
double bsb_neg_stiffness(double detuning, double total, std::size_t step);

/// A resolved dispatch decision: the continuous (bSB) and discrete (dSB)
/// entry points of one variant, the resolved kind (kScalar for the CSR
/// kernel or kBipartite) and the name reported through metrics ("scalar"
/// or "bipartite-<isa>" with <isa> one of scalar, avx2, avx512). Only the
/// bipartite layout has interval kernels; a CSR engine steps force pass
/// by force pass.
struct SelectedForceKernel {
  ForceRowsFn continuous = nullptr;
  ForceRowsFn discrete = nullptr;
  BsbIntervalFn interval_continuous = nullptr;
  BsbIntervalFn interval_discrete = nullptr;
  ForceKernel kind = ForceKernel::kScalar;
  const char* name = "scalar";
};

/// Spelling of a kernel kind for diagnostics ("auto", "scalar", "avx2",
/// "avx512", "bipartite").
const char* force_kernel_name(ForceKernel kind);

/// True when the variant's code was compiled into this binary (explicit
/// SIMD files are dropped under -DADSD_DISABLE_SIMD or on non-x86).
bool force_kernel_compiled(ForceKernel kind);

/// True when the variant is compiled in AND the given CPU can execute it.
/// kAuto/kScalar/kBipartite are always supported (kBipartite additionally
/// needs R = 1 and a column-COP model, which selection checks
/// separately).
bool force_kernel_supported(ForceKernel kind, const CpuFeatures& features);

/// The layouts a model admits: every model has CSR; a column-COP model
/// (one with IsingModel::bipartite_shape()) also has the
/// bipartite layout.
enum class ModelShape { kGeneric, kBipartite };

/// Resolves a request against CPU features, the replica count and the
/// model's shape. kAuto resolves to the bipartite layout at the widest ISA
/// when `replicas <= 1` on a bipartite model; everything else, explicit
/// requests at any replica count included, resolves to the CSR kernel.
/// The defaults are the paper's solve: one trajectory of a column COP.
/// Never fails; the result's fn pointers are always callable.
SelectedForceKernel select_force_kernel(
    ForceKernel requested, const CpuFeatures& features,
    std::size_t replicas = 1, ModelShape shape = ModelShape::kBipartite);

/// The ISA tiers this host runs (with `cpu_features()`): kScalar, then
/// kAvx2 and kAvx512 where supported -- what the parity tests enumerate
/// to pin each tier of the bSB step and the Theorem-3 reset. The
/// bipartite tiers are reached through kAuto at R = 1 under masked
/// CpuFeatures.
std::vector<ForceKernel> selectable_force_kernels();

/// Operands of one bSB Euler step over `lanes` oscillators
/// (BsbBatchEngine::step): per lane,
///
///   y  += dt * (neg_stiffness * x + c0 * force);
///   x'  = x + dt_detuning * y;
///
/// then x' is clamped to [-1, 1], and y is zeroed wherever the clamped
/// value differs from x' -- a NaN x' included, since NaN != NaN.
struct BsbStepPlanes {
  double* x = nullptr;
  double* y = nullptr;
  const double* force = nullptr;
  std::size_t lanes = 0;
  double neg_stiffness = 0.0;
  double dt = 0.0;
  double c0 = 0.0;
  double dt_detuning = 0.0;
};

/// One step tier. Every tier keeps the expression order above with one
/// rounding per multiply and per add (no FMA), so all are bit-identical
/// to the portable loop.
using BsbStepFn = void (*)(const BsbStepPlanes& planes);

/// The step tier for a kernel request: the ISA select_force_kernel()
/// resolves `requested` to (kAuto: the widest supported one), independent
/// of the force layout. Never fails.
BsbStepFn select_bsb_step(ForceKernel requested, const CpuFeatures& features);

/// Operands of one Theorem-3 plane reset (ColumnCop::reset_optimal_t_planes,
/// DESIGN.md §4.6) of an r x c column COP over the SoA planes of R
/// replicas (spin i of replica q at index i * replicas + q; V1 spins at
/// [0, r), V2 at [r, 2r), T at [2r, 2r + c)). For every column j and
/// replica q:
///
///   cost1 = sum of gain(i, j) over ascending i with x(V1_i) >= 0,
///   cost2 = the same over x(V2_i) >= 0,
///
/// then x(T_j) = +1 if cost2 < cost1 (pattern 2) else -1, and y(T_j) = 0.
/// When `one_pattern` is non-null, one_pattern[q] is set to 1 if every
/// column of replica q took the same pattern and to 0 otherwise.
struct Theorem3Planes {
  const double* gain = nullptr;         // r * c, row-major
  double* x = nullptr;                  // (2r + c) * replicas positions
  double* y = nullptr;                  // (2r + c) * replicas momenta
  std::uint8_t* one_pattern = nullptr;  // replicas flags, or nullptr
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t replicas = 0;
};

/// One reset tier. Every tier keeps each cost's ascending-row sum with
/// one rounding per add; a row whose sign is negative adds nothing (a
/// masked add, or an add of +0.0, which is exact: a cost starts at +0.0
/// and never becomes -0.0). All tiers are therefore bit-identical to the
/// portable loop and to ColumnCop::reset_optimal_t.
using Theorem3ResetFn = void (*)(const Theorem3Planes& planes);

/// The reset tier for a kernel request: the ISA select_force_kernel()
/// resolves `requested` to (kAuto: the widest supported one). Never
/// fails.
Theorem3ResetFn select_theorem3_reset(ForceKernel requested,
                                      const CpuFeatures& features);

}  // namespace adsd::kernels
