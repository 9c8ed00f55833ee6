#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/aligned.hpp"
#include "support/cpu_features.hpp"

namespace adsd::kernels {

/// Force-kernel variants of the batched bSB engine (DESIGN.md §4.6).
///
///  - kAuto:      at R = 1 on a column-COP model the bipartite layout at
///                the widest ISA; otherwise the widest explicit-SIMD CSR
///                kernel the CPU supports.
///  - kScalar:    the portable lane-blocked kernel (compile-time register
///                file, auto-vectorizes at whatever width the build targets).
///  - kAvx2 /
///    kAvx512:    hand-vectorized CSR kernels; vectorization runs across the
///                replica-contiguous lanes, so each lane's per-edge
///                accumulation order -- and therefore bit-exact parity with
///                solve_sb_scalar() -- is preserved.
///  - kBipartite: what kAuto resolves to at R = 1 on a model that declares
///                the column-COP shape (IsingModel::bipartite_shape(); never
///                requested by name). Vectorizes across ROWS: each V1/V2 row
///                pair shares one product per T column, and T rows walk the
///                transposed plane (BipartiteLayout). The replica-lane
///                kernels degenerate to one dependent scalar chain per row
///                at R = 1.
///
/// A request the host cannot honor falls down the chain
/// (avx512 -> avx2 -> scalar) instead of failing, and the resolved choice
/// is reported by name through engine metrics/QoR
/// ("ising/sb/kernel/<name>").
enum class ForceKernel { kAuto, kScalar, kAvx2, kAvx512, kBipartite };

/// V rows per block of the bipartite layout (16 V1 rows plus the same 16
/// V2 rows) and T rows per block: two / four zmm, four / eight ymm, or the
/// portable tier's register files.
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
/// form one r x c plane w, and V2 row i holds -w(i, .). Tiles are
/// zero-padded to whole blocks:
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
/// before V2 neighbours. The couplings the model dropped sit in the tiles
/// as 0.0 and add +-0.0, which leaves any accumulator that is not -0.0
/// unchanged, and an h-seeded accumulator never is: IsingModel stores
/// biases canonically (never -0.0), and a sum of finite doubles is -0.0
/// only when both addends are.
struct BipartiteLayout {
  AlignedVector<double> v_tiles;
  AlignedVector<double> t_tiles;
  std::size_t rows = 0;
  std::size_t cols = 0;

  /// Points the planes' bipartite fields at this layout.
  void bind(ForcePlanes& planes) const;
};

/// Builds the bipartite layout of an r x c column COP from the CSR fields
/// of `csr` (row_start, cols, weights of the V1 rows; the model's
/// finalize() has checked the shape).
BipartiteLayout build_bipartite(const ForcePlanes& csr, std::size_t rows,
                                std::size_t cols);

/// One kernel entry point: fill force rows [row_begin, row_end) for every
/// replica lane. Rows are independent, so a sharded caller splitting
/// [0, n) across threads gets bit-identical planes in any interleaving.
/// Bipartite kernels are never sharded: they fill all n rows and take
/// only the range [0, n).
using ForceRowsFn = void (*)(const ForcePlanes& planes, std::size_t row_begin,
                             std::size_t row_end);

/// A resolved dispatch decision: the continuous (bSB) and discrete (dSB)
/// entry points of one variant, the resolved kind (never kAuto), and the
/// name reported through metrics ("scalar", "avx2", "avx512", or
/// "bipartite-<isa>" with <isa> one of those three).
struct SelectedForceKernel {
  ForceRowsFn continuous = nullptr;
  ForceRowsFn discrete = nullptr;
  ForceKernel kind = ForceKernel::kScalar;
  const char* name = "scalar";
};

/// Canonical spelling of a kernel kind ("auto", "scalar", "avx2",
/// "avx512" -- the values accepted by the registry `kernel=` key and the
/// CLI `--kernel` flag -- and "bipartite" for the resolved-only
/// kBipartite).
const char* force_kernel_name(ForceKernel kind);

/// Parses a kernel name; throws std::invalid_argument listing the valid
/// names on anything else (the registry's strict-key discipline).
ForceKernel parse_force_kernel(const std::string& name);

/// True when the variant's code was compiled into this binary (explicit
/// SIMD files are dropped under -DADSD_DISABLE_SIMD or on non-x86).
bool force_kernel_compiled(ForceKernel kind);

/// True when the variant is compiled in AND the given CPU can execute it.
/// kAuto/kScalar/kBipartite are always supported (kBipartite additionally
/// needs R = 1 and a column-COP model, which selection checks
/// separately).
bool force_kernel_supported(ForceKernel kind, const CpuFeatures& features);

/// The layouts a model admits: every model has CSR; a column-COP model
/// (one that declares IsingModel::bipartite_shape()) also has the
/// bipartite layout.
enum class ModelShape { kGeneric, kBipartite };

/// Resolves a request against CPU features, the replica count and the
/// model's shape, walking the fallback chain when the request cannot be
/// honored. kAuto resolves to the bipartite layout at the widest ISA when
/// `replicas <= 1` on a bipartite model, and to the CSR kernel at that ISA
/// otherwise; explicit requests keep the CSR layout at any replica count.
/// The defaults are the paper's solve: one trajectory of a column COP.
/// Never fails; the result's fn pointers are always callable.
SelectedForceKernel select_force_kernel(
    ForceKernel requested, const CpuFeatures& features,
    std::size_t replicas = 1, ModelShape shape = ModelShape::kBipartite);

/// The kernels that resolve to themselves on this host (with
/// `cpu_features()`) -- what the parity tests and the micro-benchmarks
/// enumerate. Always contains kScalar; the bipartite layout is reached
/// through kAuto at R = 1.
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

/// Pointer bundle of the multi-instance packed bSB engine (DESIGN.md §4.7):
/// `slots` same-n Ising instances advanced by one force pass. The state is
/// slot-minor SoA -- oscillator i of replica r of the instance in slot s
/// lives at x[(i * replicas + r) * slots + s] -- so for a fixed (i, r) the
/// instances are `slots` consecutive doubles and the kernels vectorize
/// ACROSS INSTANCES at full width even at replicas == 1, where the
/// per-instance CSR kernels degenerate to scalar code.
///
/// Weights are laid out over the UNION sparsity pattern of the packed
/// instances (urow_start / ucols: ascending column indices per row, CSR
/// shape, shared by every slot): wp[e * slots + s] is J_s(i, ucols[e]) of
/// the instance in slot s for union edge e of row i, 0.0 where that slot
/// has no such coupling. hp[i * slots + s] is its bias h_s(i). Kernels
/// iterate union edges only, so structurally-zero columns shared by ALL
/// slots cost nothing — for DALTA-style packs whose members share one
/// template pattern this halves weight traffic and flops versus an n x n
/// plane per slot.
/// Dropping the all-zero columns is bit-exact: they contributed +-0.0
/// addends to h-seeded accumulators, which never change the partial sums
/// (such an accumulator is never -0.0; see BipartiteLayout), and the
/// surviving edges keep their ascending-j order. Retired instances are
/// swap-compacted to the tail, so kernels touch only the first `active`
/// slots of every group.
struct PackForcePlanes {
  const double* x = nullptr;   // n * replicas * slots positions
  double* force = nullptr;     // n * replicas * slots output
  const double* hp = nullptr;  // n * slots per-slot biases
  const double* wp = nullptr;  // uedges * slots per-slot union weights
  const std::uint32_t* urow_start = nullptr;  // n + 1 union row offsets
  const std::uint32_t* ucols = nullptr;       // union column indices
  std::size_t n = 0;           // spins per instance
  std::size_t replicas = 0;    // lockstep replicas per instance
  std::size_t slots = 0;       // slot capacity (the stride)
  std::size_t active = 0;      // live instances, a prefix of every group
};

/// One pack-kernel entry point: fill force rows [row_begin, row_end) for
/// every replica of every active slot. Rows are independent, exactly like
/// ForceRowsFn.
using PackForceRowsFn = void (*)(const PackForcePlanes& planes,
                                 std::size_t row_begin, std::size_t row_end);

/// Resolved pack-kernel dispatch decision; names are "pack-scalar",
/// "pack-avx2", "pack-avx512".
struct SelectedPackForceKernel {
  PackForceRowsFn continuous = nullptr;
  PackForceRowsFn discrete = nullptr;
  ForceKernel kind = ForceKernel::kScalar;  // resolved ISA tier, never kAuto
  const char* name = "pack-scalar";
};

/// Resolves a pack-kernel request against CPU features: kAuto means
/// "widest ISA", and explicit ISA requests walk the same avx512 -> avx2
/// -> scalar fallback chain as select_force_kernel(). Never fails.
SelectedPackForceKernel select_pack_force_kernel(ForceKernel requested,
                                                 const CpuFeatures& features);

}  // namespace adsd::kernels
