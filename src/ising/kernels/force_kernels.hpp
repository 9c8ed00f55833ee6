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
///  - kAuto:     at R = 1 the row-block layout at the widest ISA; at R > 1
///               the dense plane when the model materialized one, otherwise
///               the widest explicit-SIMD CSR kernel the CPU supports.
///  - kScalar:   the portable lane-blocked kernel (compile-time register
///               file, auto-vectorizes at whatever width the build targets).
///  - kAvx2 /
///    kAvx512:   hand-vectorized CSR kernels; vectorization runs across the
///               replica-contiguous lanes, so each lane's per-edge
///               accumulation order -- and therefore bit-exact parity with
///               solve_sb_scalar() -- is preserved.
///  - kDense:    blocked dense matrix x replica-plane kernel over the padded
///               J plane from IsingModel::finalize(); no index gather at all.
///  - kRowBlock: what kAuto resolves to at R = 1 (never requested by
///               name). Vectorizes across ROWS instead of replicas:
///               blocks of kRowBlockRows rows walk the union of their
///               columns (RowBlockLayout), one vector accumulator lane per
///               row. The replica-lane kernels degenerate to one dependent
///               scalar chain per row at R = 1.
///
/// A request the host cannot honor falls down the chain
/// (dense -> SIMD CSR -> scalar; avx512 -> avx2 -> scalar) instead of
/// failing, and the resolved choice is reported by name through engine
/// metrics/QoR ("ising/sb/kernel/<name>").
enum class ForceKernel { kAuto, kScalar, kAvx2, kAvx512, kDense, kRowBlock };

/// Rows per block of the row-block layout: one zmm, two ymm, or the
/// portable tier's double[8] register file.
inline constexpr std::size_t kRowBlockRows = 8;

/// Pointer bundle over the engine's flattened planes: replica-contiguous
/// SoA positions/forces (element i of replica r at index i * replicas + r),
/// split CSR index/weight planes, and -- when the model materialized one --
/// the 64-byte-aligned padded row-major dense J plane. All pointers stay
/// owned by the engine/model; kernels write only force[row * replicas ...].
struct ForcePlanes {
  const double* x = nullptr;            // n * replicas positions
  double* force = nullptr;              // n * replicas output
  const double* h = nullptr;            // n biases
  const std::size_t* row_start = nullptr;  // n + 1 CSR offsets
  const std::uint32_t* cols = nullptr;  // CSR column indices
  const double* weights = nullptr;      // CSR coupling weights
  const double* dense = nullptr;        // n x dense_stride row-major J plane
  std::size_t dense_stride = 0;         // padded row length (multiple of 8)
  const std::uint32_t* block_start = nullptr;  // blocks + 1 union offsets
  const std::uint32_t* block_cols = nullptr;   // union columns per block
  const double* block_weights = nullptr;  // union edges x 8, column-major
  const double* block_h = nullptr;        // blocks x 8 zero-padded biases
  std::size_t n = 0;                    // spins
  std::size_t replicas = 0;             // lanes per spin
};

/// Row-block layout of one model (R = 1 only; DESIGN.md §4.6). Rows are
/// grouped in blocks of kRowBlockRows; block b keeps the ascending union
/// of its rows' CSR columns, cols[block_start[b] .. block_start[b + 1]),
/// and a column-major weight tile: weights[e * 8 + t] is row 8b + t's
/// coupling on union column e, 0.0 where that row lacks the column. h
/// holds the biases zero-padded to whole blocks.
///
/// Bit-exactness: a row still accumulates h then its own terms in
/// ascending column order, one rounding per multiply and one per add. The
/// union columns it lacks add 0.0 * x = +-0.0, which leaves any
/// accumulator that is not -0.0 unchanged, and an h-seeded accumulator
/// never is: IsingModel stores biases canonically (never -0.0), and a sum
/// of finite doubles is -0.0 only when both addends are.
struct RowBlockLayout {
  std::vector<std::uint32_t> block_start;
  AlignedVector<std::uint32_t> cols;
  AlignedVector<double> weights;
  AlignedVector<double> h;

  /// Points the planes' block_* fields at this layout.
  void bind(ForcePlanes& planes) const;
};

/// Builds the row-block layout from the CSR fields of `csr` (n,
/// row_start, cols, weights, h; columns ascending per row, as
/// IsingModel::finalize() stores them).
RowBlockLayout build_row_blocks(const ForcePlanes& csr);

/// One kernel entry point: fill force rows [row_begin, row_end) for every
/// replica lane. Rows are independent, so a sharded caller splitting
/// [0, n) across threads gets bit-identical planes in any interleaving.
/// Row-block kernels store whole blocks, so their ranges must start on a
/// block boundary and end on one or at n.
using ForceRowsFn = void (*)(const ForcePlanes& planes, std::size_t row_begin,
                             std::size_t row_end);

/// A resolved dispatch decision: the continuous (bSB) and discrete (dSB)
/// entry points of one variant, the resolved kind (never kAuto), and the
/// name reported through metrics ("scalar", "avx2", "avx512",
/// "dense-<isa>", "rowblock-<isa>" with <isa> one of those three).
struct SelectedForceKernel {
  ForceRowsFn continuous = nullptr;
  ForceRowsFn discrete = nullptr;
  ForceKernel kind = ForceKernel::kScalar;
  const char* name = "scalar";
};

/// Canonical spelling of a kernel kind ("auto", "scalar", "avx2",
/// "avx512", "dense" -- the values accepted by the registry `kernel=` key
/// and the CLI `--kernel` flag -- and "rowblock" for the resolved-only
/// kRowBlock).
const char* force_kernel_name(ForceKernel kind);

/// Parses a kernel name; throws std::invalid_argument listing the valid
/// names on anything else (the registry's strict-key discipline).
ForceKernel parse_force_kernel(const std::string& name);

/// True when the variant's code was compiled into this binary (explicit
/// SIMD files are dropped under -DADSD_DISABLE_SIMD or on non-x86).
bool force_kernel_compiled(ForceKernel kind);

/// True when the variant is compiled in AND the given CPU can execute it.
/// kAuto/kScalar/kDense/kRowBlock are always supported (kDense
/// additionally needs a model with a dense plane and kRowBlock R = 1,
/// which selection checks separately).
bool force_kernel_supported(ForceKernel kind, const CpuFeatures& features);

/// Resolves a request against CPU features, dense-plane availability and
/// the replica count, walking the fallback chain when the request cannot
/// be honored. At R = 1, kAuto resolves to the row-block layout at the
/// widest ISA, even when a dense plane exists; explicit requests keep
/// their CSR or dense layout. `replicas` defaults to the paper's single
/// trajectory per solve. Never fails; the result's fn pointers are always
/// callable.
SelectedForceKernel select_force_kernel(ForceKernel requested,
                                        const CpuFeatures& features,
                                        bool dense_available,
                                        std::size_t replicas = 1);

/// The kernels that resolve to themselves on this host (with
/// `cpu_features()` and the given dense availability) -- what the parity
/// tests and the micro-benchmarks enumerate. Always contains kScalar; the
/// row-block layout is reached through kAuto at R = 1.
std::vector<ForceKernel> selectable_force_kernels(bool dense_available);

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
/// template pattern this halves weight traffic and flops versus a dense
/// plane, and a fully-dense union degenerates to the dense iteration.
/// Dropping the all-zero columns is bit-exact: they contributed +-0.0
/// addends to h-seeded accumulators, which never change the partial sums
/// (such an accumulator is never -0.0; see RowBlockLayout), and the
/// surviving edges keep their ascending-j order. Retired instances are
/// swap-compacted to the tail, so kernels touch only the first `active`
/// slots of every group.
///
/// Shared-J variant: when every slot solves the same coupling matrix
/// (e.g. packed restart attempts of one instance), `wj` holds ONE weight
/// per union edge (aligned with ucols) and the shared kernels broadcast
/// wj[e] across the slot vector instead of loading a per-slot weight
/// vector — slots x fewer weight bytes per force pass. `wp` may then be
/// null. The broadcast value is identical to the per-slot load, so
/// accumulation stays bit-exact.
struct PackForcePlanes {
  const double* x = nullptr;   // n * replicas * slots positions
  double* force = nullptr;     // n * replicas * slots output
  const double* hp = nullptr;  // n * slots per-slot biases
  const double* wp = nullptr;  // uedges * slots per-slot union weights
  const double* wj = nullptr;  // uedges shared weights (shared-J)
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
/// "pack-avx2", "pack-avx512" (shared-J selection: "pack-scalar-sharedj",
/// "pack-avx2-sharedj", "pack-avx512-sharedj").
struct SelectedPackForceKernel {
  PackForceRowsFn continuous = nullptr;
  PackForceRowsFn discrete = nullptr;
  ForceKernel kind = ForceKernel::kScalar;  // resolved ISA tier, never kAuto
  const char* name = "pack-scalar";
};

/// Resolves a pack-kernel request against CPU features. The pack kernels
/// are dense by construction, so kAuto and kDense both mean "widest ISA";
/// explicit ISA requests walk the same avx512 -> avx2 -> scalar fallback
/// chain as select_force_kernel(). With `shared_j` the broadcast-weight
/// variants (reading PackForcePlanes::wj) are returned instead of the
/// per-slot-weight ones — same tiers, same fallback chain. Never fails.
SelectedPackForceKernel select_pack_force_kernel(ForceKernel requested,
                                                 const CpuFeatures& features,
                                                 bool shared_j = false);

}  // namespace adsd::kernels
