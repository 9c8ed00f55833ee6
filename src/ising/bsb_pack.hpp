#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ising/bsb.hpp"
#include "ising/bsb_batch.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "ising/model.hpp"
#include "support/aligned.hpp"

namespace adsd {

class RunContext;

/// BsbPackEngine's layout (DESIGN.md §4.7): slot-minor SoA — oscillator i
/// of replica r of the instance in slot s at x[(i * R + r) * T + s % T] of
/// slot tile s / T — with a per-slot weight plane over the UNION sparsity
/// pattern of the members, advanced by the dedicated pack force kernels
/// that vectorize ACROSS INSTANCES. This is the fast path for replica
/// counts at which the per-instance CSR kernels run some lanes in their
/// narrow tail (R = 2..7 on AVX-512, any explicit CSR tier at R = 1); it
/// is not for the default R = 1 column-COP solve, whose bipartite layout
/// already vectorizes across rows and beats it, nor for R filling whole
/// blocks. The union plane costs flops only for columns some member
/// actually couples — DALTA packs share one template pattern, so the
/// union is ~one member's edge count. Slots are grouped into contiguous
/// cache-sized TILES of T slots each (see tile()), and each tile is
/// advanced through a whole inter-sampling block of steps before the next
/// tile runs, so its weight planes stay cache-resident across the block
/// instead of being streamed once per step.
///
/// The engine packs whatever it is given; deciding whether a batch is worth
/// packing at all (the standalone kernel it would replace, the replica
/// count, the per-slot planes' working set) is PackedCoreCopSolver's job,
/// which solves the rest member by member.

/// One instance of a packed solve. The model must be finalized and
/// outlive the engine; members may have DIFFERENT num_spins() — smaller
/// members are padded with inert spins up to the pack's maximum n (their
/// padded lanes stay exactly 0.0 and never touch the member's own
/// trajectory, so mixed-n packs remain bit-identical per member).
/// initial_positions (when non-empty, size num_spins()) is the member's
/// replica-0 warm start, also borrowed for the engine's lifetime.
struct PackMember {
  const IsingModel* model = nullptr;
  std::uint64_t seed = 1;
  std::span<const double> initial_positions = {};
};

/// Per-member intervention hook: called at every sampling point for each
/// live member with its state in the STANDALONE layout (element i of
/// replica r at index i * replicas + r, n = the member's own spin count) —
/// the same planes an SbBatchPlaneHook sees, plus the member index. The
/// engine gathers into a scratch plane before the call and scatters
/// mutations back, so hooks written against BsbBatchEngine (the Theorem-3
/// reset) work unchanged and see bit-identical values.
using PackPlaneHook = std::function<void(
    std::size_t member, std::span<double> x, std::span<double> y,
    std::size_t replicas)>;

/// Multi-instance packed bSB: K independent Ising instances advanced in
/// lockstep so one force pass fills K x R replica planes (DESIGN.md §4.7).
/// Per-member state is fully independent — per-member dynamic-stop
/// variance windows, per-member incremental energy tracking and best
/// selection, per-member early retirement — and every member's trajectory
/// is bit-identical to the same instance solved alone through
/// BsbBatchEngine with SbParams.seed = member.seed:
///
///  - replica r of member m seeds Rng(member.seed + r * 0x9e3779b9) with
///    the standalone draw order (x from initial_positions, then the
///    momenta sweep over the member's own n),
///  - c0 is derived per member from its own coupling RMS and spin count
///    when params.c0 <= 0,
///  - the Euler update uses the standalone expression tree per lane (the
///    pump ramp reads the shared step counter, which equals the member's
///    own step count because all members start at step 0),
///  - members of a mixed-n pack are padded to the pack maximum with inert
///    spins: padded rows have zero bias and coupling, so their positions
///    and momenta stay exactly 0.0 and contribute only +-0.0 addends that
///    cannot perturb any h-seeded accumulator (IsingModel stores biases
///    canonically, so no accumulator starts at -0.0),
///  - sampling, the flip telescope, the best-energy slack filter, and the
///    variance-stop/deadline ordering replicate BsbBatchEngine::run()
///    per member.
///
/// A member whose variance window closes (or whose context deadline has
/// expired — retirement points double as the deadline checks for tiny
/// solves) is retired immediately: its slot is swap-compacted out of the
/// active prefix (across tiles when needed) so the force kernels touch
/// only live instances. The engine run ends when every member has retired
/// or the shared pump ramp completes.
///
/// The shared SbParams supplies everything except seed/initial_positions,
/// which come from each PackMember (SbParams.seed and
/// SbParams.initial_positions are ignored). One intentional difference
/// from BsbBatchEngine: the packed run never takes the budget-aware
/// iteration rescale (it would couple members through the shared ramp),
/// so under a positive RunContext time budget a packed solve may iterate
/// where a standalone one rescaled. Deadline-less contexts — and the
/// parity tests — are unaffected.
///
/// The engine does not shard force rows over the pool: members are tiny by
/// design, and callers (PackedCoreCopSolver) parallelize across packs
/// instead.
class BsbPackEngine {
 public:
  BsbPackEngine(std::span<const PackMember> members, const SbParams& params,
                std::size_t replicas);

  /// Attaches an execution context (must outlive the engine; nullptr
  /// detaches): deadline checks at retirement points, pack_* metrics,
  /// per-member trace spans.
  void set_context(const RunContext* ctx) { ctx_ = ctx; }

  std::size_t num_members() const { return members_.size(); }
  /// Maximum spin count over the members (the padded pack width).
  std::size_t num_spins() const { return n_; }
  /// Spin count of one member (its own model's, without padding).
  std::size_t member_spins(std::size_t m) const { return nspins_[m]; }
  std::size_t replicas() const { return R_; }
  std::size_t steps_done() const { return step_; }

  /// Resolved slot-tile width. The slot axis is carved into contiguous
  /// tiles of this many slots, each with its own contiguous
  /// x/y/force/hp/wp planes, and each tile is advanced through a whole
  /// inter-sampling block of steps before the next tile runs. The width is
  /// the widest multiple of 8 whose per-tile coupling planes (union-edges
  /// * tile doubles) fit in ~1 MB — half this host class's L2 — so a
  /// tile's weights are loaded from memory once per block instead of once
  /// per step (measured ~2.4x on the K = 64 x 64-spin point vs the
  /// monolithic plane); it equals the slot capacity for small packs.
  /// Members only interact with shared engine state at sampling points
  /// and the pump ramp depends only on the step index, so any tile width
  /// is bit-identical to any other.
  std::size_t tile() const { return tile_; }

  /// Resolved force-kernel name: "pack-scalar|pack-avx2|pack-avx512".
  const char* kernel_name() const { return kernel_name_; }

  /// One Euler step for every replica of every live member.
  void step();

  /// Force evaluation alone (fills the internal force plane from the
  /// current positions); exposed for the micro-benchmarks.
  void compute_forces();

  /// Full packed solve. Returns one IsingSolveResult per member, in
  /// member order; `iterations` counts Euler steps of one replica of that
  /// member (callers scale by replicas(), as with BsbBatchEngine). At
  /// each sampling point `plane_hook` (if any) runs once per live member
  /// before that member's energy sampling.
  std::vector<IsingSolveResult> run(const PackPlaneHook& plane_hook = nullptr);

 private:
  // Tile-major plane offsets for global slot s (tile s / tile_,
  // in-tile index s % tile_). Group g of the state planes is (i * R + r).
  std::size_t xpos(std::size_t g, std::size_t s) const {
    return (s / tile_) * xstride_ + g * tile_ + s % tile_;
  }
  std::size_t hpos(std::size_t i, std::size_t s) const {
    return (s / tile_) * hstride_ + i * tile_ + s % tile_;
  }
  std::size_t wpos(std::size_t k, std::size_t s) const {
    return (s / tile_) * wstride_ + k * tile_ + s % tile_;
  }

  /// Kernel view of tile t's planes over its live slots.
  kernels::PackForcePlanes tile_planes(std::size_t t);
  void advance(std::size_t steps);
  double member_x(std::size_t m, std::size_t lane) const;
  void gather_member(std::size_t m, std::vector<double>& x_out,
                     std::vector<double>& y_out) const;
  void scatter_member(std::size_t m, const std::vector<double>& x_in,
                      const std::vector<double>& y_in);
  void flip(std::size_t m, std::size_t i, std::size_t r, std::int8_t new_sign);
  void sample(std::size_t m);
  double exact_energy(std::size_t m, std::size_t r);
  void copy_member_spins(std::size_t m, std::size_t r,
                         std::vector<std::int8_t>& out) const;
  double consider_all(std::size_t m, IsingSolveResult& result);
  void retire_slot(std::size_t m);

  std::vector<PackMember> members_;
  SbParams params_;
  const RunContext* ctx_ = nullptr;
  std::size_t n_;                    // max member spin count (pack width)
  std::vector<std::size_t> nspins_;  // per member
  std::size_t R_;
  std::size_t S_;       // slot capacity == num_members()
  std::size_t active_;  // live members
  std::size_t step_ = 0;
  const char* kernel_name_ = "pack-scalar";

  // Planes, tile-major: `tiles_` tiles of `tile_` slots each, every
  // tile's planes contiguous (x/y/force: n * R * tile doubles; hp:
  // n * tile; wp: uedges * tile). A strided tile slice of one monolithic
  // plane reads only part of each cache line, so tiles are first-class
  // contiguous plane groups instead. Weights cover only the UNION
  // sparsity pattern of the members (urow_start_/ucols_, ascending per
  // row): wp_[wpos(e, s)] is slot s's weight on union edge e, 0.0 where
  // that slot lacks the edge. DALTA packs share one template pattern, so
  // the union is ~the per-member edge count, not n * n.
  std::size_t tile_ = 1;
  std::size_t tiles_ = 1;
  std::size_t uedges_ = 0;   // union directed edge count
  std::size_t xstride_ = 0;  // n * R * tile
  std::size_t hstride_ = 0;  // n * tile
  std::size_t wstride_ = 0;  // uedges * tile
  AlignedVector<std::uint32_t> urow_start_;  // n + 1 union row offsets
  AlignedVector<std::uint32_t> ucols_;       // uedges ascending columns
  AlignedVector<double> hp_;  // tiles * hstride
  AlignedVector<double> wp_;  // tiles * wstride
  std::vector<double> c0_slot_;          // per slot, compacted with the state
  std::vector<std::size_t> slot_of_member_;
  std::vector<std::size_t> member_of_slot_;
  kernels::SelectedPackForceKernel pack_kernel_;
  kernels::PackForceRowsFn pack_fn_ = nullptr;

  // State planes, tile-major slot-minor: tiles * xstride doubles.
  AlignedVector<double> x_;
  AlignedVector<double> y_;
  AlignedVector<double> force_;

  // Per-member incremental-energy tracking, member-major standalone
  // layout padded to the pack width: spins_[m * n_ * R + i * R + r].
  AlignedVector<std::int8_t> spins_;
  std::vector<double> energies_;      // M * R
  std::vector<std::uint8_t> dirty_;   // M * R
  std::vector<std::int8_t> scratch_spins_;  // member n
  std::vector<double> scratch_x_;     // n * R hook gather plane
  std::vector<double> scratch_y_;
};

}  // namespace adsd
