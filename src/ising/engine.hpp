#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ising/kernels/force_kernels.hpp"
#include "ising/model.hpp"
#include "ising/stop.hpp"
#include "support/aligned.hpp"

namespace adsd {

class RunContext;

/// Mutable view of one replica inside an SoA ensemble engine's
/// replica-contiguous state: element i of the replica lives at offset
/// i * stride. Intervention hooks (the Theorem-3 reset of Sec. 3.3.2) read
/// and write oscillators through this view directly, so no O(n * R)
/// gather/scatter copy is needed per sampling point.
class ReplicaView {
 public:
  ReplicaView(double* x, double* y, std::size_t n, std::size_t stride)
      : x_(x), y_(y), n_(n), stride_(stride) {}

  std::size_t size() const { return n_; }
  std::size_t stride() const { return stride_; }

  double& x(std::size_t i) { return x_[i * stride_]; }
  double x(std::size_t i) const { return x_[i * stride_]; }
  double& y(std::size_t i) { return y_[i * stride_]; }
  double y(std::size_t i) const { return y_[i * stride_]; }

 private:
  double* x_;
  double* y_;
  std::size_t n_;
  std::size_t stride_;
};

/// Per-replica intervention hook; called at every sampling point with the
/// replica index and a strided view of its state.
using SbBatchHook = std::function<void(std::size_t replica, ReplicaView view)>;

/// Whole-ensemble intervention hook: called once per sampling point with
/// the raw SoA position/momentum planes (element i of replica r at index
/// i * replicas + r). Batched interventions (the plane-based Theorem-3
/// reset) use this to sweep all replicas with replica-contiguous inner
/// loops instead of R strided passes. bSB hands its momenta as y, DOCH
/// its velocities.
using SbBatchPlaneHook = std::function<void(
    std::span<double> x, std::span<double> y, std::size_t replicas)>;

/// Flattened CSR adjacency of one Ising model: separate column-index and
/// weight planes (no interleaved pairs), 64-byte aligned, plus the bias
/// vector — the layout the CSR force kernels stream and the
/// incremental-energy tracker walks per flip of a general model.
struct CsrPlanes {
  std::vector<std::size_t> row_start;  // n + 1
  AlignedVector<std::uint32_t> cols;
  AlignedVector<double> weights;
  AlignedVector<double> h;
};

/// Flattens a finalized model's adjacency into CsrPlanes.
CsrPlanes flatten_csr(const IsingModel& model);

/// The standard coupling normalization 0.5 * detuning / (rms(J) * sqrt(n))
/// of bSB's c0; 1.0 for coupling-free models.
double default_coupling_strength(const IsingModel& model, double detuning);

/// Incremental sign/energy tracking for an ensemble of R replicas over one
/// model: tracks the sign vector and energy of every replica and, at each
/// sampling point, updates energies by the exact flip telescope in
/// O(flipped spins * degree) instead of recomputing O(edges) per replica
/// (invariant: tracked energy equals IsingModel::energy() of the tracked
/// signs up to accumulation rounding). When a replica's tracked energy
/// threatens the incumbent, the energy is recomputed from scratch once and
/// the tracked value snapped to it, so the reported best is always a
/// from-scratch IsingModel::energy() value.
class EnsembleEnergyTracker {
 public:
  /// Captures signs/energies from the initial positions. The model and
  /// CSR planes must outlive the tracker. A column-COP model's flips walk
  /// its coupling plane in CSR's term order, so of `csr` they read only
  /// the biases.
  void init(const IsingModel& model, const CsrPlanes& csr,
            std::span<const double> x, std::size_t replicas);

  /// Refreshes the tracked signs and per-replica energies from the current
  /// positions via incremental flip updates. Call after external position
  /// edits (hooks) and before reading energies()/spins().
  void sample(std::span<const double> x);

  /// Folds any replica that improves on result.energy into `result`
  /// (recomputing threatened energies from scratch first) and returns the
  /// ensemble-best tracked energy.
  double consider_all(IsingSolveResult& result);

  /// From-scratch energy of replica r (also used to seed the tracker).
  double exact_energy(std::size_t r);

  void copy_replica_spins(std::size_t r, std::vector<std::int8_t>& out) const;

  std::span<const double> energies() const { return energies_; }
  std::span<const std::int8_t> spins() const { return spins_; }

 private:
  void flip(std::size_t i, std::size_t r, std::int8_t new_sign);
  double csr_field(std::size_t i, std::size_t r) const;
  double plane_field(std::size_t i, std::size_t r) const;

  const IsingModel* model_ = nullptr;
  const CsrPlanes* csr_ = nullptr;
  const double* plane_ = nullptr;  // column-COP plane, else nullptr
  std::size_t rows_ = 0;           // plane shape
  std::size_t cols_ = 0;
  std::size_t n_ = 0;
  std::size_t R_ = 0;
  AlignedVector<std::int8_t> spins_;        // n * R
  std::vector<double> energies_;            // R
  std::vector<std::uint8_t> dirty_;         // R: flips since last sync
  std::vector<std::int8_t> scratch_spins_;  // n, gather buffer
};

/// Engine-agnostic contract of one Ising solve (DESIGN.md §4.8).
///
/// The sweep driver run_engine() owns the scaffolding that bSB, SA, and
/// every new engine used to reimplement — the entry deadline check,
/// sampling points, the dynamic-stop window, the budget-aware iteration
/// rescale, best-solution tracking, and metrics/trace/QoR emission —
/// while the engine contributes only its dynamics (advance) and its
/// sampling-point measurement (observe). Counter/span names are composed
/// from telemetry_prefix()/trace_prefix(), so the rehosted engines keep
/// their historical names ("ising/sb/*" QoR counters, "ising/bsb/*"
/// traces) bit-for-bit.
class IsingEngine {
 public:
  virtual ~IsingEngine() = default;

  /// Attaches an execution context (must outlive the engine; nullptr
  /// detaches). With a context the driver honors the deadline and emits
  /// metrics/trace/QoR.
  void set_context(const RunContext* ctx) { ctx_ = ctx; }
  const RunContext* context() const { return ctx_; }

  /// Counter namespace ("ising/sb", "ising/sa", ...): QoR counter names and
  /// the metrics `engine=` label derive from it.
  virtual const char* telemetry_prefix() const = 0;

  /// Trace span/instant namespace ("ising/bsb" keeps the historical bSB
  /// trace names; new engines use their own).
  virtual const char* trace_prefix() const = 0;

  /// QoR convergence-curve name; only called with recording armed.
  virtual std::string curve_name() const = 0;

  /// Resolved force-kernel label for the metrics `kernel=` dimension
  /// ("scalar", "bipartite-avx512", ...); "none" for engines
  /// without a dispatched kernel (the scalar-sweep SA engine).
  virtual const char* kernel_label() const { return "none"; }

  /// Iteration cap; re-read by the driver before every advance() because
  /// the budget rescale may shrink it mid-run.
  virtual std::size_t max_iterations() const = 0;

  /// Iterations between sampling points (>= 1).
  virtual std::size_t sample_interval() const = 0;

  virtual const DynamicStopParams& stop_params() const = 0;

  /// Engines with a pump ramp (or any benefit from completing a shortened
  /// schedule) opt into the budget-aware rescale; apply_budget_rescale
  /// must make max_iterations() return the new cap.
  virtual bool supports_budget_rescale() const { return false; }
  virtual void apply_budget_rescale(std::size_t /*max_iterations*/) {}

  /// Seeds `result` with the engine's initial solution (pre-loop state).
  virtual void begin(IsingSolveResult& result) = 0;

  /// One-shot per-run emissions after the entry-deadline check passed (the
  /// SoA engines report the resolved force kernel here).
  virtual void on_run_start() {}

  /// Integrates `steps` >= 1 iterations (steps / sweeps), the first of
  /// which is 0-based loop iteration `iter`. The driver passes the
  /// iterations up to the next sampling point or the cap, whichever comes
  /// first, so one call integrates a whole sampling interval and a call
  /// never crosses a sampling point.
  virtual void advance(std::size_t iter, std::size_t steps) = 0;

  /// Sampling point: apply hooks, refresh energies, fold improvements into
  /// `result`, and return the scalar the dynamic-stop monitor observes.
  virtual double observe(IsingSolveResult& result) = 0;

  /// Final sampling pass after the loop exits.
  virtual void finish(IsingSolveResult& /*result*/) {}

 protected:
  const RunContext* ctx_ = nullptr;
};

/// The shared sweep driver: integration loop (one advance() per sampling
/// interval), sampling points, dynamic stop, deadline checks (at entry and
/// at sampling points), one-time budget-aware iteration rescale,
/// convergence trace/QoR curve, and the end-of-run metrics — extracted
/// from the pre-refactor BsbBatchEngine::run() so the rehosted engines
/// stay bit-identical.
IsingSolveResult run_engine(IsingEngine& engine);

/// Shared chassis of the SoA lockstep ensemble engines (bSB, DOCH):
/// replica-contiguous position/secondary/force planes, the force layout
/// (the bipartite tiles, built straight from a column-COP model's plane,
/// at R = 1 on such a model; the flattened CSR adjacency otherwise), a
/// dispatched force kernel, incremental energy tracking, and the
/// sampling-point hook application. Derived engines implement the
/// dynamics (advance) over the shared planes and their parameter
/// plumbing; everything else — begin/observe/finish, hook dispatch,
/// kernel reporting — is inherited.
class EnsembleEngineBase : public IsingEngine {
 public:
  std::size_t num_spins() const { return n_; }
  std::size_t replicas() const { return R_; }

  /// Resolved force-kernel name ("scalar" or "bipartite-<isa>").
  const char* kernel_name() const { return kernel_.name; }
  const char* kernel_label() const override { return kernel_.name; }

  /// Resolved force-kernel kind (never kAuto).
  kernels::ForceKernel kernel_kind() const { return kernel_.kind; }

  /// Force evaluation alone (fills the internal force plane from the
  /// current force-input plane); exposed for the micro-benchmarks.
  void compute_forces();

  /// Refreshes the tracked signs and per-replica energies from the current
  /// positions. Call after external position edits (hooks) and before
  /// reading energies()/spins().
  void sample() { tracker_.sample(x_); }

  /// Tracked per-replica energies (valid after sample()).
  std::span<const double> energies() const { return tracker_.energies(); }

  /// Tracked signs, SoA layout: spins()[i * R + r] (valid after sample()).
  std::span<const std::int8_t> spins() const { return tracker_.spins(); }

  /// Strided state view of replica r.
  ReplicaView view(std::size_t r) {
    return ReplicaView(x_.data() + r, y_.data() + r, n_, R_);
  }

  /// Raw SoA planes (size n * R), for hooks/benchmarks/tests. The y plane
  /// is the engine's secondary state: bSB momenta, DOCH velocities.
  /// forces() holds
  /// forces right after compute_forces(); the bSB interval kernel keeps
  /// its forces in registers and uses the plane as scratch positions.
  std::span<double> positions() { return x_; }
  std::span<double> momenta() { return y_; }
  std::span<const double> forces() const { return force_; }

  /// Full solve loop through the shared driver. At each sampling point
  /// `plane_hook` (if any) runs first over the whole ensemble, then `hook`
  /// per replica. `iterations` of the result counts steps of one replica —
  /// callers scale by replicas() if they want the ensemble total.
  IsingSolveResult run(const SbBatchHook& hook = nullptr,
                       const SbBatchPlaneHook& plane_hook = nullptr);

  // IsingEngine scaffolding shared by every SoA engine.
  void begin(IsingSolveResult& result) override;
  void on_run_start() override;
  double observe(IsingSolveResult& result) override;
  void finish(IsingSolveResult& result) override;

 protected:
  /// Resolves the force kernel (honoring `requested` against CPU
  /// features, the replica count and the model's shape), builds the
  /// bipartite tiles from the plane when that kernel won and flattens the
  /// CSR adjacency otherwise, and allocates the zero-filled x/y/force
  /// planes. `label` prefixes validation messages.
  EnsembleEngineBase(const IsingModel& model, std::size_t replicas,
                     kernels::ForceKernel requested, bool discrete,
                     const char* label);

  /// Captures tracker signs/energies from x_; call at the end of the
  /// derived constructor, after the initial positions are in place.
  void init_tracker() { tracker_.init(model_, csr_, x_, R_); }

  /// Repoints the force kernel's input plane (DOCH evaluates the force at
  /// the momentum-lookahead point z rather than at x).
  void set_force_input(const double* x) { planes_.x = x; }

  const IsingModel& model_;
  std::size_t n_;
  std::size_t R_;
  CsrPlanes csr_;                       // h always; CSR unless kBipartite
  kernels::BipartiteLayout bipartite_;  // built only for kBipartite
  kernels::SelectedForceKernel kernel_;
  kernels::ForceRowsFn force_fn_ = nullptr;  // continuous or discrete entry
  kernels::ForcePlanes planes_;
  AlignedVector<double> x_;      // n * R positions
  AlignedVector<double> y_;      // n * R secondary state
  AlignedVector<double> force_;  // n * R force output
  EnsembleEnergyTracker tracker_;
  SbBatchHook hook_;
  SbBatchPlaneHook plane_hook_;
};

}  // namespace adsd
