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

/// Intervention hook of the oscillator engines, called at every sampling
/// point with the mutable positions and secondary state (bSB momenta, DOCH
/// velocities), n entries each; the Theorem-3 heuristic of Sec. 3.3.2
/// plugs in here to reset the column-type spins and feed the state back
/// into the integration.
using SbSampleHook =
    std::function<void(std::span<double> positions, std::span<double> momenta)>;

/// Flattened CSR adjacency of one Ising model: separate column-index and
/// weight planes (no interleaved pairs), 64-byte aligned, plus the bias
/// vector — the layout the CSR force kernels stream and the
/// incremental-energy tracker walks per flip wherever the engine built it.
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

/// Incremental sign/energy tracking of one trajectory over one model:
/// tracks the sign vector and its energy and, at each sampling point,
/// updates the energy by the exact flip telescope in O(flipped spins *
/// degree) instead of recomputing O(edges) (invariant: the tracked energy
/// equals IsingModel::energy() of the tracked signs up to accumulation
/// rounding). When the tracked energy threatens the incumbent, it is
/// recomputed from scratch once and snapped to that value, so the
/// reported best is always a from-scratch IsingModel::energy() value. On a
/// model whose sums cannot round (IsingModel::exact_arithmetic()) the
/// tracked energy already is that value, bit for bit, and is taken as it
/// is.
class EnsembleEnergyTracker {
 public:
  /// Captures the signs and energy of the initial positions. The model
  /// and CSR planes must outlive the tracker. A column-COP model whose
  /// planes carry no CSR adjacency (the bipartite layout) takes its flip
  /// fields from the coupling plane in grouped chains and reads only the
  /// biases of `csr`; any other model walks CSR per flip.
  void init(const IsingModel& model, const CsrPlanes& csr,
            std::span<const double> x);

  /// Refreshes the tracked signs and energy from the current positions
  /// via incremental flip updates. Call after external position edits
  /// (hooks) and before reading energy()/spins().
  void sample(std::span<const double> x);

  /// Folds the tracked signs into `result` when they improve on
  /// result.energy (recomputing a threatening energy from scratch first,
  /// unless the model's sums are exact) and returns the lower of the
  /// tracked energy before and after that sync.
  double consider_all(IsingSolveResult& result);

  /// From-scratch energy of the tracked signs (also used to seed the
  /// tracker).
  double exact_energy() const { return model_->energy(spins_); }

  double energy() const { return energy_; }
  std::span<const std::int8_t> spins() const { return spins_; }

 private:
  enum class Side { kV1, kV2, kT };

  void flip(std::size_t i, std::int8_t new_sign);
  double csr_field(std::size_t i) const;
  template <Side kSide>
  std::size_t flip_side(const double* x, std::size_t begin, std::size_t end,
                        double& energy);
  template <Side kSide>
  void flip_group(const std::size_t (&group)[4], std::size_t count,
                  double& energy);

  const IsingModel* model_ = nullptr;
  const CsrPlanes* csr_ = nullptr;
  const double* plane_ = nullptr;  // grouped path's plane, else nullptr
  std::size_t rows_ = 0;           // plane shape
  std::size_t cols_ = 0;
  std::size_t n_ = 0;
  bool exact_ = false;   // IsingModel::exact_arithmetic()
  bool dirty_ = false;   // flips since the last sync
  double energy_ = 0.0;  // tracked energy of spins_
  AlignedVector<std::int8_t> spins_;  // n
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
  /// oscillator engines report the resolved force kernel here).
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

/// Shared chassis of the oscillator engines (bSB, DOCH): n-long
/// position/secondary/force planes, the force layout (the bipartite
/// tiles, built straight from a column-COP model's plane, on such a
/// model; the flattened CSR adjacency otherwise), a dispatched force
/// kernel, incremental energy tracking, and the sampling-point hook
/// application. Derived engines implement the dynamics (advance) over the
/// shared planes and their parameter plumbing; everything else —
/// begin/observe/finish, hook dispatch, kernel reporting — is inherited.
class EnsembleEngineBase : public IsingEngine {
 public:
  // The force planes, the bipartite tiles' bound pointers and the tracker
  // point into this engine's own buffers, so a copy (or a move) would
  // compute from another engine's memory.
  EnsembleEngineBase(const EnsembleEngineBase&) = delete;
  EnsembleEngineBase& operator=(const EnsembleEngineBase&) = delete;

  std::size_t num_spins() const { return n_; }

  /// Resolved force-kernel name ("scalar" or "bipartite-<isa>").
  const char* kernel_name() const { return kernel_.name; }
  const char* kernel_label() const override { return kernel_.name; }

  /// Resolved force-kernel kind (never kAuto).
  kernels::ForceKernel kernel_kind() const { return kernel_.kind; }

  /// Force evaluation alone (fills the internal force plane from the
  /// current force-input plane); exposed for the micro-benchmarks.
  void compute_forces();

  /// Refreshes the tracked signs and energy from the current positions.
  /// Call after external position edits (hooks) and before reading
  /// energy()/spins().
  void sample() { tracker_.sample(x_); }

  /// Tracked energy and signs (valid after sample()).
  double energy() const { return tracker_.energy(); }
  std::span<const std::int8_t> spins() const { return tracker_.spins(); }

  /// Raw planes (n entries each), for hooks/benchmarks/tests. The y plane
  /// is the engine's secondary state: bSB momenta, DOCH velocities.
  /// forces() holds forces right after compute_forces(); the bSB interval
  /// kernel keeps its forces in registers and uses the plane as scratch
  /// positions.
  std::span<double> positions() { return x_; }
  std::span<double> momenta() { return y_; }
  std::span<const double> forces() const { return force_; }

  /// Full solve loop through the shared driver; `hook` (if any) runs at
  /// every sampling point, before the energy refresh.
  IsingSolveResult run(const SbSampleHook& hook = nullptr);

  // IsingEngine scaffolding shared by every oscillator engine.
  void begin(IsingSolveResult& result) override;
  void on_run_start() override;
  double observe(IsingSolveResult& result) override;
  void finish(IsingSolveResult& result) override;

 protected:
  /// Resolves the force kernel (honoring `requested` against CPU
  /// features and the model's shape), builds the bipartite tiles from the
  /// plane when that kernel won and flattens the CSR adjacency otherwise,
  /// and allocates the zero-filled x/y/force planes. `label` prefixes
  /// validation messages.
  EnsembleEngineBase(const IsingModel& model, kernels::ForceKernel requested,
                     bool discrete, const char* label);

  /// Captures the tracker's signs and energy from x_; call at the end of
  /// the derived constructor, after the initial positions are in place.
  void init_tracker() { tracker_.init(model_, csr_, x_); }

  /// Repoints the force kernel's input plane (DOCH evaluates the force at
  /// the momentum-lookahead point z rather than at x).
  void set_force_input(const double* x) { planes_.x = x; }

  const IsingModel& model_;
  std::size_t n_;
  CsrPlanes csr_;                       // h always; CSR unless kBipartite
  kernels::BipartiteLayout bipartite_;  // built only for kBipartite
  kernels::SelectedForceKernel kernel_;
  kernels::ForceRowsFn force_fn_ = nullptr;  // continuous or discrete entry
  kernels::ForcePlanes planes_;
  AlignedVector<double> x_;      // n positions
  AlignedVector<double> y_;      // n secondary state
  AlignedVector<double> force_;  // n force output
  EnsembleEnergyTracker tracker_;
  SbSampleHook hook_;
};

}  // namespace adsd
