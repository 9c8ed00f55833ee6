#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ising/engine.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "ising/model.hpp"
#include "ising/stop.hpp"
#include "support/aligned.hpp"

namespace adsd {

class RunContext;

/// Parameters of the DOCH / ADOCH engine (difference-of-convex optimization
/// heuristic): the box-relaxed energy -x'Jx/2 - h'x is split as a
/// difference of convex functions with a proximal weight rho, giving the
/// fixed-point iteration
///
///   z = x + momentum * (x - x_prev)          (ADOCH lookahead; 0 = DOCH)
///   x <- clamp(z + (1/rho) * f(z), -1, 1)
///
/// where f is the same local field the bSB force kernels compute. Each
/// iteration is one force pass plus an O(n * R) update, monotone up to the
/// momentum term, and converges to a box fixed point whose signs are the
/// rounded solution; replica diversity comes from random starting points
/// (the dynamics themselves are deterministic).
struct DochParams {
  std::size_t max_iterations = 500;

  /// Proximal weight; <= 0 selects the auto rule max_i sum_j |J_ij|
  /// (an upper bound on the spectral radius of J, so the convex split is
  /// valid), floored at 1.
  double rho = 0.0;

  /// Inertial lookahead coefficient: 0 is plain DOCH, > 0 the accelerated
  /// ADOCH variant.
  double momentum = 0.7;

  /// Half-width of the uniform random start: replica r draws every
  /// coordinate from seed + r * 0x9e3779b9 in [-init_amp, init_amp] around
  /// the warm point (or 0).
  double init_amp = 1.0;

  std::uint64_t seed = 1;

  /// Optional warm start: base point the per-replica random kick is
  /// applied around.
  std::vector<double> initial_positions;

  /// Force-kernel selection, same key as bSB (auto-dispatched by default).
  kernels::ForceKernel kernel = kernels::ForceKernel::kAuto;

  /// Dynamic stop on the ensemble-best energy (same criterion as bSB).
  DynamicStopParams stop{};
};

/// DOCH/ADOCH on the shared SoA ensemble chassis. The y plane holds the
/// per-lane displacement u = x - x_prev, so plane hooks that zero a
/// replica's y (the Theorem-3 reset) legitimately kill its inertia; the
/// force kernel's input plane is repointed at the lookahead buffer z.
/// Emits under "ising/doch/*".
class DochEngine final : public EnsembleEngineBase {
 public:
  /// The model reference must outlive the engine.
  DochEngine(const IsingModel& model, const DochParams& params,
             std::size_t replicas);

  /// Resolved proximal weight (after the auto rule).
  double rho() const { return rho_; }

  const char* telemetry_prefix() const override { return "ising/doch"; }
  const char* trace_prefix() const override { return "ising/doch"; }
  std::string curve_name() const override;
  std::size_t max_iterations() const override { return params_.max_iterations; }
  std::size_t sample_interval() const override;
  const DynamicStopParams& stop_params() const override { return params_.stop; }
  bool supports_budget_rescale() const override { return true; }
  void apply_budget_rescale(std::size_t max_iterations) override {
    params_.max_iterations = max_iterations;
  }
  void advance(std::size_t iter, std::size_t steps) override;

 private:
  DochParams params_;
  double rho_;
  double inv_rho_;
  AlignedVector<double> z_;  // n * R lookahead points (force input)
};

/// Ensemble DOCH/ADOCH solve mirroring solve_sb_batch: best replica's best
/// solution, dynamic stop on the ensemble-best energy, `iterations` summed
/// over replicas, hooks applied at every sampling point.
IsingSolveResult solve_doch(const IsingModel& model, const DochParams& params,
                            std::size_t replicas,
                            const SbBatchHook& hook = nullptr,
                            const SbBatchPlaneHook& plane_hook = nullptr,
                            const RunContext* ctx = nullptr);

}  // namespace adsd
