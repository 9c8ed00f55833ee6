#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ising/engine.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "ising/model.hpp"
#include "ising/stop.hpp"
#include "support/rng.hpp"

namespace adsd {

class RunContext;

/// Parameters of the SimCIM engine (simulated coherent Ising machine,
/// Tiunov et al. 2019): momentum-free mean-field amplitude dynamics
///
///   x_k += dt * (p(t) * x_k + zeta * f_k) + noise * N(0, 1),  |x_k| <= 1
///
/// where f is the same local field the bSB force kernels compute and p(t)
/// ramps linearly from pump_start (net loss, amplitudes decay toward 0) to
/// pump_end (net gain, amplitudes saturate at the walls and commit to
/// signs). The per-replica gaussian noise stream both breaks symmetry and
/// diversifies replicas, playing the role bSB's random initial momenta do.
struct SimcimParams {
  std::size_t max_iterations = 1000;

  /// Integration step of the amplitude update.
  double dt = 0.25;

  /// Linear pump ramp: p(t) = pump_start + (pump_end - pump_start) * t/T.
  double pump_start = -2.0;
  double pump_end = 1.0;

  /// Coupling scale zeta; <= 0 selects the shared rms normalization
  /// 0.5 / (rms(J) * sqrt(n)) (default_coupling_strength with detuning 1).
  double c0 = 0.0;

  /// Gaussian noise amplitude per step (0 disables; replicas then collapse
  /// to identical trajectories). Tuned on random instances n in [8, 16] at
  /// density 0.6: 0.1/0.25 (noise/dt) found the ground state on 35/40
  /// instances vs 30/40 at 0.02/0.5, edging out bSB's 31/40.
  double noise = 0.1;

  std::uint64_t seed = 1;

  /// Optional warm start: amplitudes copied into every replica (replicas
  /// still diverge through their noise streams).
  std::vector<double> initial_positions;

  /// Force-kernel selection, same key as bSB (auto-dispatched by default).
  kernels::ForceKernel kernel = kernels::ForceKernel::kAuto;

  /// Dynamic stop on the ensemble-best energy (same criterion as bSB).
  DynamicStopParams stop{};
};

/// SimCIM on the shared SoA ensemble chassis: replica r draws its noise
/// from seed + r * 0x9e3779b9, the force pass reuses the dispatched SIMD
/// kernels, and the y plane is a zeroed scratch handed to plane hooks (the
/// dynamics are momentum-free). Emits under "ising/simcim/*".
class SimcimEngine final : public EnsembleEngineBase {
 public:
  /// The model reference must outlive the engine.
  SimcimEngine(const IsingModel& model, const SimcimParams& params,
               std::size_t replicas);

  const char* telemetry_prefix() const override { return "ising/simcim"; }
  const char* trace_prefix() const override { return "ising/simcim"; }
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
  SimcimParams params_;
  double c0_;
  std::vector<Rng> rngs_;  // one noise stream per replica
};

/// Ensemble SimCIM solve mirroring solve_sb_batch: best replica's best
/// solution, dynamic stop on the ensemble-best energy, `iterations` summed
/// over replicas, hooks applied at every sampling point.
IsingSolveResult solve_simcim(const IsingModel& model,
                              const SimcimParams& params, std::size_t replicas,
                              const SbBatchHook& hook = nullptr,
                              const SbBatchPlaneHook& plane_hook = nullptr,
                              const RunContext* ctx = nullptr);

}  // namespace adsd
