#pragma once

#include <vector>

#include "ising/engine.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "ising/model.hpp"
#include "ising/stop.hpp"
#include "support/rng.hpp"

namespace adsd {

/// Parameters for the simulated-bifurcation solvers.
struct SbParams {
  /// Hard iteration cap for the Euler integration.
  std::size_t max_iterations = 1000;

  /// Euler time step.
  double dt = 0.5;

  /// Detuning Delta (the positive Kerr-free oscillator frequency); the
  /// pumping amplitude a(t) ramps linearly from 0 to this value.
  double detuning = 1.0;

  /// Coupling strength c0; 0 selects the standard normalization
  /// 0.5 * Delta / (rms(J) * sqrt(N)).
  double c0 = 0.0;

  /// Seed for the random initial momenta.
  std::uint64_t seed = 1;

  /// Optional initial oscillator positions (size must equal the spin
  /// count). Empty selects the standard all-zero start. Problems with exact
  /// spin-exchange symmetries (like the V1 <-> V2 symmetry of the
  /// column-based core COP) need an asymmetric start: the zero start makes
  /// symmetric oscillators follow identical mean-field trajectories and the
  /// walls then lock in a symmetry-collapsed (degenerate) solution.
  std::vector<double> initial_positions;

  /// dSB variant: forces computed from sign(x_j) instead of x_j, which
  /// suppresses analog error (Goto et al. 2021). Off = ballistic bSB, the
  /// solver the paper uses.
  bool discrete = false;

  /// Force-kernel request of the engine. No registry key or flag sets
  /// it: kAuto picks the bipartite layout on a column-COP model and the
  /// CSR kernel otherwise, and the Euler step runs at the widest ISA.
  /// In-process callers pin kScalar to reach the CSR reference on a
  /// column COP, or an ISA to pin the step tier. Every variant is
  /// bit-identical (see ising/kernels/force_kernels.hpp).
  kernels::ForceKernel kernel = kernels::ForceKernel::kAuto;

  /// Dynamic stop criterion (Sec. 3.3.1). When disabled the solver still
  /// samples every `stop.sample_interval` iterations to track the best
  /// solution and to run the intervention hook.
  DynamicStopParams stop{};
};

class RunContext;

/// Ballistic (or discrete) simulated bifurcation on a finalized model.
/// Returns the best solution seen at any sampling point or at termination.
/// Runs BsbBatchEngine (ising/bsb_batch.hpp); bit-identical to
/// solve_sb_scalar() for the same seed. The hook (if any) sees the live
/// positions and momenta at every sampling point. A non-null `ctx`
/// enables deadline checks and the armed recorders.
IsingSolveResult solve_sb(const IsingModel& model, const SbParams& params,
                          const SbSampleHook& hook = nullptr,
                          const RunContext* ctx = nullptr);

/// Scalar reference implementation of solve_sb (the seed implementation,
/// per-sample from-scratch energies). Kept as the ground truth for the
/// engine's parity tests and as the baseline of the engine-vs-scalar
/// micro-benchmarks; not used on any hot path.
IsingSolveResult solve_sb_scalar(const IsingModel& model,
                                 const SbParams& params,
                                 const SbSampleHook& hook = nullptr);

}  // namespace adsd
