#pragma once

#include <functional>
#include <span>
#include <vector>

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

  /// Force-kernel variant for the batched engine (registry key `kernel=`,
  /// CLI `--kernel`). kAuto picks the row-block layout at one replica;
  /// past one, the dense fast path when the model materialized a dense
  /// plane and otherwise the widest explicit-SIMD CSR kernel the CPU
  /// supports. Every variant is bit-identical (see
  /// ising/kernels/force_kernels.hpp).
  kernels::ForceKernel kernel = kernels::ForceKernel::kAuto;

  /// Dynamic stop criterion (Sec. 3.3.1). When disabled the solver still
  /// samples every `stop.sample_interval` iterations to track the best
  /// solution and to run the intervention hook.
  DynamicStopParams stop{};
};

/// Called at every sampling point with the mutable oscillator positions and
/// momenta; the Theorem-3 heuristic of Sec. 3.3.2 plugs in here to reset the
/// column-type spins and feed the state back into the integration.
using SbSampleHook =
    std::function<void(std::span<double> positions, std::span<double> momenta)>;

class RunContext;

/// Ballistic (or discrete) simulated bifurcation on a finalized model.
/// Returns the best solution seen at any sampling point or at termination.
/// Delegates to the batched lockstep engine (ising/bsb_batch.hpp) with a
/// single replica; bit-identical to solve_sb_scalar() for the same seed.
/// A non-null `ctx` enables deadline checks and the armed recorders.
IsingSolveResult solve_sb(const IsingModel& model, const SbParams& params,
                          const SbSampleHook& hook = nullptr,
                          const RunContext* ctx = nullptr);

/// Scalar reference implementation of solve_sb (the seed implementation,
/// one replica, per-sample from-scratch energies). Kept as the ground truth
/// for the batched engine's parity tests and as the baseline of the
/// batched-vs-scalar micro-benchmarks; not used on any hot path.
IsingSolveResult solve_sb_scalar(const IsingModel& model,
                                 const SbParams& params,
                                 const SbSampleHook& hook = nullptr);

/// `replicas` independent SB trajectories integrated in lockstep: the CSR
/// coupling structure is traversed once per step with a replica-contiguous
/// inner loop, which is markedly faster than sequential restarts on models
/// with many couplings (SB's massive parallelism, Sec. 2.1, realized as
/// SIMD-friendly batching). Replica r reproduces solve_sb with seed
/// params.seed + r * 0x9e3779b9 exactly; the best replica's best solution
/// is returned. `iterations` sums Euler steps across replicas. The dynamic
/// stop is evaluated on the ensemble-best energy. Force evaluation goes
/// through the dispatched kernel layer of ising/kernels/force_kernels.hpp
/// (portable / AVX2 / AVX-512 tiers of the CSR, dense and R = 1 row-block
/// layouts, selected per CPU, model and replica count at engine
/// construction; override via SbParams::kernel). The hook
/// (if any) is applied to each replica at sampling points through a legacy
/// gather/scatter adapter — prefer solve_sb_batch() and its strided
/// SbBatchHook for new code, which avoids the per-sample copies.
IsingSolveResult solve_sb_ensemble(const IsingModel& model,
                                   const SbParams& params,
                                   std::size_t replicas,
                                   const SbSampleHook& hook = nullptr,
                                   const RunContext* ctx = nullptr);

}  // namespace adsd
