#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ising/bsb.hpp"
#include "ising/engine.hpp"
#include "ising/model.hpp"

namespace adsd {

class RunContext;

/// Batched ballistic/discrete simulated bifurcation: R replicas advanced in
/// lockstep over a single flattened CSR traversal, hosted on the shared
/// EnsembleEngineBase chassis (SoA planes, dispatched force kernel,
/// incremental energy tracking) and driven by the engine-agnostic
/// run_engine() sweep driver.
///
/// Layout: all state is structure-of-arrays with replicas contiguous —
/// x[i * R + r] is oscillator i of replica r — so the coupling loop loads
/// the weight of edge (i, j) once and streams R consecutive doubles of x.
/// The CSR adjacency is split into separate column-index and weight planes
/// (no interleaved pairs) and all planes are 64-byte aligned. Force
/// evaluation dispatches through the kernel layer of
/// ising/kernels/force_kernels.hpp: a cpuid-probed explicit-SIMD CSR
/// kernel (AVX2 / AVX-512, portable lane-blocked fallback), or at R = 1
/// on a column-COP model the bipartite kernel that vectorizes across rows
/// — selected at construction from SbParams::kernel (kAuto by default) and
/// reported via kernel_name() and the kernel_invocations_total{kernel}
/// metric. The Euler step dispatches to the same ISA tier. On the
/// bipartite layout advance() integrates a whole sampling interval in one
/// interval-kernel call (the force pass and the step in one loop); CSR
/// layouts run force pass and step per step. Every variant is
/// bit-identical by construction.
///
/// Replica r reproduces the scalar reference solve_sb_scalar() with seed
/// params.seed + r * 0x9e3779b9 bit-for-bit: the per-replica arithmetic uses
/// the same expression trees and the same operation order per element, and
/// the wall clamp is a branchless select with identical semantics.
class BsbBatchEngine final : public EnsembleEngineBase {
 public:
  /// The model reference must outlive the engine.
  BsbBatchEngine(const IsingModel& model, const SbParams& params,
                 std::size_t replicas);

  std::size_t steps_done() const { return step_; }

  /// One Euler step for all replicas: advance() over a single step.
  void step() { advance(step_, 1); }

  // IsingEngine contract: the "ising/sb" counter and "ising/bsb" trace
  // namespaces are the engine's historical names, kept verbatim.
  const char* telemetry_prefix() const override { return "ising/sb"; }
  const char* trace_prefix() const override { return "ising/bsb"; }
  std::string curve_name() const override;
  std::size_t max_iterations() const override { return params_.max_iterations; }
  std::size_t sample_interval() const override;
  const DynamicStopParams& stop_params() const override { return params_.stop; }
  bool supports_budget_rescale() const override { return true; }
  void apply_budget_rescale(std::size_t max_iterations) override {
    params_.max_iterations = max_iterations;
  }
  /// `steps` Euler steps for all replicas; the pump ramp follows the
  /// engine's own step counter (steps_done()), not `iter`.
  void advance(std::size_t iter, std::size_t steps) override;

 private:
  SbParams params_;
  kernels::BsbStepFn step_fn_;
  kernels::BsbIntervalFn interval_fn_;  // bipartite layout only, else null
  double c0_;
  std::size_t step_ = 0;
};

/// `replicas` independent SB trajectories integrated in lockstep on
/// BsbBatchEngine (SB's massive parallelism, Sec. 2.1, realized as
/// SIMD-friendly batching): replica r reproduces solve_sb with seed
/// params.seed + r * 0x9e3779b9 exactly, the best replica's best solution
/// is returned, the dynamic stop is evaluated on the ensemble-best energy,
/// and `iterations` sums Euler steps over replicas. The hook
/// (if any) is applied to every replica at each sampling point through a
/// strided view (no copies); `plane_hook` (if any) runs once per sampling
/// point over the whole ensemble before the per-replica hook. A non-null
/// `ctx` enables row-sharded force evaluation over ctx->pool(), deadline
/// checks, and the engine_* metrics when ctx->metrics() is armed.
IsingSolveResult solve_sb_batch(const IsingModel& model, const SbParams& params,
                                std::size_t replicas,
                                const SbBatchHook& hook = nullptr,
                                const SbBatchPlaneHook& plane_hook = nullptr,
                                const RunContext* ctx = nullptr);

}  // namespace adsd
