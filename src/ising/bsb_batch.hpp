#pragma once

#include <string>

#include "ising/bsb.hpp"
#include "ising/engine.hpp"
#include "ising/model.hpp"

namespace adsd {

/// Ballistic/discrete simulated bifurcation of one trajectory, hosted on
/// the shared EnsembleEngineBase chassis (n-long planes, dispatched force
/// kernel, incremental energy tracking) and driven by the engine-agnostic
/// run_engine() sweep driver.
///
/// All planes are 64-byte aligned, and the CSR adjacency is split into
/// separate column-index and weight planes (no interleaved pairs). Force
/// evaluation dispatches through the kernel layer of
/// ising/kernels/force_kernels.hpp: on a column-COP model the bipartite
/// kernel that vectorizes across rows at the cpuid-probed ISA tier,
/// otherwise the CSR kernel -- selected at construction from
/// SbParams::kernel (kAuto by default) and reported via kernel_name() and
/// the kernel_invocations_total{kernel} metric. The Euler step dispatches
/// to the host's widest ISA tier. On the bipartite layout advance()
/// integrates a whole sampling interval in one interval-kernel call (the
/// force pass and the step in one loop); the CSR layout runs force pass
/// and step per step. Every variant is bit-identical by construction.
///
/// The engine reproduces the scalar reference solve_sb_scalar() with the
/// same seed bit for bit: the arithmetic uses the same expression trees
/// and the same operation order per element, and the wall clamp is a
/// branchless select with identical semantics. solve_sb() is its
/// front-end.
class BsbBatchEngine final : public EnsembleEngineBase {
 public:
  /// The model reference must outlive the engine.
  BsbBatchEngine(const IsingModel& model, const SbParams& params);

  std::size_t steps_done() const { return step_; }

  /// One Euler step: advance() over a single step.
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
  /// `steps` Euler steps; the pump ramp follows the engine's own step
  /// counter (steps_done()), not `iter`.
  void advance(std::size_t iter, std::size_t steps) override;

 private:
  SbParams params_;
  kernels::BsbStepFn step_fn_;
  kernels::BsbIntervalFn interval_fn_;  // bipartite layout only, else null
  double c0_;
  std::size_t step_ = 0;
};

}  // namespace adsd
