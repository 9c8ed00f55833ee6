#include "ising/bsb_batch.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "support/rng.hpp"
#include "support/run_context.hpp"

namespace adsd {

BsbBatchEngine::BsbBatchEngine(const IsingModel& model, const SbParams& params,
                               std::size_t replicas)
    : EnsembleEngineBase(model, replicas, params.kernel, params.discrete,
                         "BsbBatchEngine"),
      params_(params) {
  if (params.max_iterations == 0 || params.dt <= 0.0 ||
      params.detuning <= 0.0) {
    throw std::invalid_argument("BsbBatchEngine: bad parameters");
  }
  if (!params.initial_positions.empty() &&
      params.initial_positions.size() != n_) {
    throw std::invalid_argument("BsbBatchEngine: initial_positions size");
  }

  c0_ = params.c0;
  if (c0_ <= 0.0) {
    c0_ = default_coupling_strength(model, params.detuning);
  }

  // Replica-contiguous state; replica r reproduces the scalar reference with
  // seed params.seed + r * 0x9e3779b9 (same draw order: x first, then the
  // momenta sweep).
  for (std::size_t r = 0; r < R_; ++r) {
    Rng rng(params_.seed + 0x9e3779b9u * r);
    if (!params_.initial_positions.empty()) {
      for (std::size_t i = 0; i < n_; ++i) {
        x_[i * R_ + r] = params_.initial_positions[i];
      }
    }
    for (std::size_t i = 0; i < n_; ++i) {
      y_[i * R_ + r] = rng.next_double(-0.1, 0.1);
    }
  }

  init_tracker();
}

void BsbBatchEngine::step() {
  const auto total = static_cast<double>(params_.max_iterations);
  // Same ramp expression as the scalar reference (bit-for-bit parity).
  const double a =
      params_.detuning * (static_cast<double>(step_) + 1.0) / total;
  const double stiffness = params_.detuning - a;

  compute_forces();

  const double dt = params_.dt;
  const double detuning = params_.detuning;
  const std::size_t total_lanes = n_ * R_;
  for (std::size_t k = 0; k < total_lanes; ++k) {
    y_[k] += dt * (-stiffness * x_[k] + c0_ * force_[k]);
    const double xk = x_[k] + dt * detuning * y_[k];
    // Branchless inelastic walls: clamp x to [-1, 1] and zero the momentum
    // of any lane that hit a wall (select, not branch, so the loop
    // vectorizes).
    const double lo = xk < -1.0 ? -1.0 : xk;
    const double clamped = lo > 1.0 ? 1.0 : lo;
    y_[k] = clamped == xk ? y_[k] : 0.0;
    x_[k] = clamped;
  }
  ++step_;
}

std::string BsbBatchEngine::curve_name() const {
  return "ising/bsb/n" + std::to_string(n_) + "_R" + std::to_string(R_);
}

std::size_t BsbBatchEngine::sample_interval() const {
  return params_.stop.sample_interval > 0 ? params_.stop.sample_interval : 10;
}

IsingSolveResult solve_sb_batch(const IsingModel& model, const SbParams& params,
                                std::size_t replicas, const SbBatchHook& hook,
                                const SbBatchPlaneHook& plane_hook,
                                const RunContext* ctx) {
  BsbBatchEngine engine(model, params, replicas);
  engine.set_context(ctx);
  IsingSolveResult result = engine.run(hook, plane_hook);
  result.iterations *= replicas;
  return result;
}

}  // namespace adsd
