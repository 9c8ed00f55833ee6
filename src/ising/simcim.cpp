#include "ising/simcim.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "support/run_context.hpp"

namespace adsd {

SimcimEngine::SimcimEngine(const IsingModel& model, const SimcimParams& params,
                           std::size_t replicas)
    : EnsembleEngineBase(model, replicas, params.kernel, /*discrete=*/false,
                         "SimcimEngine"),
      params_(params) {
  if (params.max_iterations == 0 || params.dt <= 0.0 ||
      params.pump_end < params.pump_start) {
    throw std::invalid_argument("SimcimEngine: bad parameters");
  }
  if (params.noise < 0.0) {
    throw std::invalid_argument("SimcimEngine: negative noise");
  }
  if (!params.initial_positions.empty() &&
      params.initial_positions.size() != n_) {
    throw std::invalid_argument("SimcimEngine: initial_positions size");
  }

  c0_ = params.c0;
  if (c0_ <= 0.0) {
    c0_ = default_coupling_strength(model, 1.0);
  }

  // Warm amplitudes are copied into every replica; divergence comes from
  // the per-replica noise streams, not from the starting point.
  if (!params_.initial_positions.empty()) {
    for (std::size_t r = 0; r < R_; ++r) {
      for (std::size_t i = 0; i < n_; ++i) {
        x_[i * R_ + r] = params_.initial_positions[i];
      }
    }
  }

  rngs_.reserve(R_);
  for (std::size_t r = 0; r < R_; ++r) {
    rngs_.emplace_back(params_.seed + 0x9e3779b9u * r);
  }

  init_tracker();
}

void SimcimEngine::advance(std::size_t iter, std::size_t steps) {
  const auto total = static_cast<double>(params_.max_iterations);
  const double dt = params_.dt;
  const double c0 = c0_;
  const double noise = params_.noise;
  for (std::size_t step = iter; step < iter + steps; ++step) {
    const double p =
        params_.pump_start + (params_.pump_end - params_.pump_start) *
                                 (static_cast<double>(step) + 1.0) / total;

    compute_forces();

    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t r = 0; r < R_; ++r) {
        const std::size_t k = i * R_ + r;
        double xk = x_[k] + dt * (p * x_[k] + c0 * force_[k]);
        if (noise > 0.0) {
          xk += noise * rngs_[r].next_gaussian();
        }
        x_[k] = std::clamp(xk, -1.0, 1.0);
      }
    }
  }
}

std::string SimcimEngine::curve_name() const {
  return "ising/simcim/n" + std::to_string(n_) + "_R" + std::to_string(R_);
}

std::size_t SimcimEngine::sample_interval() const {
  return params_.stop.sample_interval > 0 ? params_.stop.sample_interval : 10;
}

IsingSolveResult solve_simcim(const IsingModel& model,
                              const SimcimParams& params, std::size_t replicas,
                              const SbBatchHook& hook,
                              const SbBatchPlaneHook& plane_hook,
                              const RunContext* ctx) {
  SimcimEngine engine(model, params, replicas);
  engine.set_context(ctx);
  IsingSolveResult result = engine.run(hook, plane_hook);
  result.iterations *= replicas;
  return result;
}

}  // namespace adsd
