#include "ising/doch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "support/rng.hpp"
#include "support/run_context.hpp"

namespace adsd {

DochEngine::DochEngine(const IsingModel& model, const DochParams& params,
                       std::size_t replicas)
    : EnsembleEngineBase(model, replicas, params.kernel, /*discrete=*/false,
                         "DochEngine"),
      params_(params) {
  if (params.max_iterations == 0 || params.momentum < 0.0 ||
      params.init_amp < 0.0) {
    throw std::invalid_argument("DochEngine: bad parameters");
  }
  if (!params.initial_positions.empty() &&
      params.initial_positions.size() != n_) {
    throw std::invalid_argument("DochEngine: initial_positions size");
  }

  rho_ = params.rho;
  if (rho_ <= 0.0) {
    // Auto rule: the max row 1-norm of |J| upper-bounds the spectral
    // radius, which makes the convex split valid for any instance.
    for (std::size_t i = 0; i < n_; ++i) {
      double row = 0.0;
      for (const auto& [j, w] : model.neighbors(i)) {
        row += std::fabs(w);
      }
      rho_ = std::max(rho_, row);
    }
    if (rho_ <= 0.0) {
      rho_ = 1.0;
    }
  }
  inv_rho_ = 1.0 / rho_;

  // Deterministic dynamics: the ensemble explores through diverse random
  // starting points, one uniform kick stream per replica.
  for (std::size_t r = 0; r < R_; ++r) {
    Rng rng(params_.seed + 0x9e3779b9u * r);
    for (std::size_t i = 0; i < n_; ++i) {
      const double base = params_.initial_positions.empty()
                              ? 0.0
                              : params_.initial_positions[i];
      x_[i * R_ + r] = std::clamp(
          base + rng.next_double(-params_.init_amp, params_.init_amp), -1.0,
          1.0);
    }
  }

  z_.assign(n_ * R_, 0.0);
  set_force_input(z_.data());

  init_tracker();
}

void DochEngine::advance(std::size_t /*iter*/, std::size_t steps) {
  const double beta = params_.momentum;
  const double inv_rho = inv_rho_;
  const std::size_t total_lanes = n_ * R_;
  for (std::size_t step = 0; step < steps; ++step) {
    // y holds u = x - x_prev from the previous iteration (0 at start and
    // after a hook reset), so the lookahead is one fused pass.
    for (std::size_t k = 0; k < total_lanes; ++k) {
      z_[k] = x_[k] + beta * y_[k];
    }

    compute_forces();

    for (std::size_t k = 0; k < total_lanes; ++k) {
      const double zk = z_[k] + inv_rho * force_[k];
      const double lo = zk < -1.0 ? -1.0 : zk;
      const double xn = lo > 1.0 ? 1.0 : lo;
      y_[k] = xn - x_[k];
      x_[k] = xn;
    }
  }
}

std::string DochEngine::curve_name() const {
  return "ising/doch/n" + std::to_string(n_) + "_R" + std::to_string(R_);
}

std::size_t DochEngine::sample_interval() const {
  return params_.stop.sample_interval > 0 ? params_.stop.sample_interval : 10;
}

IsingSolveResult solve_doch(const IsingModel& model, const DochParams& params,
                            std::size_t replicas, const SbBatchHook& hook,
                            const SbBatchPlaneHook& plane_hook,
                            const RunContext* ctx) {
  DochEngine engine(model, params, replicas);
  engine.set_context(ctx);
  IsingSolveResult result = engine.run(hook, plane_hook);
  result.iterations *= replicas;
  return result;
}

}  // namespace adsd
