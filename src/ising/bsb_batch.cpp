#include "ising/bsb_batch.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "support/cpu_features.hpp"
#include "support/rng.hpp"

namespace adsd {

BsbBatchEngine::BsbBatchEngine(const IsingModel& model, const SbParams& params)
    : EnsembleEngineBase(model, params.kernel, params.discrete,
                         "BsbBatchEngine"),
      params_(params),
      step_fn_(kernels::select_bsb_step(params.kernel, cpu_features())),
      interval_fn_(params.discrete ? kernel_.interval_discrete
                                   : kernel_.interval_continuous) {
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

  // The scalar reference's start: x (zero or the given positions), then
  // the momenta drawn in spin order from the seed.
  if (!params_.initial_positions.empty()) {
    std::copy(params_.initial_positions.begin(),
              params_.initial_positions.end(), x_.begin());
  }
  Rng rng(params_.seed);
  for (std::size_t i = 0; i < n_; ++i) {
    y_[i] = rng.next_double(-0.1, 0.1);
  }

  init_tracker();
}

void BsbBatchEngine::advance(std::size_t /*iter*/, std::size_t steps) {
  // The ramp spans the cap, which only the budget rescale changes, and
  // only between calls (at a sampling point).
  const auto total = static_cast<double>(params_.max_iterations);
  const double dt_detuning = params_.dt * params_.detuning;
  if (interval_fn_ != nullptr) {
    // Bipartite layout: the whole interval in one kernel call. Its forces
    // stay in registers, so the idle force plane is its second x plane.
    kernels::BsbIntervalPlanes interval;
    interval.x = x_.data();
    interval.y = y_.data();
    interval.x_next = force_.data();
    interval.step0 = step_;
    interval.steps = steps;
    interval.detuning = params_.detuning;
    interval.total = total;
    interval.dt = params_.dt;
    interval.c0 = c0_;
    interval.dt_detuning = dt_detuning;
    interval_fn_(planes_, interval);
    step_ += steps;
    return;
  }
  // CSR layout: a force pass, then the step at the host's vector width
  // through the cpuid dispatch; every tier keeps the portable loop's
  // expression order, bit for bit.
  kernels::BsbStepPlanes planes;
  planes.x = x_.data();
  planes.y = y_.data();
  planes.force = force_.data();
  planes.lanes = n_;
  planes.dt = params_.dt;
  planes.c0 = c0_;
  planes.dt_detuning = dt_detuning;
  for (std::size_t k = 0; k < steps; ++k, ++step_) {
    compute_forces();
    planes.neg_stiffness =
        kernels::bsb_neg_stiffness(params_.detuning, total, step_);
    step_fn_(planes);
  }
}

std::string BsbBatchEngine::curve_name() const {
  return "ising/bsb/n" + std::to_string(n_);
}

std::size_t BsbBatchEngine::sample_interval() const {
  return params_.stop.sample_interval > 0 ? params_.stop.sample_interval : 10;
}

}  // namespace adsd
