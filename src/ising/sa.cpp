#include "ising/sa.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "support/run_context.hpp"

namespace adsd {

SaEngine::SaEngine(const IsingModel& model, const SaParams& params)
    : model_(model),
      params_(params),
      n_(model.num_spins()),
      rng_(params.seed) {
  if (!model.finalized()) {
    throw std::invalid_argument("SaEngine: model must be finalized");
  }
  if (params.sweeps == 0 || params.beta_start <= 0.0 ||
      params.beta_end < params.beta_start) {
    throw std::invalid_argument("SaEngine: bad parameters");
  }

  spins_.resize(n_);
  for (auto& s : spins_) {
    s = static_cast<std::int8_t>(rng_.next_spin());
  }
  energy_ = model.energy(spins_);

  ratio_ = params_.sweeps > 1
               ? std::pow(params_.beta_end / params_.beta_start,
                          1.0 / static_cast<double>(params_.sweeps - 1))
               : 1.0;
  beta_ = params_.beta_start;
}

std::string SaEngine::curve_name() const {
  return "ising/sa/n" + std::to_string(n_);
}

void SaEngine::begin(IsingSolveResult& result) {
  result.spins = spins_;
  result.energy = energy_;
}

void SaEngine::advance(std::size_t iter, std::size_t steps) {
  for (std::size_t sweep = iter; sweep < iter + steps; ++sweep) {
    // The historical loop multiplied beta at the *end* of every
    // non-stopping sweep; advancing it at the start of every sweep but the
    // first walks the identical schedule (sweep j runs at
    // beta_start * ratio^j).
    if (sweep > 0) {
      beta_ *= ratio_;
    }
    for (std::size_t i = 0; i < n_; ++i) {
      const double delta = model_.flip_delta(spins_, i);
      if (delta <= 0.0 || rng_.next_double() < std::exp(-beta_ * delta)) {
        spins_[i] = static_cast<std::int8_t>(-spins_[i]);
        energy_ += delta;
      }
    }
  }
}

double SaEngine::observe(IsingSolveResult& result) {
  if (energy_ < result.energy) {
    result.energy = energy_;
    result.spins = spins_;
  }
  // The dynamic-stop window watches the *current* (not best) energy, as the
  // historical solver did: a plateaued random walk stops even when the best
  // was found long ago.
  return energy_;
}

IsingSolveResult solve_sa(const IsingModel& model, const SaParams& params,
                          const RunContext* ctx) {
  SaEngine engine(model, params);
  engine.set_context(ctx);
  return run_engine(engine);
}

}  // namespace adsd
