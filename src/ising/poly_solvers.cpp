#include "ising/poly_solvers.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "support/rng.hpp"
#include "support/run_context.hpp"

namespace adsd {

namespace {

std::vector<std::int8_t> signs_of(std::span<const double> x) {
  std::vector<std::int8_t> s(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    s[i] = x[i] >= 0.0 ? std::int8_t{1} : std::int8_t{-1};
  }
  return s;
}

}  // namespace

IsingSolveResult solve_sb_poly(const PolyIsingModel& model,
                               const SbParams& params,
                               const SbSampleHook& hook,
                               const RunContext* ctx) {
  if (!model.finalized()) {
    throw std::invalid_argument("solve_sb_poly: model must be finalized");
  }
  if (params.max_iterations == 0 || params.dt <= 0.0 ||
      params.detuning <= 0.0) {
    throw std::invalid_argument("solve_sb_poly: bad parameters");
  }

  const std::size_t n = model.num_spins();
  double c0 = params.c0;
  if (c0 <= 0.0) {
    const double rms = model.coeff_rms();
    c0 = rms > 0.0
             ? 0.5 * params.detuning / (rms * std::sqrt(static_cast<double>(n)))
             : 1.0;
  }

  Rng rng(params.seed);
  std::vector<double> x(n, 0.0);
  if (!params.initial_positions.empty()) {
    if (params.initial_positions.size() != n) {
      throw std::invalid_argument("solve_sb_poly: initial_positions size");
    }
    x = params.initial_positions;
  }
  std::vector<double> y(n);
  for (double& yi : y) {
    yi = rng.next_double(-0.1, 0.1);
  }
  std::vector<double> grad(n);

  const std::size_t sample_every =
      params.stop.sample_interval > 0 ? params.stop.sample_interval : 10;
  DynamicStopMonitor monitor(params.stop);

  IsingSolveResult result;
  result.spins = signs_of(x);
  result.energy = model.energy(result.spins);

  auto consider = [&](std::span<const double> positions) {
    auto spins = signs_of(positions);
    const double e = model.energy(spins);
    if (e < result.energy) {
      result.energy = e;
      result.spins = std::move(spins);
    }
    return e;
  };

  const auto total = static_cast<double>(params.max_iterations);
  std::size_t iter = 0;
  for (; iter < params.max_iterations; ++iter) {
    const double a =
        params.detuning * (static_cast<double>(iter) + 1.0) / total;
    if (params.discrete) {
      model.gradient_signed(x, grad);
    } else {
      model.gradient(x, grad);
    }
    const double stiffness = params.detuning - a;
    for (std::size_t i = 0; i < n; ++i) {
      // Force is the negative gradient of the cost.
      y[i] += params.dt * (-stiffness * x[i] - c0 * grad[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += params.dt * params.detuning * y[i];
      if (x[i] > 1.0) {
        x[i] = 1.0;
        y[i] = 0.0;
      } else if (x[i] < -1.0) {
        x[i] = -1.0;
        y[i] = 0.0;
      }
    }

    if ((iter + 1) % sample_every == 0) {
      if (hook) {
        hook(std::span<double>(x), std::span<double>(y));
      }
      const double e = consider(x);
      if (monitor.observe(e) || (ctx != nullptr && ctx->expired())) {
        result.stopped_early = true;
        ++iter;
        break;
      }
    }
  }

  consider(x);
  result.iterations = iter;
  return result;
}

IsingSolveResult solve_sa_poly(const PolyIsingModel& model,
                               const SaParams& params, const RunContext* ctx) {
  if (!model.finalized()) {
    throw std::invalid_argument("solve_sa_poly: model must be finalized");
  }
  if (params.sweeps == 0 || params.beta_start <= 0.0 ||
      params.beta_end < params.beta_start) {
    throw std::invalid_argument("solve_sa_poly: bad parameters");
  }

  const std::size_t n = model.num_spins();
  Rng rng(params.seed);
  std::vector<std::int8_t> spins(n);
  for (auto& s : spins) {
    s = static_cast<std::int8_t>(rng.next_spin());
  }
  double energy = model.energy(spins);

  IsingSolveResult result;
  result.spins = spins;
  result.energy = energy;

  DynamicStopMonitor monitor(params.stop);
  const double ratio =
      params.sweeps > 1 ? std::pow(params.beta_end / params.beta_start,
                                   1.0 / static_cast<double>(params.sweeps - 1))
                        : 1.0;
  double beta = params.beta_start;

  std::size_t sweep = 0;
  for (; sweep < params.sweeps; ++sweep) {
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = model.flip_delta(spins, i);
      if (delta <= 0.0 || rng.next_double() < std::exp(-beta * delta)) {
        spins[i] = static_cast<std::int8_t>(-spins[i]);
        energy += delta;
      }
    }
    if (energy < result.energy) {
      result.energy = energy;
      result.spins = spins;
    }
    if (monitor.observe(energy) || (ctx != nullptr && ctx->expired())) {
      result.stopped_early = true;
      ++sweep;
      break;
    }
    beta *= ratio;
  }

  result.iterations = sweep;
  return result;
}

IsingSolveResult solve_exhaustive_poly(const PolyIsingModel& model) {
  if (!model.finalized()) {
    throw std::invalid_argument(
        "solve_exhaustive_poly: model must be finalized");
  }
  const std::size_t n = model.num_spins();
  if (n > 24) {
    throw std::invalid_argument("solve_exhaustive_poly: too many spins");
  }

  std::vector<std::int8_t> spins(n, -1);
  double energy = model.energy(spins);

  IsingSolveResult result;
  result.spins = spins;
  result.energy = energy;

  const std::uint64_t total = std::uint64_t{1} << n;
  for (std::uint64_t k = 1; k < total; ++k) {
    const auto bit = static_cast<std::size_t>(std::countr_zero(k));
    energy += model.flip_delta(spins, bit);
    spins[bit] = static_cast<std::int8_t>(-spins[bit]);
    if (energy < result.energy) {
      result.energy = energy;
      result.spins = spins;
    }
  }

  result.iterations = total;
  return result;
}

}  // namespace adsd
