#include "ising/bsb.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "ising/bsb_batch.hpp"

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

IsingSolveResult solve_sb_scalar(const IsingModel& model,
                                 const SbParams& params,
                                 const SbSampleHook& hook) {
  if (!model.finalized()) {
    throw std::invalid_argument("solve_sb: model must be finalized");
  }
  if (params.max_iterations == 0 || params.dt <= 0.0 ||
      params.detuning <= 0.0) {
    throw std::invalid_argument("solve_sb: bad parameters");
  }

  const std::size_t n = model.num_spins();
  double c0 = params.c0;
  if (c0 <= 0.0) {
    const double rms = model.coupling_rms();
    c0 = rms > 0.0
             ? 0.5 * params.detuning / (rms * std::sqrt(static_cast<double>(n)))
             : 1.0;
  }

  Rng rng(params.seed);
  std::vector<double> x(n, 0.0);
  if (!params.initial_positions.empty()) {
    if (params.initial_positions.size() != n) {
      throw std::invalid_argument("solve_sb: initial_positions size");
    }
    x = params.initial_positions;
  }
  std::vector<double> y(n);
  for (double& yi : y) {
    yi = rng.next_double(-0.1, 0.1);
  }
  std::vector<double> force(n);

  const std::size_t sample_every =
      params.stop.sample_interval > 0 ? params.stop.sample_interval : 10;
  DynamicStopMonitor monitor(params.stop);

  IsingSolveResult result;
  result.spins = signs_of(x);
  result.energy = model.energy(result.spins);

  // Sampling-point scratch: the sign vector is materialized into a reused
  // buffer and only copied out when it actually improves the incumbent.
  std::vector<std::int8_t> sample_spins(n);
  auto consider = [&](std::span<const double> positions) {
    for (std::size_t i = 0; i < n; ++i) {
      sample_spins[i] =
          positions[i] >= 0.0 ? std::int8_t{1} : std::int8_t{-1};
    }
    const double e = model.energy(sample_spins);
    if (e < result.energy) {
      result.energy = e;
      result.spins = sample_spins;
    }
    return e;
  };

  const auto total = static_cast<double>(params.max_iterations);
  std::size_t iter = 0;
  for (; iter < params.max_iterations; ++iter) {
    // Linear pumping ramp a(t): 0 -> detuning over the iteration budget.
    const double a =
        params.detuning * (static_cast<double>(iter) + 1.0) / total;

    if (params.discrete) {
      model.local_fields_signed(x, force);
    } else {
      model.local_fields(x, force);
    }
    const double stiffness = params.detuning - a;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += params.dt * (-stiffness * x[i] + c0 * force[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += params.dt * params.detuning * y[i];
      // Ballistic boundary: perfectly inelastic walls at +-1.
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
      if (monitor.observe(e)) {
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

IsingSolveResult solve_sb(const IsingModel& model, const SbParams& params,
                          const SbSampleHook& hook, const RunContext* ctx) {
  BsbBatchEngine engine(model, params);
  engine.set_context(ctx);
  return engine.run(hook);
}

}  // namespace adsd
