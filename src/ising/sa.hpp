#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ising/engine.hpp"
#include "ising/model.hpp"
#include "ising/stop.hpp"
#include "support/rng.hpp"

namespace adsd {

/// Parameters for the simulated-annealing baseline solver [Kirkpatrick].
///
/// SA updates connected spins sequentially, which is the scalability
/// contrast the paper draws against SB's parallel updates; it is included
/// both as a solver baseline and for the BA-style decomposition baseline.
struct SaParams {
  std::size_t sweeps = 500;

  /// Inverse temperature schedule: beta ramps geometrically from beta_start
  /// to beta_end across the sweeps.
  double beta_start = 0.1;
  double beta_end = 10.0;

  std::uint64_t seed = 1;

  /// Optional dynamic stop on the per-sweep energy (same criterion as SB).
  DynamicStopParams stop{};
};

class RunContext;

/// Metropolis simulated annealing rehosted on the IsingEngine contract:
/// advance() runs sequential Metropolis sweeps (beta multiplied into the
/// geometric schedule before every sweep but the first, which reproduces
/// the historical end-of-sweep update bit-for-bit), observe() folds the
/// current assignment into the incumbent and hands the *current* energy to
/// the dynamic-stop window, and the shared driver supplies deadline
/// checks, sampling bookkeeping, and "ising/sa/*" emissions.
class SaEngine final : public IsingEngine {
 public:
  /// The model reference must outlive the engine.
  SaEngine(const IsingModel& model, const SaParams& params);

  std::size_t num_spins() const { return n_; }

  const char* telemetry_prefix() const override { return "ising/sa"; }
  const char* trace_prefix() const override { return "ising/sa"; }
  std::string curve_name() const override;
  std::size_t max_iterations() const override { return params_.sweeps; }
  std::size_t sample_interval() const override { return 1; }
  const DynamicStopParams& stop_params() const override { return params_.stop; }
  void begin(IsingSolveResult& result) override;
  void advance(std::size_t iter, std::size_t steps) override;
  double observe(IsingSolveResult& result) override;

 private:
  const IsingModel& model_;
  SaParams params_;
  std::size_t n_;
  Rng rng_;
  std::vector<std::int8_t> spins_;
  double energy_;
  double beta_;
  double ratio_;
};

/// Metropolis simulated annealing on a finalized model. Returns the best
/// assignment visited. `iterations` counts executed sweeps. A non-null
/// `ctx` enables per-sweep deadline checks and the armed recorders.
IsingSolveResult solve_sa(const IsingModel& model, const SaParams& params,
                          const RunContext* ctx = nullptr);

}  // namespace adsd
