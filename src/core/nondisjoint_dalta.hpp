#pragma once

#include <cstdint>
#include <vector>

#include "boolean/error_metrics.hpp"
#include "boolean/nondisjoint.hpp"
#include "boolean/truth_table.hpp"
#include "core/cop_solvers.hpp"

namespace adsd {

/// Parameters of the non-disjoint DALTA flow (the BA extension, ref. [10]):
/// DaltaParams without screening, plus the shared-set size. With
/// shared_size = 0 the flow reduces exactly to run_dalta() (and produces
/// identical results for the same seed, which the tests assert).
struct NdDaltaParams {
  unsigned free_size = 4;
  unsigned shared_size = 1;
  std::size_t num_partitions = 16;  // P
  std::size_t rounds = 2;           // R
  DecompMode mode = DecompMode::kJoint;
  std::uint64_t seed = 42;
};

struct NdOutputDecomposition {
  NonDisjointPartition partition;
  NonDisjointSetting setting;
  double objective = 0.0;
};

struct NdDaltaResult {
  TruthTable approx;
  std::vector<NdOutputDecomposition> outputs;
  double med = 0.0;
  double error_rate = 0.0;
  double seconds = 0.0;
  std::size_t cop_solves = 0;          // one per (partition, slice)
  std::size_t solver_iterations = 0;
  std::size_t early_stops = 0;  // slice solves where the dynamic stop fired

  /// Total decomposed storage in bits across outputs.
  std::uint64_t total_size_bits() const;
  std::uint64_t total_flat_size_bits() const;
};

/// Non-disjoint approximate decomposition: per candidate partition, one
/// column-based core COP per shared-assignment slice, each solved with
/// `solver`; the slice objectives add up because slices cover disjoint
/// input patterns. run_dalta's outer loop runs it, with the trace, QoR and
/// metric names under "dalta_nd".
///
/// The context overload is the primary entry point (ctx supplies the seed,
/// pool, deadline, and recorders; params.seed is superseded). Slice 0
/// shares run_dalta's candidate seed stream, so shared_size == 0
/// reproduces the disjoint flow exactly under the same seed.
NdDaltaResult run_dalta_nd(const TruthTable& exact,
                           const InputDistribution& dist,
                           const NdDaltaParams& params,
                           const CoreCopSolver& solver, const RunContext& ctx);

/// Convenience overload: builds a context from params.seed alone (shared
/// pool, parallel, no deadline) — identical results to the context form.
NdDaltaResult run_dalta_nd(const TruthTable& exact,
                           const InputDistribution& dist,
                           const NdDaltaParams& params,
                           const CoreCopSolver& solver);

}  // namespace adsd
