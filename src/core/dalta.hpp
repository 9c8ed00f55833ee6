#pragma once

#include <cstdint>
#include <vector>

#include "boolean/decomposition.hpp"
#include "boolean/error_metrics.hpp"
#include "boolean/partition.hpp"
#include "boolean/truth_table.hpp"
#include "core/cop_solvers.hpp"
#include "lut/decomposed_lut.hpp"

namespace adsd {

/// Parameters of the DALTA outer framework (Sec. 2.4): optimize the setting
/// of each component function individually, MSB -> LSB, for R rounds; for
/// each component try P candidate input partitions and keep the best.
struct DaltaParams {
  /// |A|, the free-set size; |B| = n - |A|. The paper uses 4/5 for n = 9
  /// and 7/9 for n = 16.
  unsigned free_size = 4;

  std::size_t num_partitions = 16;  // P
  std::size_t rounds = 2;           // R
  DecompMode mode = DecompMode::kJoint;
  std::uint64_t seed = 42;

  /// Partition screening (extension; see core/partition_screen.hpp): when
  /// > 1, sample `screen_factor * P` random partitions and keep the P under
  /// which the output's matrix has the fewest distinct columns (counted
  /// straight from the truth table) before spending solver time. 1
  /// disables screening (the paper's behaviour).
  std::size_t screen_factor = 1;
};

/// Per-output record of the chosen decomposition.
struct OutputDecomposition {
  InputPartition partition;
  ColumnSetting setting;
  double objective = 0.0;  // COP objective of the committed setting,
                           // re-scored in every round that keeps it
};

/// Result of a full approximate-decomposition run.
struct DaltaResult {
  TruthTable approx;                          // the decomposed approximation
  std::vector<OutputDecomposition> outputs;   // per output bit, index = k
  double med = 0.0;
  double error_rate = 0.0;
  double seconds = 0.0;

  std::size_t cop_solves = 0;
  std::size_t solver_iterations = 0;  // summed CoreSolveStats::iterations
  std::size_t early_stops = 0;        // solves where the dynamic stop fired

  /// Builds the two-level LUT architecture realizing the approximation.
  DecomposedLutNetwork to_lut_network() const;
};

/// Runs the framework on `exact` with the given core-COP solver. The same
/// partition sequence is derived from the seed alone regardless of solver,
/// so different solvers compete on identical candidate sets. Results are
/// bit-identical for a fixed seed at every thread count: candidates are
/// evaluated into per-index slots and the winner picked deterministically.
///
/// The context overload is the primary entry point: ctx supplies the seed
/// (params.seed is superseded), the thread pool, the deadline, and the
/// recorders (trace spans under "dalta/", per-solve spans under "core/").
/// The P candidates of an output are evaluated over ctx.pool() when
/// ctx.parallel() holds and P > 1.
DaltaResult run_dalta(const TruthTable& exact, const InputDistribution& dist,
                      const DaltaParams& params, const CoreCopSolver& solver,
                      const RunContext& ctx);

/// Convenience overload: builds a context from params.seed alone (shared
/// pool, parallel, no deadline) — identical results to the context form.
DaltaResult run_dalta(const TruthTable& exact, const InputDistribution& dist,
                      const DaltaParams& params, const CoreCopSolver& solver);

}  // namespace adsd
