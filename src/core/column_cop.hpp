#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "boolean/boolean_matrix.hpp"
#include "boolean/decomposition.hpp"
#include "boolean/error_metrics.hpp"
#include "boolean/partition.hpp"
#include "ising/model.hpp"

namespace adsd {

/// Optimization mode of the approximate decomposition (Sec. 2.4): separate
/// minimizes the error rate of the current component function alone; joint
/// minimizes the mean error distance of the whole output word with the
/// other components fixed at their latest versions.
enum class DecompMode { kSeparate, kJoint };

/// Per-cell occurrence probabilities p_kij of the Boolean matrix of output k
/// under partition `w`: p_ij = Pr[input pattern at row i, column j].
std::vector<double> matrix_probs(const InputDistribution& dist,
                                 const InputPartition& w);

/// Allocation-free variant for hot loops: fills `out` (resized to
/// rows * cols) with the cell probabilities under `w`. `idx` must be the
/// indexer of `w`; the non-uniform path scatters pattern probabilities
/// through its byte LUTs in one pass over the 2^n patterns instead of
/// calling input_of per cell.
void matrix_probs_into(const InputDistribution& dist, const InputPartition& w,
                       const PartitionIndexer& idx, std::vector<double>& out);

/// The column-based core COP for one (component function, partition) pair:
///
///   minimize  sum_ij ( base_ij + gain_ij * Ohat_ij ),
///   Ohat_ij = (1 - T_j) V1_i + T_j V2_i            (Eq. 3),
///
/// where (base, gain) encode either the separate-mode error rate (Eq. 7:
/// base = p*O, gain = p(1-2O)) or the joint-mode linearized error distance
/// (Eqs. 13/15: gain = p*q with the D_kij case analysis). The linearization
/// is exact for binary Ohat, so `objective()` returns the true weighted
/// error of a setting, and the Ising model produced by `to_ising()` has
/// energies *equal* to objectives (constant tracked).
class ColumnCop {
 public:
  /// Separate mode: minimizes the ER of this output alone (Eq. 4).
  static ColumnCop separate(const BooleanMatrix& exact,
                            const std::vector<double>& probs);

  /// Joint mode: minimizes the linearized MED with the other outputs fixed
  /// (Eq. 10). `d` holds D_kij per cell (row-major) and `bit_weight` is
  /// 2^(k-1) in the paper's 1-based indexing, i.e. 1 << k for 0-based k.
  static ColumnCop joint(const BooleanMatrix& exact,
                         const std::vector<double>& probs,
                         const std::vector<double>& d, double bit_weight);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Spin layout: V1 spins at [0, r), V2 at [r, 2r), T at [2r, 2r+c).
  std::size_t num_spins() const { return 2 * rows_ + cols_; }
  std::size_t v1_spin(std::size_t i) const { return i; }
  std::size_t v2_spin(std::size_t i) const { return rows_ + i; }
  std::size_t t_spin(std::size_t j) const { return 2 * rows_ + j; }

  /// True weighted error of a setting (ER in separate mode; the MED
  /// contribution of this output in joint mode).
  double objective(const ColumnSetting& s) const;

  /// Error contribution of one cell when the approximate value is `ohat`.
  double cell_cost(std::size_t i, std::size_t j, bool ohat) const {
    const std::size_t idx = i * cols_ + j;
    return base_[idx] + (ohat ? gain_[idx] : 0.0);
  }

  /// Second-order Ising formulation (Eq. 9 / Eq. 16), finalized, with the
  /// constant chosen so energies equal objective values. The model declares
  /// its bipartite shape (rows(), cols()), which selects the engines'
  /// bipartite force layout at one replica.
  IsingModel to_ising() const;

  /// Decodes a spin vector (layout above) into a setting.
  ColumnSetting decode(std::span<const std::int8_t> spins) const;

  /// Spin vector realizing a setting (inverse of decode()).
  std::vector<std::int8_t> encode(const ColumnSetting& s) const;

  /// Theorem 3: rewrites s.t with the per-column optimal choice for the
  /// current s.v1/s.v2. Never increases objective(). Ties pick pattern 1.
  void reset_optimal_t(ColumnSetting& s) const;

  /// Batched Theorem 3 over the SoA oscillator planes of the lockstep bSB
  /// engine (element i of replica r at index i * replicas + r, spin layout
  /// as num_spins()): for every replica at once, reads the V1/V2 signs,
  /// computes the per-column optimal T choice, and writes the T oscillators
  /// (+-1 positions, zeroed momenta). Equivalent to decoding each replica,
  /// calling reset_optimal_t(), and re-encoding T, bit for bit: the row
  /// loop is outermost and streams each gain row contiguously, and every
  /// (column, replica) cost still sums its rows in ascending order.
  ///
  /// `cost_scratch` is resized to 2 * cols() * replicas and reused across
  /// calls.
  /// When `degenerate` is non-null it is resized to `replicas` and flags
  /// the replicas whose reset landed in a collapsed state (all columns on
  /// one pattern, or V1 == V2) — the anti-collapse intervention handles
  /// those separately.
  void reset_optimal_t_planes(std::span<double> x, std::span<double> y,
                              std::size_t replicas,
                              std::vector<double>& cost_scratch,
                              std::vector<std::uint8_t>* degenerate) const;

  /// Per-row optimal V1/V2 for the current s.t (the complementary
  /// half-step; together with reset_optimal_t this yields the alternating
  /// minimization baseline). Never increases objective().
  void reset_optimal_v(ColumnSetting& s) const;

  /// Lower bound on the objective: every cell takes its cheaper value.
  double ideal_bound() const;

  /// The exact matrix this COP approximates (for seeding heuristics).
  const BooleanMatrix& exact_matrix() const { return exact_; }

 private:
  ColumnCop(const BooleanMatrix& exact, std::vector<double> base,
            std::vector<double> gain);

  BooleanMatrix exact_;
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> base_;  // row-major r*c
  std::vector<double> gain_;  // row-major r*c
};

}  // namespace adsd
