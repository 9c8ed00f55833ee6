#pragma once

#include <cstdint>
#include <limits>
#include <optional>
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

/// What a one-pass COP build reads (ColumnCop::gather), fixed for one
/// output of one round: the exact output column (2^n bits), the input
/// distribution and, in joint mode, D per input pattern, the output's bit
/// weight (1 << k) and a bound on |D|.
struct CopSource {
  const BitVec& output;
  const InputDistribution& dist;
  DecompMode mode;
  std::span<const double> d_by_input = {};  // joint mode only
  double bit_weight = 0.0;                  // joint mode only
  /// Joint mode: at least max |D| over the patterns, given only when every
  /// D is an integer (run_flow's are int64 differences; the bit weight,
  /// 1 << k, is one too). It lets gather() certify a uniform COP's sums in
  /// O(1) (ColumnCop::exact_sums); the default, +inf, certifies no joint
  /// COP.
  double d_bound = std::numeric_limits<double>::infinity();
};

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

  /// One-pass build of the COP whose cell (i, j) is input pattern
  /// cells.rows[i] | cells.cols[j]: one row-major walk gathers each cell's
  /// matrix bit, probability and (joint mode) D straight from the
  /// per-pattern tables of `src`, and writes base and gain with the same
  /// per-cell arithmetic as separate() and joint(). The walk runs at the
  /// host's ISA tier (select_cop_passes, cop_passes.hpp). Bit for bit the
  /// COP those build from BooleanMatrix::from_function_into,
  /// matrix_probs_into and a D table scattered through PartitionIndexer,
  /// which stay as the reference path.
  static ColumnCop gather(const CopSource& src, const CellPatterns& cells);

  /// gather() into `slot`, rebuilding the COP already there in its own
  /// storage (per-worker scratch: no allocation once the shape fits).
  static const ColumnCop& gather_into(const CopSource& src,
                                      const CellPatterns& cells,
                                      std::optional<ColumnCop>& slot);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Spin layout: V1 spins at [0, r), V2 at [r, 2r), T at [2r, 2r+c).
  std::size_t num_spins() const { return 2 * rows_ + cols_; }
  std::size_t v1_spin(std::size_t i) const { return i; }
  std::size_t v2_spin(std::size_t i) const { return rows_ + i; }
  std::size_t t_spin(std::size_t j) const { return 2 * rows_ + j; }

  /// True weighted error of a setting (ER in separate mode; the MED
  /// contribution of this output in joint mode): the sum of cell_cost()
  /// over the cells, row-major. On a COP whose sums are exact
  /// (exact_sums()) it is taken as the base total plus a masked sum of the
  /// selected gains at the host's vector width (select_cop_passes), the
  /// same double as the row-major chain, which every other COP runs.
  double objective(const ColumnSetting& s) const;

  /// True when no sum over this COP's cells can round: every base and gain
  /// is an integer multiple of one power of two 2^L and their magnitudes
  /// sum to at most 2^(52+L) (the rule of IsingModel::exact_arithmetic(),
  /// GridScan), so every partial sum is a representable multiple of 2^L
  /// and any order of summation gives the exact sum. gather() derives it
  /// in O(1) from its source: a uniform distribution, and in joint mode
  /// r c (3 d_bound + bit_weight) <= 2^52 (DESIGN.md §4.2). separate() and
  /// joint() scan their coefficients.
  bool exact_sums() const { return exact_sums_; }

  /// Error contribution of one cell when the approximate value is `ohat`.
  double cell_cost(std::size_t i, std::size_t j, bool ohat) const {
    const std::size_t idx = i * cols_ + j;
    return base_[idx] + (ohat ? gain_[idx] : 0.0);
  }

  /// Second-order Ising formulation (Eq. 9 / Eq. 16), finalized, with the
  /// constant chosen so energies equal objective values. It is a
  /// column-COP model (IsingModel::bipartite) holding the r x c plane
  /// gain / 4, which selects the engines' bipartite force layout.
  IsingModel to_ising() const;

  /// Decodes a spin vector (layout above) into a setting.
  ColumnSetting decode(std::span<const std::int8_t> spins) const;

  /// Spin vector realizing a setting (inverse of decode()).
  std::vector<std::int8_t> encode(const ColumnSetting& s) const;

  /// Theorem 3: rewrites s.t with the per-column optimal choice for the
  /// current s.v1/s.v2. Never increases objective(). Ties pick pattern 1.
  /// Every column sums its rows in ascending i, chunks of columns at the
  /// host's vector width (select_cop_passes); V is read and T written a
  /// word at a time.
  void reset_optimal_t(ColumnSetting& s) const;

  /// Theorem 3 over the oscillator planes of an engine (spin layout as
  /// num_spins()): reads the V1/V2 signs, computes the per-column optimal
  /// T choice, and writes the T oscillators (+-1 positions, zeroed
  /// momenta). Equivalent to decoding the signs, calling
  /// reset_optimal_t(), and re-encoding T, bit for bit: the accumulation
  /// runs at the host's vector width (kernels::select_theorem3_reset) with
  /// the costs in registers, and every column cost still sums its rows in
  /// ascending order.
  ///
  /// When `degenerate` is non-null it is set to whether the reset landed
  /// in a collapsed state (all columns on one pattern, or V1 == V2) — the
  /// anti-collapse intervention handles that case separately.
  void reset_optimal_t_planes(std::span<double> x, std::span<double> y,
                              bool* degenerate = nullptr) const;

  /// Per-row optimal V1/V2 for the current s.t (the complementary
  /// half-step; together with reset_optimal_t this yields the alternating
  /// minimization baseline). Never increases objective(). Every row sums
  /// its columns in ascending j, blocks of rows at the host's vector width
  /// (select_cop_passes); V is written a word at a time. Returns true when
  /// a V1 or V2 word changed.
  bool reset_optimal_v(ColumnSetting& s) const;

  /// Lower bound on the objective: every cell takes its cheaper value.
  double ideal_bound() const;

  /// The exact matrix this COP approximates (for seeding heuristics).
  const BooleanMatrix& exact_matrix() const { return exact_; }

 private:
  ColumnCop(const BooleanMatrix& exact, std::vector<double> base,
            std::vector<double> gain);

  /// gather() into this COP's storage.
  void regather(const CopSource& src, const CellPatterns& cells);

  /// Sets exact_sums() and, when it holds, sums the base total.
  void certify(bool exact);

  BooleanMatrix exact_;
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> base_;  // row-major r*c
  std::vector<double> gain_;  // row-major r*c
  bool exact_sums_ = false;
  double base_total_ = 0.0;  // sum of base_ when exact_sums_
};

}  // namespace adsd
