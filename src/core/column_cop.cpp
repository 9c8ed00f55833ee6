#include "core/column_cop.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/cop_passes.hpp"
#include "core/cop_passes_impl.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "support/cpu_features.hpp"

namespace adsd {

namespace {

using cop_passes_impl::joint_cell;
using cop_passes_impl::separate_cell;

/// The host's COP-pass tier, selected once.
const CopPasses& passes() {
  static const CopPasses p =
      select_cop_passes(kernels::ForceKernel::kAuto, cpu_features());
  return p;
}

/// The half-step operands on setting s of an r x c COP.
HalfStepPlanes half_step_planes(const std::vector<double>& gain,
                                std::size_t r, std::size_t c,
                                ColumnSetting& s) {
  HalfStepPlanes planes;
  planes.gain = gain.data();
  planes.v1 = s.v1.word_data();
  planes.v2 = s.v2.word_data();
  planes.t = s.t.word_data();
  planes.r = r;
  planes.c = c;
  return planes;
}

}  // namespace

std::vector<double> matrix_probs(const InputDistribution& dist,
                                 const InputPartition& w) {
  std::vector<double> p;
  matrix_probs_into(dist, w, PartitionIndexer(w), p);
  return p;
}

void matrix_probs_into(const InputDistribution& dist, const InputPartition& w,
                       const PartitionIndexer& idx, std::vector<double>& out) {
  if (dist.num_inputs() != w.num_inputs()) {
    throw std::invalid_argument("matrix_probs: shape mismatch");
  }
  const std::size_t r = w.num_rows();
  const std::size_t c = w.num_cols();
  out.assign(r * c, 0.0);
  if (dist.is_uniform()) {
    const double u = dist.prob(0);
    for (auto& v : out) {
      v = u;
    }
    return;
  }
  // One pass over the input patterns: each pattern owns exactly one cell.
  const std::uint64_t patterns = std::uint64_t{1} << w.num_inputs();
  for (std::uint64_t x = 0; x < patterns; ++x) {
    out[idx.row_of(x) * c + idx.col_of(x)] = dist.prob(x);
  }
}

ColumnCop::ColumnCop(const BooleanMatrix& exact, std::vector<double> base,
                     std::vector<double> gain)
    : exact_(exact),
      rows_(exact.rows()),
      cols_(exact.cols()),
      base_(std::move(base)),
      gain_(std::move(gain)) {}

ColumnCop ColumnCop::separate(const BooleanMatrix& exact,
                              const std::vector<double>& probs) {
  const std::size_t r = exact.rows();
  const std::size_t c = exact.cols();
  if (probs.size() != r * c) {
    throw std::invalid_argument("ColumnCop::separate: probs size mismatch");
  }
  std::vector<double> base(r * c);
  std::vector<double> gain(r * c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      const std::size_t idx = i * c + j;
      separate_cell(probs[idx], exact.at(i, j), base[idx], gain[idx]);
    }
  }
  return ColumnCop(exact, std::move(base), std::move(gain));
}

ColumnCop ColumnCop::joint(const BooleanMatrix& exact,
                           const std::vector<double>& probs,
                           const std::vector<double>& d, double bit_weight) {
  const std::size_t r = exact.rows();
  const std::size_t c = exact.cols();
  if (probs.size() != r * c || d.size() != r * c) {
    throw std::invalid_argument("ColumnCop::joint: coefficient size mismatch");
  }
  if (bit_weight <= 0.0) {
    throw std::invalid_argument("ColumnCop::joint: bad bit weight");
  }
  std::vector<double> base(r * c);
  std::vector<double> gain(r * c);
  for (std::size_t idx = 0; idx < r * c; ++idx) {
    joint_cell(probs[idx], d[idx], bit_weight, base[idx], gain[idx]);
  }
  return ColumnCop(exact, std::move(base), std::move(gain));
}

ColumnCop ColumnCop::gather(const CopSource& src, const CellPatterns& cells) {
  std::optional<ColumnCop> slot;
  gather_into(src, cells, slot);
  return std::move(*slot);
}

const ColumnCop& ColumnCop::gather_into(const CopSource& src,
                                        const CellPatterns& cells,
                                        std::optional<ColumnCop>& slot) {
  if (!slot) {
    slot.emplace(ColumnCop(BooleanMatrix(1, 1), {}, {}));
  }
  slot->regather(src, cells);
  return *slot;
}

void ColumnCop::regather(const CopSource& src, const CellPatterns& cells) {
  const std::uint64_t patterns = src.dist.num_patterns();
  if (src.output.size() != patterns) {
    throw std::invalid_argument("ColumnCop::gather: table size mismatch");
  }
  if (cells.rows.empty() || cells.cols.empty()) {
    throw std::invalid_argument("ColumnCop::gather: empty shape");
  }
  // Every cell pattern is a sub-mask of (OR of rows) | (OR of cols).
  std::uint64_t reach = 0;
  for (const std::uint64_t x : cells.rows) {
    reach |= x;
  }
  for (const std::uint64_t x : cells.cols) {
    reach |= x;
  }
  if (reach >= patterns) {
    throw std::invalid_argument("ColumnCop::gather: pattern out of range");
  }
  if (src.mode == DecompMode::kJoint) {
    if (src.d_by_input.size() != patterns) {
      throw std::invalid_argument("ColumnCop::gather: D size mismatch");
    }
    if (src.bit_weight <= 0.0) {
      throw std::invalid_argument("ColumnCop::gather: bad bit weight");
    }
  }
  rows_ = cells.rows.size();
  cols_ = cells.cols.size();
  base_.resize(rows_ * cols_);
  gain_.resize(rows_ * cols_);
  exact_.reshape(rows_, cols_);
  CopBuildPlanes planes;
  planes.output = src.output.words().data();
  planes.rows = cells.rows.data();
  planes.cols = cells.cols.data();
  planes.r = rows_;
  planes.c = cols_;
  planes.probs = src.dist.prob_data();
  planes.uniform_prob = src.dist.prob(0);
  planes.joint = src.mode == DecompMode::kJoint;
  planes.d = src.d_by_input.data();
  planes.bit_weight = src.bit_weight;
  planes.bits = exact_.word_data();
  planes.base = base_.data();
  planes.gain = gain_.data();
  passes().build(planes);
}

double ColumnCop::objective(const ColumnSetting& s) const {
  if (s.v1.size() != rows_ || s.v2.size() != rows_ || s.t.size() != cols_) {
    throw std::invalid_argument("ColumnCop::objective: setting shape");
  }
  // cell_cost() summed row-major, branch-free: a word of row i's Ohat bits
  // is T's word ANDed with V2_i, or'ed with its complement ANDed with V1_i,
  // and each cell adds base + (gain ANDed with its Ohat bit spread to all
  // 64 bits). A cleared gain is +0.0, the value cell_cost() adds too.
  const std::vector<std::uint64_t>& t = s.t.words();
  double total = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    const std::uint64_t on1 = s.v1.get(i) ? ~std::uint64_t{0} : 0;
    const std::uint64_t on2 = s.v2.get(i) ? ~std::uint64_t{0} : 0;
    const double* base = base_.data() + i * cols_;
    const double* gain = gain_.data() + i * cols_;
    for (std::size_t j0 = 0; j0 < cols_; j0 += 64) {
      const std::uint64_t tw = t[j0 >> 6];
      const std::uint64_t ohat = (tw & on2) | (~tw & on1);
      const std::size_t j_end = std::min(cols_, j0 + 64);
      for (std::size_t j = j0; j < j_end; ++j) {
        const std::uint64_t keep = 0 - ((ohat >> (j - j0)) & 1);
        total += base[j] + std::bit_cast<double>(
                               std::bit_cast<std::uint64_t>(gain[j]) & keep);
      }
    }
  }
  return total;
}

IsingModel ColumnCop::to_ising() const {
  // With Ohat = 1/2 + (v1 + v2 - t*v1 + t*v2)/4 in spin variables (Eq. 8),
  // the objective becomes
  //   sum(base + gain/2)
  //   + sum_i (sum_j gain/4) v1_i + sum_i (sum_j gain/4) v2_i
  //   - sum_ij gain/4 t_j v1_i + sum_ij gain/4 t_j v2_i.
  // Matching E = -sum h s - sum_{pairs} J s s gives h = -(linear coeff) and
  // J = -(pair coeff): the plane J(V1_i, T_j) = gain_ij / 4 = -J(V2_i, T_j).
  std::vector<double> plane(rows_ * cols_);
  double constant = 0.0;
  for (std::size_t idx = 0; idx < rows_ * cols_; ++idx) {
    constant += base_[idx] + gain_[idx] / 2.0;
    plane[idx] = gain_[idx] / 4.0;
  }
  IsingModel m = IsingModel::bipartite({rows_, cols_}, std::move(plane));
  for (std::size_t i = 0; i < rows_; ++i) {
    double row_gain = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) {
      row_gain += gain_[i * cols_ + j];
    }
    m.set_bias(v1_spin(i), -row_gain / 4.0);
    m.set_bias(v2_spin(i), -row_gain / 4.0);
  }
  m.set_constant(constant);
  return m;
}

ColumnSetting ColumnCop::decode(std::span<const std::int8_t> spins) const {
  if (spins.size() != num_spins()) {
    throw std::invalid_argument("ColumnCop::decode: spin count mismatch");
  }
  ColumnSetting s;
  s.v1 = BitVec(rows_);
  s.v2 = BitVec(rows_);
  s.t = BitVec(cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    s.v1.set(i, spins[v1_spin(i)] > 0);
    s.v2.set(i, spins[v2_spin(i)] > 0);
  }
  for (std::size_t j = 0; j < cols_; ++j) {
    s.t.set(j, spins[t_spin(j)] > 0);
  }
  return s;
}

std::vector<std::int8_t> ColumnCop::encode(const ColumnSetting& s) const {
  std::vector<std::int8_t> spins(num_spins());
  for (std::size_t i = 0; i < rows_; ++i) {
    spins[v1_spin(i)] = s.v1.get(i) ? 1 : -1;
    spins[v2_spin(i)] = s.v2.get(i) ? 1 : -1;
  }
  for (std::size_t j = 0; j < cols_; ++j) {
    spins[t_spin(j)] = s.t.get(j) ? 1 : -1;
  }
  return spins;
}

void ColumnCop::reset_optimal_t(ColumnSetting& s) const {
  // For column j the base terms cancel between the two choices, so compare
  // sum_i gain_ij V1_i against sum_i gain_ij V2_i (Theorem 3), column
  // chunks at the host's vector width.
  passes().reset_t(half_step_planes(gain_, rows_, cols_, s));
}

void ColumnCop::reset_optimal_t_planes(std::span<double> x,
                                       std::span<double> y,
                                       bool* degenerate) const {
  if (x.size() != num_spins() || y.size() != x.size()) {
    throw std::invalid_argument("reset_optimal_t_planes: plane size");
  }
  // Same comparison as reset_optimal_t (base terms cancel; ties pick
  // pattern 1), at the host's vector width: every column cost still sums
  // its rows in ascending i, and an unset sign adds nothing.
  static const kernels::Theorem3ResetFn reset =
      kernels::select_theorem3_reset(kernels::ForceKernel::kAuto,
                                     cpu_features());
  kernels::Theorem3Planes planes;
  planes.gain = gain_.data();
  planes.x = x.data();
  planes.y = y.data();
  planes.rows = rows_;
  planes.cols = cols_;
  planes.one_pattern = degenerate;
  reset(planes);
  if (degenerate == nullptr) {
    return;
  }
  // A reset whose columns all took one pattern is degenerate, and so is
  // one whose V1 and V2 signs agree on every row (the reset leaves the V
  // planes as they were).
  bool v_equal = true;
  for (std::size_t i = 0; i < rows_ && v_equal; ++i) {
    v_equal = (x[v1_spin(i)] >= 0.0) == (x[v2_spin(i)] >= 0.0);
  }
  *degenerate = *degenerate || v_equal;
}

bool ColumnCop::reset_optimal_v(ColumnSetting& s) const {
  // Row i's V1 bit only affects columns with T_j = 0 and contributes
  // gain_ij per such column when set; choose 1 iff that sum is negative
  // (V2 likewise over T_j = 1), blocks of rows at the host's vector width.
  return passes().reset_v(half_step_planes(gain_, rows_, cols_, s));
}

double ColumnCop::ideal_bound() const {
  double total = 0.0;
  for (std::size_t idx = 0; idx < base_.size(); ++idx) {
    total += base_[idx] + std::min(0.0, gain_[idx]);
  }
  return total;
}

}  // namespace adsd
