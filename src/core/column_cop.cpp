#include "core/column_cop.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adsd {

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
  // ED = O + (1 - 2O) * Ohat  (Eq. 6/7): cost(Ohat=0) = O, cost(1) = 1 - O.
  std::vector<double> base(r * c);
  std::vector<double> gain(r * c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      const std::size_t idx = i * c + j;
      const double o = exact.at(i, j) ? 1.0 : 0.0;
      base[idx] = probs[idx] * o;
      gain[idx] = probs[idx] * (1.0 - 2.0 * o);
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
  // ED = |2^(k-1) Ohat + D|, linearized per the sign of D (Eqs. 12-15):
  //   -2^(k-1) <= D <= 0 : ED = (2^(k-1) + 2D) Ohat - D
  //   otherwise           : ED = 2^(k-1) sgn(D) Ohat + |D|.
  // Both branches are exact for Ohat in {0, 1}.
  std::vector<double> base(r * c);
  std::vector<double> gain(r * c);
  for (std::size_t idx = 0; idx < r * c; ++idx) {
    const double dij = d[idx];
    double q;
    double b;
    if (dij >= -bit_weight && dij <= 0.0) {
      q = bit_weight + 2.0 * dij;
      b = -dij;
    } else {
      const double sgn = dij > 0.0 ? 1.0 : -1.0;
      q = bit_weight * sgn;
      b = std::fabs(dij);
    }
    base[idx] = probs[idx] * b;
    gain[idx] = probs[idx] * q;
  }
  return ColumnCop(exact, std::move(base), std::move(gain));
}

double ColumnCop::objective(const ColumnSetting& s) const {
  if (s.v1.size() != rows_ || s.v2.size() != rows_ || s.t.size() != cols_) {
    throw std::invalid_argument("ColumnCop::objective: setting shape");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    const bool a = s.v1.get(i);
    const bool b = s.v2.get(i);
    for (std::size_t j = 0; j < cols_; ++j) {
      total += cell_cost(i, j, s.t.get(j) ? b : a);
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
  // J = -(pair coeff).
  IsingModel m(num_spins());
  m.declare_bipartite({rows_, cols_});
  // Every V1 coupling, then every V2 coupling: the triplets arrive in the
  // canonical ascending order finalize() would sort them into, so it
  // skips the sort and merge.
  double constant = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    double row_gain = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) {
      const std::size_t idx = i * cols_ + j;
      constant += base_[idx] + gain_[idx] / 2.0;
      row_gain += gain_[idx];
      const double quarter = gain_[idx] / 4.0;
      if (quarter != 0.0) {
        m.add_coupling(v1_spin(i), t_spin(j), quarter);
      }
    }
    m.set_bias(v1_spin(i), -row_gain / 4.0);
    m.set_bias(v2_spin(i), -row_gain / 4.0);
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      const double quarter = gain_[i * cols_ + j] / 4.0;
      if (quarter != 0.0) {
        m.add_coupling(v2_spin(i), t_spin(j), -quarter);
      }
    }
  }
  m.set_constant(constant);
  m.finalize();
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
  // sum_i gain_ij V1_i against sum_i gain_ij V2_i (Theorem 3).
  for (std::size_t j = 0; j < cols_; ++j) {
    double cost1 = 0.0;
    double cost2 = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) {
      const double g = gain_[i * cols_ + j];
      if (s.v1.get(i)) {
        cost1 += g;
      }
      if (s.v2.get(i)) {
        cost2 += g;
      }
    }
    s.t.set(j, cost2 < cost1);
  }
}

void ColumnCop::reset_optimal_t_planes(std::span<double> x,
                                       std::span<double> y,
                                       std::size_t replicas,
                                       std::vector<double>& cost_scratch,
                                       std::vector<std::uint8_t>* degenerate)
    const {
  const std::size_t R = replicas;
  if (x.size() != num_spins() * R || y.size() != x.size()) {
    throw std::invalid_argument("reset_optimal_t_planes: plane size");
  }
  // cost1[r * cols + j] / cost2[r * cols + j]: replica r's column-j cost
  // of pattern 1 / pattern 2.
  cost_scratch.assign(2 * cols_ * R, 0.0);
  double* cost1 = cost_scratch.data();
  double* cost2 = cost_scratch.data() + cols_ * R;

  // Degeneracy bookkeeping shares the plane sweeps: V1 == V2 folds over the
  // row loop once (independent of columns), pattern-2 counts fold over the
  // column loop as T is chosen.
  std::vector<std::uint8_t> v_equal;
  std::vector<std::uint32_t> t2_count;
  if (degenerate != nullptr) {
    v_equal.assign(R, 1);
    t2_count.assign(R, 0);
    for (std::size_t i = 0; i < rows_; ++i) {
      const double* x1 = &x[v1_spin(i) * R];
      const double* x2 = &x[v2_spin(i) * R];
      for (std::size_t r = 0; r < R; ++r) {
        v_equal[r] =
            static_cast<std::uint8_t>(v_equal[r] & ((x1[r] >= 0.0) ==
                                                    (x2[r] >= 0.0)));
      }
    }
  }

  // Same comparison as reset_optimal_t (base terms cancel; ties pick
  // pattern 1), with the row loop outermost: a row whose V1 (V2) sign is
  // set adds its whole gain row, one contiguous stream, into the replica's
  // pattern-1 (pattern-2) costs. Every (j, r) cost still sums its rows in
  // ascending i, and an unset sign adds nothing, as in reset_optimal_t.
  const auto add_row = [this](double* cost, const double* g) {
    for (std::size_t j = 0; j < cols_; ++j) {
      cost[j] += g[j];
    }
  };
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* g = &gain_[i * cols_];
    const double* x1 = &x[v1_spin(i) * R];
    const double* x2 = &x[v2_spin(i) * R];
    for (std::size_t r = 0; r < R; ++r) {
      if (x1[r] >= 0.0) {
        add_row(cost1 + r * cols_, g);
      }
      if (x2[r] >= 0.0) {
        add_row(cost2 + r * cols_, g);
      }
    }
  }
  for (std::size_t j = 0; j < cols_; ++j) {
    double* xt = &x[t_spin(j) * R];
    double* yt = &y[t_spin(j) * R];
    for (std::size_t r = 0; r < R; ++r) {
      const bool pattern2 = cost2[r * cols_ + j] < cost1[r * cols_ + j];
      xt[r] = pattern2 ? 1.0 : -1.0;
      yt[r] = 0.0;
      if (degenerate != nullptr) {
        t2_count[r] += pattern2 ? 1u : 0u;
      }
    }
  }

  if (degenerate != nullptr) {
    degenerate->assign(R, 0);
    for (std::size_t r = 0; r < R; ++r) {
      const bool collapsed =
          t2_count[r] == 0 || t2_count[r] == cols_ || v_equal[r] != 0;
      (*degenerate)[r] = collapsed ? 1 : 0;
    }
  }
}

void ColumnCop::reset_optimal_v(ColumnSetting& s) const {
  // Row i's V1 bit only affects columns with T_j = 0 and contributes
  // gain_ij per such column when set; choose 1 iff that sum is negative.
  for (std::size_t i = 0; i < rows_; ++i) {
    double sum1 = 0.0;
    double sum2 = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) {
      const double g = gain_[i * cols_ + j];
      if (s.t.get(j)) {
        sum2 += g;
      } else {
        sum1 += g;
      }
    }
    s.v1.set(i, sum1 < 0.0);
    s.v2.set(i, sum2 < 0.0);
  }
}

double ColumnCop::ideal_bound() const {
  double total = 0.0;
  for (std::size_t idx = 0; idx < base_.size(); ++idx) {
    total += base_[idx] + std::min(0.0, gain_[idx]);
  }
  return total;
}

}  // namespace adsd
