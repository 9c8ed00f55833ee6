#include "ising/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adsd {

IsingModel::IsingModel(std::size_t num_spins) : n_(num_spins), h_(num_spins) {
  if (num_spins == 0) {
    throw std::invalid_argument("IsingModel: need at least one spin");
  }
}

// Biases are stored as value + 0.0: that maps -0.0 to +0.0 and leaves
// every other double unchanged, so no h-seeded force accumulator starts at
// -0.0 -- the premise of the +-0.0 argument that keeps the bipartite and
// pack kernels bit-identical to CSR (DESIGN.md §4.6).
void IsingModel::set_bias(std::size_t i, double h) {
  h_.at(i) = h + 0.0;
}

void IsingModel::add_bias(std::size_t i, double dh) {
  h_.at(i) = (h_.at(i) + dh) + 0.0;
}

void IsingModel::add_coupling(std::size_t i, std::size_t j, double j_value) {
  if (i >= n_ || j >= n_) {
    throw std::out_of_range("IsingModel::add_coupling: spin out of range");
  }
  if (i == j) {
    throw std::invalid_argument("IsingModel::add_coupling: self coupling");
  }
  if (j_value == 0.0) {
    return;
  }
  triplets_.push_back({static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j), j_value});
  finalized_ = false;
}

void IsingModel::declare_bipartite(BipartiteShape shape) {
  if (shape.rows == 0 || shape.cols == 0 ||
      2 * shape.rows + shape.cols != n_) {
    throw std::invalid_argument(
        "IsingModel::declare_bipartite: shape does not match the spin count");
  }
  shape_ = shape;
  finalized_ = false;
}

void IsingModel::finalize() {
  if (finalized_) {
    return;
  }
  // Triplets that arrive canonical (i < j) and strictly ascending are
  // already merged, and add_coupling() never stores a zero, so only other
  // inputs need the canonicalize / sort / merge / zero-filter pass.
  const auto before = [](const Triplet& a, const Triplet& b) {
    return a.i != b.i ? a.i < b.i : a.j < b.j;
  };
  bool merged_already = true;
  for (std::size_t k = 0; k < triplets_.size() && merged_already; ++k) {
    merged_already = triplets_[k].i < triplets_[k].j &&
                     (k == 0 || before(triplets_[k - 1], triplets_[k]));
  }
  if (!merged_already) {
    for (auto& t : triplets_) {
      if (t.i > t.j) {
        std::swap(t.i, t.j);
      }
    }
    std::sort(triplets_.begin(), triplets_.end(), before);
    std::vector<Triplet> merged;
    merged.reserve(triplets_.size());
    for (const auto& t : triplets_) {
      if (!merged.empty() && merged.back().i == t.i &&
          merged.back().j == t.j) {
        merged.back().value += t.value;
      } else {
        merged.push_back(t);
      }
    }
    merged.erase(
        std::remove_if(merged.begin(), merged.end(),
                       [](const Triplet& t) { return t.value == 0.0; }),
        merged.end());
    triplets_ = std::move(merged);
  }

  // Build CSR with each edge stored in both rows.
  std::vector<std::size_t> degree(n_, 0);
  for (const auto& t : triplets_) {
    ++degree[t.i];
    ++degree[t.j];
  }
  row_start_.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    row_start_[i + 1] = row_start_[i] + degree[i];
  }
  entries_.assign(row_start_[n_], {0, 0.0});
  std::vector<std::size_t> cursor(row_start_.begin(), row_start_.end() - 1);
  for (const auto& t : triplets_) {
    entries_[cursor[t.i]++] = {t.j, t.value};
    entries_[cursor[t.j]++] = {t.i, t.value};
  }
  if (shape_) {
    check_bipartite();
  }
  finalized_ = true;
}

void IsingModel::check_bipartite() const {
  // V1 row i and V2 row i must list the same T columns with negated
  // weights. Each V-T edge then sits once in a V row and once in a T row,
  // so the entries outside V rows number exactly those inside them unless
  // some T spins couple to each other.
  const std::size_t r = shape_->rows;
  std::size_t v_entries = 0;
  bool ok = true;
  for (std::size_t i = 0; i < r && ok; ++i) {
    const std::size_t a = row_start_[i];
    const std::size_t b = row_start_[r + i];
    const std::size_t degree = row_start_[i + 1] - a;
    ok = row_start_[r + i + 1] - b == degree;
    for (std::size_t k = 0; k < degree && ok; ++k) {
      ok = entries_[a + k].first >= 2 * r &&
           entries_[b + k].first == entries_[a + k].first &&
           entries_[b + k].second == -entries_[a + k].second;
    }
    v_entries += 2 * degree;
  }
  if (!ok || entries_.size() != 2 * v_entries) {
    throw std::invalid_argument(
        "IsingModel::finalize: couplings contradict the declared bipartite "
        "shape");
  }
}

std::size_t IsingModel::num_couplings() const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before num_couplings()");
  }
  return entries_.size() / 2;
}

double IsingModel::energy(std::span<const std::int8_t> spins) const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before energy()");
  }
  if (spins.size() != n_) {
    throw std::invalid_argument("IsingModel::energy: spin count mismatch");
  }
  double linear = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    linear += h_[i] * spins[i];
  }
  double quad = 0.0;
  for (const auto& t : triplets_) {
    quad += t.value * spins[t.i] * spins[t.j];
  }
  // Each unordered pair appears once in triplets_, so the 1/2 in Eq. (1)
  // against the double-counted symmetric sum is already accounted for.
  return -linear - quad + constant_;
}

void IsingModel::local_fields(std::span<const double> x,
                              std::span<double> out) const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before local_fields()");
  }
  for (std::size_t i = 0; i < n_; ++i) {
    double f = h_[i];
    for (std::size_t e = row_start_[i]; e < row_start_[i + 1]; ++e) {
      f += entries_[e].second * x[entries_[e].first];
    }
    out[i] = f;
  }
}

void IsingModel::local_fields_signed(std::span<const double> x,
                                     std::span<double> out) const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before local_fields()");
  }
  for (std::size_t i = 0; i < n_; ++i) {
    double f = h_[i];
    for (std::size_t e = row_start_[i]; e < row_start_[i + 1]; ++e) {
      const double s = x[entries_[e].first] >= 0.0 ? 1.0 : -1.0;
      f += entries_[e].second * s;
    }
    out[i] = f;
  }
}

double IsingModel::flip_delta(std::span<const std::int8_t> spins,
                              std::size_t i) const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before flip_delta()");
  }
  double field = h_[i];
  for (std::size_t e = row_start_[i]; e < row_start_[i + 1]; ++e) {
    field += entries_[e].second * spins[entries_[e].first];
  }
  return 2.0 * spins[i] * field;
}

double IsingModel::coupling_rms() const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before coupling_rms()");
  }
  if (triplets_.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (const auto& t : triplets_) {
    s += t.value * t.value;
  }
  return std::sqrt(s / static_cast<double>(triplets_.size()));
}

std::span<const std::pair<std::uint32_t, double>> IsingModel::neighbors(
    std::size_t i) const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before neighbors()");
  }
  return {entries_.data() + row_start_[i], row_start_[i + 1] - row_start_[i]};
}

}  // namespace adsd
