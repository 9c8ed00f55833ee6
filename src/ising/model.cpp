#include "ising/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/log.hpp"

namespace adsd {

namespace {

// Dense fast-path materialization gates (DESIGN.md §4.6). The threshold is
// the measured single-thread crossover of the dense vs the same-ISA CSR
// force kernels (random models, n in {64, 256, 768}, R in {8, 32}, AVX-512
// tier): because the batched kernels amortize each index/weight load over R
// replica lanes, the CSR "gather" is nearly free and the dense kernel --
// which must stream the structural zeros to keep the per-lane accumulation
// order bit-exact -- only reaches parity at ~0.93-0.97 density and wins up
// to ~12% beyond it. The paper's column-COP instances (~0.45 dense at
// n = 16, ~0.52 at n = 9) therefore do NOT qualify, contrary to the initial
// hypothesis; only near-complete graphs do. The spin cap bounds the O(n^2)
// plane to 128 MiB (a graph that clears 0.95 density at that size carries a
// CSR image ~3x larger anyway).
constexpr double kDenseMinDensity = 0.95;
constexpr std::size_t kDenseMaxSpins = 4096;

}  // namespace

IsingModel::IsingModel(std::size_t num_spins) : n_(num_spins), h_(num_spins) {
  if (num_spins == 0) {
    throw std::invalid_argument("IsingModel: need at least one spin");
  }
}

// Biases are stored as value + 0.0: that maps -0.0 to +0.0 and leaves
// every other double unchanged, so no h-seeded force accumulator starts at
// -0.0 -- the premise of the +-0.0 argument that keeps the dense,
// row-block and pack kernels bit-identical to CSR (DESIGN.md §4.6).
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

void IsingModel::finalize() {
  if (finalized_) {
    return;
  }
  // Canonicalize to (min, max) pairs, sort, and merge duplicates.
  for (auto& t : triplets_) {
    if (t.i > t.j) {
      std::swap(t.i, t.j);
    }
  }
  std::sort(triplets_.begin(), triplets_.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.i != b.i ? a.i < b.i : a.j < b.j;
            });
  std::vector<Triplet> merged;
  merged.reserve(triplets_.size());
  for (const auto& t : triplets_) {
    if (!merged.empty() && merged.back().i == t.i && merged.back().j == t.j) {
      merged.back().value += t.value;
    } else {
      merged.push_back(t);
    }
  }
  merged.erase(std::remove_if(merged.begin(), merged.end(),
                              [](const Triplet& t) { return t.value == 0.0; }),
               merged.end());
  triplets_ = std::move(merged);

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
  finalized_ = true;

  // Dense fast-path plane. Stride padded to a multiple of 8 doubles keeps
  // every row 64-byte aligned; the padding columns stay exactly 0.0.
  dense_.clear();
  dense_stride_ = 0;
  if (n_ >= 2 && n_ <= kDenseMaxSpins && edge_density() >= kDenseMinDensity) {
    dense_stride_ = (n_ + 7) / 8 * 8;
    dense_.assign(n_ * dense_stride_, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t e = row_start_[i]; e < row_start_[i + 1]; ++e) {
        dense_[i * dense_stride_ + entries_[e].first] = entries_[e].second;
      }
    }
    ADSD_LOG_DEBUG("ising/model", "dense force plane materialized",
                   {"spins", n_}, {"density", edge_density()},
                   {"stride", dense_stride_});
  }
}

double IsingModel::edge_density() const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before edge_density()");
  }
  if (n_ < 2) {
    return 0.0;
  }
  // entries_ stores each unordered pair twice, matching the n * (n - 1)
  // ordered-pair denominator.
  return static_cast<double>(entries_.size()) /
         (static_cast<double>(n_) * static_cast<double>(n_ - 1));
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
