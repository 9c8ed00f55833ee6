#include "ising/model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace adsd {

namespace {

/// The scan behind IsingModel::exact_arithmetic(), four lanes wide: per
/// lane the sum of magnitudes and the smallest grid step 2^L that holds
/// every nonzero coefficient, its lowest set bit. That bit is found on the
/// bit fields: clearing the lowest set mantissa bit and subtracting gives
/// its weight exactly; a power of two (no mantissa bit set) is its own
/// weight. An inf or NaN makes the sum inf or NaN, which fails the bound.
struct GridScan {
  static constexpr std::uint64_t kAbs = ~(std::uint64_t{1} << 63);
  static constexpr std::uint64_t kFrac = (std::uint64_t{1} << 52) - 1;
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  double total[4] = {};
  double step[4] = {kInf, kInf, kInf, kInf};

  /// Folds |v| into lane q.
  void add(double v, std::size_t q) {
    const std::uint64_t u = std::bit_cast<std::uint64_t>(v) & kAbs;
    const double a = std::bit_cast<double>(u);
    const double low =
        (u & kFrac) != 0 ? a - std::bit_cast<double>(u & (u - 1)) : a;
    total[q] += a;
    step[q] = std::min(step[q], u != 0 ? low : kInf);
  }

  void add_all(std::span<const double> values) {
    const std::size_t n = values.size();
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      for (std::size_t q = 0; q < 4; ++q) {
        add(values[k + q], q);
      }
    }
    for (; k < n; ++k) {
      add(values[k], k - (n & ~std::size_t{3}));
    }
  }

  /// Folds in a scan whose magnitudes count `times` (1, or 2 for plane
  /// entries, each two coupled pairs; doubling is exact).
  void merge(const GridScan& other, double times) {
    for (std::size_t q = 0; q < 4; ++q) {
      total[q] += times * other.total[q];
      step[q] = std::min(step[q], other.step[q]);
    }
  }

  /// The sum of magnitudes, as summed, is at most the bound exactly when
  /// the true sum is: below the bound every partial sum is a grid multiple
  /// within 2^(53+L), so none rounds, and the first partial sum past it is
  /// still exact (or rounds up), and no later one is smaller.
  bool exact() const {
    const double sum = (total[0] + total[1]) + (total[2] + total[3]);
    const double grid =
        std::min(std::min(step[0], step[1]), std::min(step[2], step[3]));
    // 2^(52+L), capped at 2^1022 so that a doubled field stays finite (an
    // all-zero scan has an infinite step and passes with a zero sum).
    return sum <= std::min(grid * 0x1p52, 0x1p1022);
  }
};

}  // namespace

IsingModel::IsingModel(std::size_t num_spins) : n_(num_spins), h_(num_spins) {
  if (num_spins == 0) {
    throw std::invalid_argument("IsingModel: need at least one spin");
  }
}

IsingModel IsingModel::bipartite(BipartiteShape shape,
                                 std::vector<double> plane) {
  if (shape.rows == 0 || shape.cols == 0 ||
      plane.size() != shape.rows * shape.cols) {
    throw std::invalid_argument(
        "IsingModel::bipartite: plane does not match the shape");
  }
  IsingModel m(2 * shape.rows + shape.cols);
  m.shape_ = shape;
  m.plane_nonzeros_ = static_cast<std::size_t>(std::count_if(
      plane.begin(), plane.end(), [](double w) { return w != 0.0; }));
  m.plane_ = std::move(plane);
  m.finalized_ = true;
  return m;
}

// Biases are stored as value + 0.0: that maps -0.0 to +0.0 and leaves
// every other double unchanged, so no h-seeded force accumulator starts at
// -0.0 -- the premise of the +-0.0 argument that keeps the bipartite
// kernels bit-identical to CSR (DESIGN.md §4.6).
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
  if (shape_) {
    throw std::logic_error(
        "IsingModel::add_coupling: a column-COP model holds its plane");
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
  for (auto& t : triplets_) {
    if (t.i > t.j) {
      std::swap(t.i, t.j);
    }
  }
  const auto before = [](const Triplet& a, const Triplet& b) {
    return a.i != b.i ? a.i < b.i : a.j < b.j;
  };
  std::sort(triplets_.begin(), triplets_.end(), before);
  std::vector<Triplet> merged;
  merged.reserve(triplets_.size());
  for (const auto& t : triplets_) {
    if (!merged.empty() && merged.back().i == t.i && merged.back().j == t.j) {
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

  // Build CSR with each edge stored in both rows.
  auto csr = std::make_unique<Csr>();
  std::vector<std::size_t> degree(n_, 0);
  for (const auto& t : triplets_) {
    ++degree[t.i];
    ++degree[t.j];
  }
  csr->row_start.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    csr->row_start[i + 1] = csr->row_start[i] + degree[i];
  }
  csr->entries.assign(csr->row_start[n_], {0, 0.0});
  std::vector<std::size_t> cursor(csr->row_start.begin(),
                                  csr->row_start.end() - 1);
  for (const auto& t : triplets_) {
    csr->entries[cursor[t.i]++] = {t.j, t.value};
    csr->entries[cursor[t.j]++] = {t.i, t.value};
  }
  csr_.reset(csr.release());
  finalized_ = true;
}

IsingModel::Csr IsingModel::plane_csr() const {
  // The layout finalize() builds from the canonical triplets: every V1
  // coupling (i ascending, then j), then every V2 coupling. A V row lists
  // its T columns ascending; a T row lists its V1 neighbours, then its V2
  // neighbours, each ascending. Zero entries are no coupling.
  const std::size_t r = shape_->rows;
  const std::size_t c = shape_->cols;
  Csr csr;
  std::vector<std::size_t> degree(n_, 0);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      if (plane_[i * c + j] != 0.0) {
        ++degree[i];
        ++degree[r + i];
        degree[2 * r + j] += 2;
      }
    }
  }
  csr.row_start.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    csr.row_start[i + 1] = csr.row_start[i] + degree[i];
  }
  csr.entries.resize(csr.row_start[n_]);
  std::vector<std::size_t> cursor(csr.row_start.begin(),
                                  csr.row_start.end() - 1);
  for (const double sign : {1.0, -1.0}) {
    const std::size_t v0 = sign > 0.0 ? 0 : r;
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        const double w = plane_[i * c + j];
        if (w != 0.0) {
          const double value = sign > 0.0 ? w : -w;
          const auto t = static_cast<std::uint32_t>(2 * r + j);
          csr.entries[cursor[v0 + i]++] = {t, value};
          csr.entries[cursor[t]++] = {static_cast<std::uint32_t>(v0 + i),
                                      value};
        }
      }
    }
  }
  return csr;
}

const IsingModel::Csr& IsingModel::csr() const {
  if (const Csr* built = csr_.get()) {
    return *built;
  }
  // Only a bipartite() model reaches here (a finalized general model
  // always holds its CSR). Derivation is rare -- SA, DOCH's rho rule,
  // explicit kernel requests -- so one process-wide lock suffices.
  static std::mutex derive_mutex;
  const std::lock_guard<std::mutex> lock(derive_mutex);
  if (const Csr* built = csr_.get()) {
    return *built;
  }
  csr_.reset(new Csr(plane_csr()));
  return *csr_.get();
}

IsingModel::CsrCell::CsrCell(const CsrCell& other) {
  if (const Csr* csr = other.get()) {
    ptr_.store(new Csr(*csr), std::memory_order_release);
  }
}

IsingModel::CsrCell& IsingModel::CsrCell::operator=(const CsrCell& other) {
  if (this != &other) {
    const Csr* csr = other.get();
    reset(csr != nullptr ? new Csr(*csr) : nullptr);
  }
  return *this;
}

IsingModel::CsrCell::CsrCell(CsrCell&& other) noexcept {
  ptr_.store(other.ptr_.exchange(nullptr), std::memory_order_release);
}

IsingModel::CsrCell& IsingModel::CsrCell::operator=(CsrCell&& other) noexcept {
  if (this != &other) {
    reset(other.ptr_.exchange(nullptr));
  }
  return *this;
}

IsingModel::CsrCell::~CsrCell() { delete ptr_.load(); }

void IsingModel::CsrCell::reset(Csr* csr) {
  delete ptr_.exchange(csr, std::memory_order_acq_rel);
}

std::size_t IsingModel::num_couplings() const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before num_couplings()");
  }
  return shape_ ? 2 * plane_nonzeros_ : triplets_.size();
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
  // Each unordered pair is visited once, so the 1/2 in Eq. (1) against
  // the double-counted symmetric sum is already accounted for.
  double quad = 0.0;
  if (shape_) {
    // The triplet order of the same couplings: V1 row-major, then V2 with
    // -w. A zero entry adds +-0.0, which leaves quad unchanged: it starts
    // at +0.0 and a sum of finite doubles is -0.0 only when both addends
    // are.
    const std::size_t r = shape_->rows;
    const std::size_t c = shape_->cols;
    const std::int8_t* t = spins.data() + 2 * r;
    for (std::size_t i = 0; i < r; ++i) {
      const double* w = &plane_[i * c];
      for (std::size_t j = 0; j < c; ++j) {
        quad += w[j] * spins[i] * t[j];
      }
    }
    for (std::size_t i = 0; i < r; ++i) {
      const double* w = &plane_[i * c];
      for (std::size_t j = 0; j < c; ++j) {
        quad += -w[j] * spins[r + i] * t[j];
      }
    }
  } else {
    for (const auto& t : triplets_) {
      quad += t.value * spins[t.i] * spins[t.j];
    }
  }
  return -linear - quad + constant_;
}

bool IsingModel::exact_arithmetic() const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before exact_arithmetic()");
  }
  // With a -0.0 constant, energy() returns -0.0 where the spin terms sum
  // to -0.0, while a tracked sum that reaches zero by a flip is +0.0.
  if (constant_ == 0.0 && std::signbit(constant_)) {
    return false;
  }
  GridScan scan;
  scan.add(constant_, 0);
  scan.add_all(h_);
  if (shape_) {
    GridScan pairs;
    pairs.add_all(plane_);
    scan.merge(pairs, 2.0);
  } else {
    for (std::size_t k = 0; k < triplets_.size(); ++k) {
      scan.add(triplets_[k].value, k & 3);
    }
  }
  return scan.exact();
}

void IsingModel::local_fields(std::span<const double> x,
                              std::span<double> out) const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before local_fields()");
  }
  const Csr& g = csr();
  for (std::size_t i = 0; i < n_; ++i) {
    double f = h_[i];
    for (std::size_t e = g.row_start[i]; e < g.row_start[i + 1]; ++e) {
      f += g.entries[e].second * x[g.entries[e].first];
    }
    out[i] = f;
  }
}

void IsingModel::local_fields_signed(std::span<const double> x,
                                     std::span<double> out) const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before local_fields()");
  }
  const Csr& g = csr();
  for (std::size_t i = 0; i < n_; ++i) {
    double f = h_[i];
    for (std::size_t e = g.row_start[i]; e < g.row_start[i + 1]; ++e) {
      const double s = x[g.entries[e].first] >= 0.0 ? 1.0 : -1.0;
      f += g.entries[e].second * s;
    }
    out[i] = f;
  }
}

double IsingModel::flip_delta(std::span<const std::int8_t> spins,
                              std::size_t i) const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before flip_delta()");
  }
  const Csr& g = csr();
  double field = h_[i];
  for (std::size_t e = g.row_start[i]; e < g.row_start[i + 1]; ++e) {
    field += g.entries[e].second * spins[g.entries[e].first];
  }
  return 2.0 * spins[i] * field;
}

double IsingModel::coupling_rms() const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before coupling_rms()");
  }
  const std::size_t pairs = num_couplings();
  if (pairs == 0) {
    return 0.0;
  }
  double s = 0.0;
  if (shape_) {
    // The triplet order: every V1 coupling, then every V2 coupling, whose
    // (-w)^2 is w^2. A zero entry adds +0.0, which changes nothing.
    for (int pass = 0; pass < 2; ++pass) {
      for (const double w : plane_) {
        s += w * w;
      }
    }
  } else {
    for (const auto& t : triplets_) {
      s += t.value * t.value;
    }
  }
  return std::sqrt(s / static_cast<double>(pairs));
}

std::span<const std::pair<std::uint32_t, double>> IsingModel::neighbors(
    std::size_t i) const {
  if (!finalized_) {
    throw std::logic_error("IsingModel: finalize() before neighbors()");
  }
  const Csr& g = csr();
  return {g.entries.data() + g.row_start[i],
          g.row_start[i + 1] - g.row_start[i]};
}

}  // namespace adsd
