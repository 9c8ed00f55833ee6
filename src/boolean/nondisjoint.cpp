#include "boolean/nondisjoint.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace adsd {

NonDisjointPartition::NonDisjointPartition(std::vector<unsigned> free_vars,
                                           std::vector<unsigned> bound_vars,
                                           std::vector<unsigned> shared_vars)
    : free_vars_(std::move(free_vars)),
      bound_vars_(std::move(bound_vars)),
      shared_vars_(std::move(shared_vars)) {
  num_inputs_ = static_cast<unsigned>(free_vars_.size() + bound_vars_.size() +
                                      shared_vars_.size());
  if (free_vars_.empty() || bound_vars_.empty()) {
    throw std::invalid_argument(
        "NonDisjointPartition: free and bound sets must be non-empty");
  }
  if (num_inputs_ > 63) {
    throw std::invalid_argument("NonDisjointPartition: too many inputs");
  }
  std::vector<bool> seen(num_inputs_, false);
  auto check = [&](const std::vector<unsigned>& vars) {
    for (unsigned v : vars) {
      if (v >= num_inputs_ || seen[v]) {
        throw std::invalid_argument(
            "NonDisjointPartition: sets must disjointly cover 0..n-1");
      }
      seen[v] = true;
    }
  };
  check(free_vars_);
  check(bound_vars_);
  check(shared_vars_);
}

NonDisjointPartition NonDisjointPartition::random(unsigned num_inputs,
                                                  unsigned free_size,
                                                  unsigned shared_size,
                                                  Rng& rng) {
  if (free_size == 0 || free_size + shared_size >= num_inputs) {
    throw std::invalid_argument("NonDisjointPartition::random: bad sizes");
  }
  const auto perm = rng.permutation(num_inputs);
  std::vector<unsigned> a(perm.begin(), perm.begin() + free_size);
  std::vector<unsigned> s(perm.begin() + free_size,
                          perm.begin() + free_size + shared_size);
  std::vector<unsigned> b(perm.begin() + free_size + shared_size, perm.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::sort(s.begin(), s.end());
  return NonDisjointPartition(std::move(a), std::move(b), std::move(s));
}

std::uint64_t NonDisjointPartition::row_of(std::uint64_t x) const {
  std::uint64_t row = 0;
  for (std::size_t i = 0; i < free_vars_.size(); ++i) {
    row |= ((x >> free_vars_[i]) & 1) << i;
  }
  return row;
}

std::uint64_t NonDisjointPartition::col_of(std::uint64_t x) const {
  std::uint64_t col = 0;
  for (std::size_t i = 0; i < bound_vars_.size(); ++i) {
    col |= ((x >> bound_vars_[i]) & 1) << i;
  }
  return col;
}

std::uint64_t NonDisjointPartition::slice_of(std::uint64_t x) const {
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < shared_vars_.size(); ++i) {
    s |= ((x >> shared_vars_[i]) & 1) << i;
  }
  return s;
}

std::uint64_t NonDisjointPartition::input_of(std::uint64_t slice,
                                             std::uint64_t row,
                                             std::uint64_t col) const {
  std::uint64_t x = 0;
  for (std::size_t i = 0; i < free_vars_.size(); ++i) {
    x |= ((row >> i) & 1) << free_vars_[i];
  }
  for (std::size_t i = 0; i < bound_vars_.size(); ++i) {
    x |= ((col >> i) & 1) << bound_vars_[i];
  }
  for (std::size_t i = 0; i < shared_vars_.size(); ++i) {
    x |= ((slice >> i) & 1) << shared_vars_[i];
  }
  return x;
}

std::string NonDisjointPartition::to_string() const {
  std::ostringstream os;
  auto emit = [&](const char* name, const std::vector<unsigned>& vars) {
    os << name << "={";
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (i != 0) {
        os << ",";
      }
      os << "x" << vars[i];
    }
    os << "}";
  };
  emit("A", free_vars_);
  os << " ";
  emit("B", bound_vars_);
  os << " ";
  emit("S", shared_vars_);
  return os.str();
}

BooleanMatrix slice_matrix(const TruthTable& tt, unsigned k,
                           const NonDisjointPartition& w,
                           std::uint64_t slice) {
  if (w.num_inputs() != tt.num_inputs() || k >= tt.num_outputs() ||
      slice >= w.num_slices()) {
    throw std::invalid_argument("slice_matrix: shape mismatch");
  }
  BooleanMatrix m(w.num_rows(), w.num_cols());
  const BitVec& g = tt.output(k);
  for (std::uint64_t i = 0; i < w.num_rows(); ++i) {
    for (std::uint64_t j = 0; j < w.num_cols(); ++j) {
      m.set(i, j, g.get(w.input_of(slice, i, j)));
    }
  }
  return m;
}

void slice_cells(const NonDisjointPartition& w, std::uint64_t slice,
                 CellPatterns& out) {
  out.assign(w.free_vars(), w.bound_vars(), w.input_of(slice, 0, 0));
}

std::optional<NonDisjointSetting> check_nondisjoint_decomposition(
    const TruthTable& tt, unsigned k, const NonDisjointPartition& w) {
  NonDisjointSetting setting;
  setting.slices.reserve(w.num_slices());
  for (std::uint64_t s = 0; s < w.num_slices(); ++s) {
    auto cs = check_column_decomposition(slice_matrix(tt, k, w, s));
    if (!cs.has_value()) {
      return std::nullopt;
    }
    setting.slices.push_back(std::move(*cs));
  }
  return setting;
}

BitVec compose_output(const NonDisjointSetting& s,
                      const NonDisjointPartition& w) {
  if (s.slices.size() != w.num_slices()) {
    throw std::invalid_argument("compose_output: slice count mismatch");
  }
  const std::uint64_t patterns = std::uint64_t{1} << w.num_inputs();
  BitVec out(patterns);
  for (std::uint64_t x = 0; x < patterns; ++x) {
    out.set(x, s.value(w.slice_of(x), w.row_of(x), w.col_of(x)));
  }
  return out;
}

}  // namespace adsd
