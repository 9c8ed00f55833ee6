#include "boolean/partition.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace adsd {

InputPartition::InputPartition(std::vector<unsigned> free_vars,
                               std::vector<unsigned> bound_vars)
    : free_vars_(std::move(free_vars)), bound_vars_(std::move(bound_vars)) {
  num_inputs_ = static_cast<unsigned>(free_vars_.size() + bound_vars_.size());
  if (free_vars_.empty() || bound_vars_.empty()) {
    throw std::invalid_argument(
        "InputPartition: both the free and bound set must be non-empty");
  }
  if (num_inputs_ > 63) {
    throw std::invalid_argument("InputPartition: too many inputs");
  }
  std::vector<bool> seen(num_inputs_, false);
  auto check = [&](const std::vector<unsigned>& vars) {
    for (unsigned v : vars) {
      if (v >= num_inputs_ || seen[v]) {
        throw std::invalid_argument(
            "InputPartition: sets must disjointly cover 0..n-1");
      }
      seen[v] = true;
    }
  };
  check(free_vars_);
  check(bound_vars_);
}

InputPartition InputPartition::trivial(unsigned num_inputs,
                                       unsigned free_size) {
  if (free_size == 0 || free_size >= num_inputs) {
    throw std::invalid_argument("InputPartition::trivial: bad free size");
  }
  std::vector<unsigned> a(free_size);
  std::vector<unsigned> b(num_inputs - free_size);
  for (unsigned i = 0; i < free_size; ++i) {
    a[i] = i;
  }
  for (unsigned i = free_size; i < num_inputs; ++i) {
    b[i - free_size] = i;
  }
  return InputPartition(std::move(a), std::move(b));
}

InputPartition InputPartition::random(unsigned num_inputs, unsigned free_size,
                                      Rng& rng) {
  if (free_size == 0 || free_size >= num_inputs) {
    throw std::invalid_argument("InputPartition::random: bad free size");
  }
  const auto perm = rng.permutation(num_inputs);
  std::vector<unsigned> a(perm.begin(), perm.begin() + free_size);
  std::vector<unsigned> b(perm.begin() + free_size, perm.end());
  // Canonicalize variable order within each set; only the membership
  // matters for decomposability, and sorted sets make partitions comparable.
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return InputPartition(std::move(a), std::move(b));
}

std::uint64_t InputPartition::row_of(std::uint64_t x) const {
  std::uint64_t row = 0;
  for (std::size_t i = 0; i < free_vars_.size(); ++i) {
    row |= ((x >> free_vars_[i]) & 1) << i;
  }
  return row;
}

std::uint64_t InputPartition::col_of(std::uint64_t x) const {
  std::uint64_t col = 0;
  for (std::size_t i = 0; i < bound_vars_.size(); ++i) {
    col |= ((x >> bound_vars_[i]) & 1) << i;
  }
  return col;
}

std::uint64_t InputPartition::input_of(std::uint64_t row,
                                       std::uint64_t col) const {
  std::uint64_t x = 0;
  for (std::size_t i = 0; i < free_vars_.size(); ++i) {
    x |= ((row >> i) & 1) << free_vars_[i];
  }
  for (std::size_t i = 0; i < bound_vars_.size(); ++i) {
    x |= ((col >> i) & 1) << bound_vars_[i];
  }
  return x;
}

void CellPatterns::assign(const std::vector<unsigned>& free_vars,
                          const std::vector<unsigned>& bound_vars,
                          std::uint64_t offset) {
  const auto deposit = [](const std::vector<unsigned>& vars,
                          std::uint64_t base, std::vector<std::uint64_t>& out) {
    out.resize(std::size_t{1} << vars.size());
    out[0] = base;
    for (std::size_t k = 0; k < vars.size(); ++k) {
      const std::size_t half = std::size_t{1} << k;
      for (std::size_t i = 0; i < half; ++i) {
        out[half + i] = out[i] | (std::uint64_t{1} << vars[k]);
      }
    }
  };
  deposit(free_vars, offset, rows);
  deposit(bound_vars, 0, cols);
}

PartitionIndexer::PartitionIndexer(const InputPartition& w)
    : bytes_((w.num_inputs() + 7) / 8),
      row_lut_(bytes_ * 256, 0),
      col_lut_(bytes_ * 256, 0) {
  // Table for byte b maps the byte's 256 values to their contribution to the
  // gathered index: destination bit i of the row (column) receives source
  // bit free_vars[i] (bound_vars[i]) of the pattern whenever that source bit
  // falls inside byte b.
  auto fill = [&](std::vector<std::uint64_t>& lut,
                  const std::vector<unsigned>& vars) {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      const std::size_t b = vars[i] / 8;
      const unsigned bit = vars[i] % 8;
      std::uint64_t* table = &lut[b * 256];
      for (std::size_t v = 0; v < 256; ++v) {
        table[v] |= ((v >> bit) & 1) << i;
      }
    }
  };
  fill(row_lut_, w.free_vars());
  fill(col_lut_, w.bound_vars());
}

std::string InputPartition::to_string() const {
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
  return os.str();
}

}  // namespace adsd
