#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "boolean/boolean_matrix.hpp"
#include "boolean/decomposition.hpp"
#include "boolean/truth_table.hpp"
#include "support/rng.hpp"

namespace adsd {

/// A *non-disjoint* partition of the n inputs: free set A', bound set B',
/// and a shared set S copied into both sides, so the decomposition is
/// g(X) = F(phi(B' u S), A' u S). This is the generalization the BA
/// framework (DATE'23, the paper's ref. [10]) adds on top of DALTA; it
/// buys accuracy at the cost of a larger F-LUT (the shared bits address
/// both tables).
///
/// Equivalent slice view: for each assignment of S, the cofactor of g is an
/// ordinary Boolean matrix over (A', B'), and g decomposes exactly iff
/// *every* slice satisfies Theorem 2; approximation solves one column-based
/// core COP per slice.
class NonDisjointPartition {
 public:
  NonDisjointPartition(std::vector<unsigned> free_vars,
                       std::vector<unsigned> bound_vars,
                       std::vector<unsigned> shared_vars);

  /// Random partition with the given sizes (free + bound + shared = n).
  static NonDisjointPartition random(unsigned num_inputs, unsigned free_size,
                                     unsigned shared_size, Rng& rng);

  unsigned num_inputs() const { return num_inputs_; }
  const std::vector<unsigned>& free_vars() const { return free_vars_; }
  const std::vector<unsigned>& bound_vars() const { return bound_vars_; }
  const std::vector<unsigned>& shared_vars() const { return shared_vars_; }

  std::uint64_t num_rows() const { return std::uint64_t{1} << free_vars_.size(); }
  std::uint64_t num_cols() const { return std::uint64_t{1} << bound_vars_.size(); }
  std::uint64_t num_slices() const {
    return std::uint64_t{1} << shared_vars_.size();
  }

  /// The free and shared sets as integers (variable_mask): together they
  /// name the split, whatever the listed orders.
  std::uint64_t free_mask() const { return variable_mask(free_vars_); }
  std::uint64_t shared_mask() const { return variable_mask(shared_vars_); }

  std::uint64_t row_of(std::uint64_t x) const;
  std::uint64_t col_of(std::uint64_t x) const;
  std::uint64_t slice_of(std::uint64_t x) const;
  std::uint64_t input_of(std::uint64_t slice, std::uint64_t row,
                         std::uint64_t col) const;

  /// Storage of the decomposed implementation:
  /// phi-LUT 2^(|B'|+|S|) bits + F-LUT 2^(|A'|+|S|+1) bits.
  std::uint64_t phi_lut_bits() const {
    return std::uint64_t{1} << (bound_vars_.size() + shared_vars_.size());
  }
  std::uint64_t f_lut_bits() const {
    return std::uint64_t{1} << (free_vars_.size() + shared_vars_.size() + 1);
  }

  std::string to_string() const;

 private:
  unsigned num_inputs_;
  std::vector<unsigned> free_vars_;
  std::vector<unsigned> bound_vars_;
  std::vector<unsigned> shared_vars_;
};

/// Per-slice column settings: settings[slice] describes the cofactor of
/// that shared assignment.
struct NonDisjointSetting {
  std::vector<ColumnSetting> slices;

  bool value(std::uint64_t slice, std::size_t i, std::size_t j) const {
    return slices[slice].value(i, j);
  }
};

/// The Boolean matrix of output k restricted to one shared assignment.
BooleanMatrix slice_matrix(const TruthTable& tt, unsigned k,
                           const NonDisjointPartition& w,
                           std::uint64_t slice);

/// The cell patterns of that slice's matrix: the (free, bound) cells with
/// the slice's shared bits ORed into every row pattern, so cell (i, j)
/// reads input pattern w.input_of(slice, i, j). Reuses `out`'s storage.
void slice_cells(const NonDisjointPartition& w, std::uint64_t slice,
                 CellPatterns& out);

/// Exact non-disjoint decomposition check: Theorem 2 per slice. Returns the
/// witness when every slice passes.
std::optional<NonDisjointSetting> check_nondisjoint_decomposition(
    const TruthTable& tt, unsigned k, const NonDisjointPartition& w);

/// Truth-table column realized by a non-disjoint setting.
BitVec compose_output(const NonDisjointSetting& s,
                      const NonDisjointPartition& w);

}  // namespace adsd
