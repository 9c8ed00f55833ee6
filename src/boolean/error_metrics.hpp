#pragma once

#include <cstdint>
#include <vector>

#include "boolean/truth_table.hpp"
#include "support/bitvec.hpp"

namespace adsd {

/// Occurrence probabilities p_X of the input patterns.
///
/// The paper's metrics (ER, MED) weight each input pattern by its occurrence
/// probability; the experiments use the uniform distribution, but the solver
/// accepts arbitrary ones, so profile-driven distributions plug in directly.
class InputDistribution {
 public:
  /// Uniform distribution over 2^n patterns.
  static InputDistribution uniform(unsigned num_inputs);

  /// Normalizes arbitrary non-negative weights (size must be a power of
  /// two). Throws if all weights are zero, any is negative, NaN or
  /// infinite, or their total overflows.
  static InputDistribution from_weights(std::vector<double> weights);

  unsigned num_inputs() const { return num_inputs_; }
  std::uint64_t num_patterns() const { return std::uint64_t{1} << num_inputs_; }

  double prob(std::uint64_t x) const {
    return uniform_ ? uniform_prob_ : probs_[x];
  }
  bool is_uniform() const { return uniform_; }

  /// The 2^n per-pattern probabilities, for a pass that reads them through
  /// a raw pointer; nullptr when uniform.
  const double* prob_data() const {
    return uniform_ ? nullptr : probs_.data();
  }

 private:
  InputDistribution() = default;

  unsigned num_inputs_ = 0;
  bool uniform_ = true;
  double uniform_prob_ = 0.0;
  std::vector<double> probs_;
};

/// Error rate of a single-output approximation: probability that the
/// approximate bit differs from the exact one.
double error_rate(const BitVec& exact, const BitVec& approx,
                  const InputDistribution& dist);

/// Error rate of a multi-output approximation: probability that any output
/// bit differs.
double error_rate(const TruthTable& exact, const TruthTable& approx,
                  const InputDistribution& dist);

/// Mean error distance: E[ |Bin(G(X)) - Bin(Ghat(X))| ], Eq. (2).
double mean_error_distance(const TruthTable& exact, const TruthTable& approx,
                           const InputDistribution& dist);

/// Worst-case error distance: max over patterns of |Bin - Bin|.
std::uint64_t worst_case_error(const TruthTable& exact,
                               const TruthTable& approx);

/// Mean relative error distance: E[ |Bin - Bin| / max(1, Bin(G(X))) ].
double mean_relative_error(const TruthTable& exact, const TruthTable& approx,
                           const InputDistribution& dist);

}  // namespace adsd
