#pragma once

#include <vector>

#include "boolean/partition.hpp"
#include "support/bitvec.hpp"

namespace adsd {

/// Candidate-partition screener.
///
/// The DALTA framework samples P random partitions per output and pays a
/// full core-COP solve for each. The column multiplicity (number of
/// distinct bound-set cofactors) is a cheap proxy for how well a partition
/// can be approximated by two column patterns: multiplicity 2 means an
/// exact decomposition exists, and low multiplicity means the columns
/// cluster tightly. Screening generates `screen_factor * P` candidates,
/// ranks them by multiplicity, and keeps the best P -- trading a cheap
/// pass over the truth table for fewer wasted solver calls.
class PartitionScreener {
 public:
  /// Screens one output column (2^n bits).
  explicit PartitionScreener(const BitVec& output_bits, unsigned num_inputs);

  /// Column multiplicity of the screened output under `w`: by Theorem 2,
  /// the number of distinct columns of the output's Boolean matrix under
  /// `w`, counted from the truth table into packed column words that are
  /// sorted and run-counted (per-thread scratch, reused).
  std::size_t multiplicity(const InputPartition& w) const;

  /// Keeps the `keep` partitions of lowest multiplicity (stable order among
  /// ties, so results stay deterministic). Counts each distinct free set
  /// once: repeats and reorderings of one split share its multiplicity.
  std::vector<InputPartition> screen(std::vector<InputPartition> candidates,
                                     std::size_t keep) const;

 private:
  BitVec bits_;
  unsigned num_inputs_;
};

}  // namespace adsd
