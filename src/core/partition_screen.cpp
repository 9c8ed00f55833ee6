#include "core/partition_screen.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "boolean/boolean_matrix.hpp"

namespace adsd {

PartitionScreener::PartitionScreener(const BitVec& output_bits,
                                     unsigned num_inputs)
    : bits_(output_bits), num_inputs_(num_inputs) {
  if (output_bits.size() != (std::uint64_t{1} << num_inputs)) {
    throw std::invalid_argument("PartitionScreener: table size mismatch");
  }
}

std::size_t PartitionScreener::multiplicity(const InputPartition& w) const {
  if (w.num_inputs() != num_inputs_) {
    throw std::invalid_argument("PartitionScreener: partition width");
  }
  // The input pattern of cell (i, j) is rows[i] | cols[j] (CellPatterns).
  // Column j is gathered straight into its packed words, then the columns
  // are sorted and their distinct runs counted. Per-thread scratch, reused.
  thread_local CellPatterns cells;
  thread_local std::vector<std::uint64_t> words;
  thread_local std::vector<std::uint32_t> order;
  cells.assign(w);
  const std::vector<std::uint64_t>& rows = cells.rows;
  const std::vector<std::uint64_t>& cols = cells.cols;
  const std::size_t r = rows.size();
  const std::size_t wpc = column_word_count(r);
  words.resize(cols.size() * wpc);
  const std::vector<std::uint64_t>& table = bits_.words();
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const std::uint64_t base = cols[j];
    for (std::size_t i0 = 0; i0 < r; i0 += 64) {
      const std::size_t live = std::min<std::size_t>(64, r - i0);
      std::uint64_t word = 0;
      for (std::size_t t = 0; t < live; ++t) {
        const std::uint64_t x = rows[i0 + t] | base;
        word |= ((table[x / 64] >> (x % 64)) & 1u) << t;
      }
      words[j * wpc + i0 / 64] = word;
    }
  }
  if (wpc == 1) {
    // One-word columns sort as packed keys; equal ones end up adjacent.
    std::sort(words.begin(), words.end());
    return static_cast<std::size_t>(
        std::unique(words.begin(), words.end()) - words.begin());
  }
  sort_column_words(words, wpc, order);
  std::size_t distinct = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::uint64_t* key = words.data() + order[k] * wpc;
    distinct += k == 0 || !std::equal(key, key + wpc,
                                      words.data() + order[k - 1] * wpc);
  }
  return distinct;
}

std::vector<InputPartition> PartitionScreener::screen(
    std::vector<InputPartition> candidates, std::size_t keep) const {
  if (keep >= candidates.size()) {
    return candidates;
  }
  // Candidates with one free set share a multiplicity, in any variable
  // order: reordering a set permutes the rows of every column alike, or
  // the columns, so the count of distinct columns stays. Each distinct
  // free set is counted once, at its first occurrence; every candidate's
  // width is still checked.
  std::vector<std::uint64_t> keys(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].num_inputs() != num_inputs_) {
      throw std::invalid_argument("PartitionScreener: partition width");
    }
    keys[i] = candidates[i].free_mask();
  }
  const std::vector<std::size_t> first = first_occurrences(keys);
  std::vector<std::size_t> mu(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    mu[i] = first[i] == i ? multiplicity(candidates[i]) : mu[first[i]];
  }
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return mu[a] < mu[b]; });
  std::vector<InputPartition> kept;
  kept.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    kept.push_back(std::move(candidates[order[i]]));
  }
  return kept;
}

}  // namespace adsd
