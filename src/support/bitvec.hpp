#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace adsd {

/// Packed vector of bits with word-level helpers.
///
/// Used throughout the library for truth-table columns, decomposition
/// patterns (V1/V2/T), and LUT contents. All indices are checked in debug
/// builds via assert; release builds trust the caller (hot loops).
class BitVec {
 public:
  BitVec() = default;

  /// Creates a vector of `n` bits, all set to `value`.
  explicit BitVec(std::size_t n, bool value = false);

  /// Builds from a string of '0'/'1' characters, index 0 first.
  /// Throws std::invalid_argument on any other character.
  static BitVec from_string(const std::string& s);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i, bool v) {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (v) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }
  void flip(std::size_t i) { words_[i >> 6] ^= std::uint64_t{1} << (i & 63); }

  /// Sets every bit to `v`.
  void fill(bool v);

  /// Number of set bits.
  std::size_t count() const;

  /// Number of positions where `*this` and `other` differ.
  /// Precondition: same size.
  std::size_t hamming_distance(const BitVec& other) const;

  /// Bitwise complement of all `size()` bits.
  BitVec complement() const;

  /// Appends one bit.
  void push_back(bool v);

  /// Resizes; new bits are zero.
  void resize(std::size_t n);

  bool operator==(const BitVec& other) const;
  bool operator!=(const BitVec& other) const { return !(*this == other); }

  /// Shorter vectors first; equal sizes compare words() lexicographically
  /// as unsigned integers, word 0 first (so within a word the highest
  /// index is most significant). Provided so BitVec can key
  /// std::map/std::set.
  bool operator<(const BitVec& other) const;

  /// '0'/'1' string, index 0 first.
  std::string to_string() const;

  /// Word-level access (low 64 bits of the tail word beyond size() are zero).
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Overwrites word w (bits [64w, 64w + 64)) in one store. The caller
  /// keeps the tail word's bits beyond size() zero.
  void set_word(std::size_t w, std::uint64_t value) { words_[w] = value; }

  /// The words for a pass that writes them through a raw pointer (the
  /// kernel tiers); the caller keeps the tail word's bits beyond size()
  /// zero.
  std::uint64_t* word_data() { return words_.data(); }

  /// FNV-1a hash of the content, for unordered containers.
  std::size_t hash() const;

 private:
  void clear_tail();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

struct BitVecHash {
  std::size_t operator()(const BitVec& b) const { return b.hash(); }
};

}  // namespace adsd
