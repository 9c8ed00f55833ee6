#include "boolean/decomposition.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace adsd {

namespace {

bool is_constant(const BitVec& bits, bool* value) {
  const std::size_t ones = bits.count();
  if (ones == 0) {
    *value = false;
    return true;
  }
  if (ones == bits.size()) {
    *value = true;
    return true;
  }
  return false;
}

}  // namespace

std::optional<RowSetting> check_row_decomposition(const BooleanMatrix& m) {
  RowSetting setting;
  setting.types.resize(m.rows());
  bool have_pattern = false;
  BitVec pattern;

  for (std::size_t i = 0; i < m.rows(); ++i) {
    BitVec row = m.row(i);
    bool constant = false;
    if (is_constant(row, &constant)) {
      setting.types[i] = constant ? RowType::kAllOne : RowType::kAllZero;
      continue;
    }
    if (!have_pattern) {
      pattern = std::move(row);
      have_pattern = true;
      setting.types[i] = RowType::kPattern;
      continue;
    }
    if (row == pattern) {
      setting.types[i] = RowType::kPattern;
    } else if (row == pattern.complement()) {
      setting.types[i] = RowType::kComplement;
    } else {
      return std::nullopt;
    }
  }

  setting.pattern = have_pattern ? std::move(pattern) : BitVec(m.cols());
  return setting;
}

std::optional<ColumnSetting> check_column_decomposition(
    const BooleanMatrix& m) {
  ColumnSetting setting;
  setting.t = BitVec(m.cols());
  bool have_first = false;
  bool have_second = false;

  for (std::size_t j = 0; j < m.cols(); ++j) {
    BitVec col = m.column(j);
    if (!have_first) {
      setting.v1 = std::move(col);
      have_first = true;
      continue;
    }
    if (col == setting.v1) {
      continue;
    }
    if (!have_second) {
      setting.v2 = std::move(col);
      have_second = true;
      setting.t.set(j, true);
      continue;
    }
    if (col == setting.v2) {
      setting.t.set(j, true);
    } else {
      return std::nullopt;
    }
  }

  if (!have_second) {
    setting.v2 = setting.v1;
  }
  return setting;
}

RowSetting to_row_setting(const ColumnSetting& cs) {
  if (cs.v1.size() != cs.v2.size()) {
    throw std::invalid_argument("to_row_setting: V1/V2 length mismatch");
  }
  RowSetting rs;
  rs.pattern = cs.t;
  rs.types.resize(cs.v1.size());
  for (std::size_t i = 0; i < cs.v1.size(); ++i) {
    const bool a = cs.v1.get(i);
    const bool b = cs.v2.get(i);
    if (!a && !b) {
      rs.types[i] = RowType::kAllZero;
    } else if (a && b) {
      rs.types[i] = RowType::kAllOne;
    } else if (!a && b) {
      // Row equals T itself (0 where T_j = 0, 1 where T_j = 1).
      rs.types[i] = RowType::kPattern;
    } else {
      rs.types[i] = RowType::kComplement;
    }
  }
  return rs;
}

ColumnSetting to_column_setting(const RowSetting& rs) {
  ColumnSetting cs;
  cs.t = rs.pattern;
  cs.v1 = BitVec(rs.types.size());
  cs.v2 = BitVec(rs.types.size());
  for (std::size_t i = 0; i < rs.types.size(); ++i) {
    switch (rs.types[i]) {
      case RowType::kAllZero:
        break;
      case RowType::kAllOne:
        cs.v1.set(i, true);
        cs.v2.set(i, true);
        break;
      case RowType::kPattern:
        cs.v2.set(i, true);
        break;
      case RowType::kComplement:
        cs.v1.set(i, true);
        break;
    }
  }
  return cs;
}

BooleanMatrix realize(const ColumnSetting& cs) {
  BooleanMatrix m(cs.v1.size(), cs.t.size());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      m.set(i, j, cs.value(i, j));
    }
  }
  return m;
}

BooleanMatrix realize(const RowSetting& rs) {
  BooleanMatrix m(rs.types.size(), rs.pattern.size());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      m.set(i, j, rs.value(i, j));
    }
  }
  return m;
}

BitVec compose_output(const ColumnSetting& cs, const InputPartition& w) {
  if (cs.v1.size() != w.num_rows() || cs.t.size() != w.num_cols()) {
    throw std::invalid_argument("compose_output: setting/partition mismatch");
  }
  const std::uint64_t patterns = std::uint64_t{1} << w.num_inputs();
  BitVec out(patterns);
  for (std::uint64_t x = 0; x < patterns; ++x) {
    out.set(x, cs.value(w.row_of(x), w.col_of(x)));
  }
  return out;
}

std::uint64_t mismatch_count(const BooleanMatrix& m, const ColumnSetting& cs) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      c += m.at(i, j) != cs.value(i, j);
    }
  }
  return c;
}

std::uint64_t mismatch_count(const BooleanMatrix& m, const RowSetting& rs) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      c += m.at(i, j) != rs.value(i, j);
    }
  }
  return c;
}

namespace {

/// Positions of the longest and second-longest runs of a sorted sequence
/// of n columns, scanned in ascending order: a strictly longer run
/// displaces the leader, so ties go to the smaller column, for the first
/// and the second alike. `same(a, b)` compares sorted positions a and b;
/// an absent second run reads n.
template <class Same>
std::pair<std::size_t, std::size_t> top_two_runs(std::size_t n, Same same) {
  std::size_t first = n;
  std::size_t second = n;
  std::size_t first_count = 0;
  std::size_t second_count = 0;
  for (std::size_t a = 0; a < n;) {
    std::size_t b = a + 1;
    while (b < n && same(a, b)) {
      ++b;
    }
    const std::size_t count = b - a;
    if (count > first_count) {
      second = first;
      second_count = first_count;
      first = a;
      first_count = count;
    } else if (count > second_count) {
      second = a;
      second_count = count;
    }
    a = b;
  }
  return {first, second};
}

/// Dominant pair of columns packed W words each (W = column_word_count),
/// sorted as packed keys: std::array compares word 0 first, as
/// BitVec::operator< does on same-size vectors, so the keys sort into the
/// order the index sort of sort_column_words produces. Per-thread scratch.
template <std::size_t W>
std::pair<BitVec, BitVec> dominant_pair_of_keys(
    const std::vector<std::uint64_t>& words, std::size_t rows) {
  using Key = std::array<std::uint64_t, W>;
  thread_local std::vector<Key> keys;
  keys.resize(words.size() / W);
  for (std::size_t j = 0; j < keys.size(); ++j) {
    for (std::size_t w = 0; w < W; ++w) {
      keys[j][w] = words[j * W + w];
    }
  }
  std::sort(keys.begin(), keys.end());
  const auto [first, second] =
      top_two_runs(keys.size(), [](std::size_t a, std::size_t b) {
        return keys[a] == keys[b];
      });
  const auto column = [rows](const Key& key) {
    BitVec out(rows);
    for (std::size_t w = 0; w < W; ++w) {
      out.set_word(w, key[w]);
    }
    return out;
  };
  BitVec top = column(keys[first]);
  BitVec runner_up =
      second != keys.size() ? column(keys[second]) : top.complement();
  return {std::move(top), std::move(runner_up)};
}

}  // namespace

std::pair<BitVec, BitVec> dominant_column_pair(const BooleanMatrix& m) {
  // Columns packed into words; equal columns form runs once sorted. Up to
  // 128 rows the packed words themselves are sorted, past that an index
  // array under a lexicographic comparator. Per-thread scratch, reused.
  thread_local std::vector<std::uint64_t> words;
  thread_local std::vector<std::uint32_t> order;
  m.column_words(words);
  const std::size_t wpc = column_word_count(m.rows());
  if (wpc == 1) {
    return dominant_pair_of_keys<1>(words, m.rows());
  }
  if (wpc == 2) {
    return dominant_pair_of_keys<2>(words, m.rows());
  }
  sort_column_words(words, wpc, order);
  const auto key = [&](std::size_t a) { return words.data() + order[a] * wpc; };
  const auto [first, second] =
      top_two_runs(order.size(), [&](std::size_t a, std::size_t b) {
        return std::equal(key(a), key(a) + wpc, key(b));
      });
  BitVec top = m.column(order[first]);
  BitVec runner_up =
      second != order.size() ? m.column(order[second]) : top.complement();
  return {std::move(top), std::move(runner_up)};
}

BitVec random_decomposable_output(const InputPartition& w, Rng& rng) {
  ColumnSetting cs;
  cs.v1 = BitVec(w.num_rows());
  cs.v2 = BitVec(w.num_rows());
  cs.t = BitVec(w.num_cols());
  for (std::size_t i = 0; i < cs.v1.size(); ++i) {
    cs.v1.set(i, rng.next_bool());
    cs.v2.set(i, rng.next_bool());
  }
  for (std::size_t j = 0; j < cs.t.size(); ++j) {
    cs.t.set(j, rng.next_bool());
  }
  return compose_output(cs, w);
}

}  // namespace adsd
