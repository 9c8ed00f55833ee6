#include "boolean/table_io.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace adsd {

void write_pla(std::ostream& os, const TruthTable& tt) {
  os << ".i " << tt.num_inputs() << "\n.o " << tt.num_outputs() << "\n";
  for (std::uint64_t x = 0; x < tt.num_patterns(); ++x) {
    for (unsigned i = 0; i < tt.num_inputs(); ++i) {
      os << ((x >> i) & 1);
    }
    os << ' ';
    for (unsigned k = 0; k < tt.num_outputs(); ++k) {
      os << (tt.bit(k, x) ? '1' : '0');
    }
    os << '\n';
  }
  os << ".e\n";
}

TruthTable read_pla(std::istream& is) {
  unsigned n = 0;
  unsigned m = 0;
  std::string token;
  while (is >> token) {
    if (token == ".i") {
      is >> n;
    } else if (token == ".o") {
      is >> m;
      break;
    } else {
      throw std::invalid_argument("read_pla: expected .i/.o header");
    }
  }
  if (n == 0 || m == 0) {
    throw std::invalid_argument("read_pla: missing .i/.o header");
  }
  TruthTable tt(n, m);
  std::vector<bool> seen(tt.num_patterns(), false);
  std::string in_bits;
  std::string out_bits;
  std::uint64_t rows = 0;
  while (is >> in_bits) {
    if (in_bits == ".e") {
      break;
    }
    if (!(is >> out_bits) || in_bits.size() != n || out_bits.size() != m) {
      throw std::invalid_argument("read_pla: malformed row");
    }
    std::uint64_t x = 0;
    for (unsigned i = 0; i < n; ++i) {
      if (in_bits[i] == '1') {
        x |= std::uint64_t{1} << i;
      } else if (in_bits[i] != '0') {
        throw std::invalid_argument("read_pla: don't-cares not supported");
      }
    }
    if (seen[x]) {
      throw std::invalid_argument("read_pla: duplicate input pattern");
    }
    seen[x] = true;
    ++rows;
    for (unsigned k = 0; k < m; ++k) {
      if (out_bits[k] == '1') {
        tt.set_bit(k, x, true);
      } else if (out_bits[k] != '0') {
        throw std::invalid_argument("read_pla: bad output bit");
      }
    }
  }
  if (rows != tt.num_patterns()) {
    throw std::invalid_argument("read_pla: incomplete truth table");
  }
  return tt;
}

void write_hex(std::ostream& os, const TruthTable& tt) {
  os << ".tt " << tt.num_inputs() << ' ' << tt.num_outputs() << '\n';
  const std::uint64_t patterns = tt.num_patterns();
  const std::uint64_t nibbles = (patterns + 3) / 4;
  for (unsigned k = 0; k < tt.num_outputs(); ++k) {
    std::string line(nibbles, '0');
    for (std::uint64_t nib = 0; nib < nibbles; ++nib) {
      unsigned value = 0;
      for (unsigned b = 0; b < 4; ++b) {
        const std::uint64_t x = nib * 4 + b;
        if (x < patterns && tt.bit(k, x)) {
          value |= 1u << b;
        }
      }
      // Most significant nibble first in the text.
      line[nibbles - 1 - nib] = "0123456789abcdef"[value];
    }
    os << line << '\n';
  }
}

TruthTable read_hex(std::istream& is) {
  std::string tag;
  unsigned n = 0;
  unsigned m = 0;
  if (!(is >> tag >> n >> m) || tag != ".tt") {
    throw std::invalid_argument("read_hex: expected '.tt n m' header");
  }
  TruthTable tt(n, m);
  const std::uint64_t patterns = tt.num_patterns();
  const std::uint64_t nibbles = (patterns + 3) / 4;
  for (unsigned k = 0; k < m; ++k) {
    std::string line;
    if (!(is >> line) || line.size() != nibbles) {
      throw std::invalid_argument("read_hex: bad output row length");
    }
    for (std::uint64_t pos = 0; pos < nibbles; ++pos) {
      const char ch = line[nibbles - 1 - pos];
      unsigned value = 0;
      if (ch >= '0' && ch <= '9') {
        value = static_cast<unsigned>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        value = static_cast<unsigned>(ch - 'a') + 10;
      } else if (ch >= 'A' && ch <= 'F') {
        value = static_cast<unsigned>(ch - 'A') + 10;
      } else {
        throw std::invalid_argument("read_hex: bad hex digit");
      }
      for (unsigned b = 0; b < 4; ++b) {
        const std::uint64_t x = pos * 4 + b;
        if (x < patterns && ((value >> b) & 1)) {
          tt.set_bit(k, x, true);
        }
      }
    }
  }
  return tt;
}

void write_distribution(std::ostream& os, const InputDistribution& dist) {
  // Enough digits that every probability reads back as the same double.
  const std::streamsize precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << ".dist " << dist.num_inputs() << '\n';
  for (std::uint64_t x = 0; x < dist.num_patterns(); ++x) {
    os << dist.prob(x) << '\n';
  }
  os.precision(precision);
}

InputDistribution read_distribution(std::istream& is) {
  std::string tag;
  unsigned n = 0;
  if (!(is >> tag >> n) || tag != ".dist") {
    throw std::invalid_argument("read_distribution: expected '.dist n'");
  }
  if (n == 0 || n > 26) {
    throw std::invalid_argument("read_distribution: bad input count");
  }
  const std::uint64_t patterns = std::uint64_t{1} << n;
  std::vector<double> weights(patterns);
  for (std::uint64_t x = 0; x < patterns; ++x) {
    if (!(is >> weights[x])) {
      throw std::invalid_argument("read_distribution: truncated weights");
    }
  }
  return InputDistribution::from_weights(std::move(weights));
}

std::string to_pla_string(const TruthTable& tt) {
  std::ostringstream os;
  write_pla(os, tt);
  return os.str();
}

TruthTable from_pla_string(const std::string& text) {
  std::istringstream is(text);
  return read_pla(is);
}

std::string to_hex_string(const TruthTable& tt) {
  std::ostringstream os;
  write_hex(os, tt);
  return os.str();
}

TruthTable from_hex_string(const std::string& text) {
  std::istringstream is(text);
  return read_hex(is);
}

}  // namespace adsd
