#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "boolean/table_io.hpp"
#include "funcs/continuous.hpp"
#include "funcs/registry.hpp"
#include "lut/verilog_export.hpp"
#include "support/rng.hpp"

namespace adsd {
namespace {

ColumnSetting random_cs(std::size_t r, std::size_t c, Rng& rng) {
  ColumnSetting s;
  s.v1 = BitVec(r);
  s.v2 = BitVec(r);
  s.t = BitVec(c);
  for (std::size_t i = 0; i < r; ++i) {
    s.v1.set(i, rng.next_bool());
    s.v2.set(i, rng.next_bool());
  }
  for (std::size_t j = 0; j < c; ++j) {
    s.t.set(j, rng.next_bool());
  }
  return s;
}

DecomposedLutNetwork small_network(unsigned n, unsigned m, Rng& rng) {
  DecomposedLutNetwork net;
  for (unsigned k = 0; k < m; ++k) {
    const auto w = InputPartition::random(n, n / 2, rng);
    net.add_output(DecomposedLut::from_column_setting(
        w, random_cs(w.num_rows(), w.num_cols(), rng)));
  }
  return net;
}

/// Extracts the bit string of `localparam [..] NAME = <w>'b<bits>;`.
std::string extract_rom_bits(const std::string& verilog,
                             const std::string& name) {
  const auto pos = verilog.find(name + " = ");
  EXPECT_NE(pos, std::string::npos) << name;
  const auto b = verilog.find("'b", pos);
  const auto end = verilog.find(';', b);
  return verilog.substr(b + 2, end - b - 2);
}

// --------------------------------------------------------------- Verilog

TEST(VerilogExport, ModuleStructure) {
  Rng rng(1);
  const auto net = small_network(6, 3, rng);
  std::ostringstream os;
  write_verilog(os, net, "approx_unit");
  const std::string v = os.str();
  EXPECT_NE(v.find("module approx_unit"), std::string::npos);
  EXPECT_NE(v.find("input  wire [5:0] x"), std::string::npos);
  EXPECT_NE(v.find("output wire [2:0] y"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  for (int k = 0; k < 3; ++k) {
    EXPECT_NE(v.find("assign y[" + std::to_string(k) + "]"),
              std::string::npos);
  }
}

TEST(VerilogExport, RomLiteralsMatchLutContents) {
  Rng rng(2);
  const auto net = small_network(6, 2, rng);
  std::ostringstream os;
  write_verilog(os, net, "dut");
  const std::string v = os.str();
  for (unsigned k = 0; k < 2; ++k) {
    const std::string phi_bits =
        extract_rom_bits(v, "o" + std::to_string(k) + "_PHI");
    const Lut& phi = net.output(k).phi_lut();
    ASSERT_EQ(phi_bits.size(), phi.size_bits());
    for (std::uint64_t a = 0; a < phi.size_bits(); ++a) {
      // Literal is MSB-first: character 0 is address size-1.
      EXPECT_EQ(phi_bits[phi_bits.size() - 1 - a] == '1', phi.read(a))
          << "output " << k << " address " << a;
    }
    const std::string f_bits =
        extract_rom_bits(v, "o" + std::to_string(k) + "_F");
    const Lut& f = net.output(k).f_lut();
    ASSERT_EQ(f_bits.size(), f.size_bits());
    for (std::uint64_t a = 0; a < f.size_bits(); ++a) {
      EXPECT_EQ(f_bits[f_bits.size() - 1 - a] == '1', f.read(a));
    }
  }
}

TEST(VerilogExport, AddressWiresReferencePartitionVariables) {
  Rng rng(3);
  DecomposedLutNetwork net;
  const InputPartition w({1, 4}, {0, 2, 3});
  net.add_output(DecomposedLut::from_column_setting(
      w, random_cs(w.num_rows(), w.num_cols(), rng)));
  std::ostringstream os;
  write_verilog(os, net, "dut");
  const std::string v = os.str();
  // phi address: bound vars {0,2,3} with highest index first.
  EXPECT_NE(v.find("o0_phi_addr = {x[3], x[2], x[0]}"), std::string::npos);
  // F address: phi then free vars {1,4}.
  EXPECT_NE(v.find("o0_f_addr = {o0_phi, x[4], x[1]}"), std::string::npos);
}

TEST(VerilogExport, NonDisjointModule) {
  Rng rng(4);
  const NonDisjointPartition w({0, 1}, {3, 4}, {2});
  NonDisjointSetting s;
  s.slices.push_back(random_cs(4, 4, rng));
  s.slices.push_back(random_cs(4, 4, rng));
  const auto lut = NonDisjointLut::from_setting(w, s);
  std::ostringstream os;
  write_verilog(os, lut, "nd_unit");
  const std::string v = os.str();
  EXPECT_NE(v.find("module nd_unit"), std::string::npos);
  EXPECT_NE(v.find("slice = {x[2]}"), std::string::npos);
  EXPECT_NE(v.find("phi_addr = {slice, x[4], x[3]}"), std::string::npos);
  EXPECT_NE(v.find("f_addr = {phi, slice, x[1], x[0]}"), std::string::npos);
  const std::string phi_bits = extract_rom_bits(v, "PHI");
  ASSERT_EQ(phi_bits.size(), lut.phi_lut().size_bits());
  for (std::uint64_t a = 0; a < lut.phi_lut().size_bits(); ++a) {
    EXPECT_EQ(phi_bits[phi_bits.size() - 1 - a] == '1',
              lut.phi_lut().read(a));
  }
}

TEST(VerilogExport, TestbenchEmbedsExpectations) {
  const auto exact = make_continuous_table(continuous_spec("cos"), 4, 3);
  std::ostringstream os;
  write_verilog_testbench(os, "dut", 4, 3, exact);
  const std::string v = os.str();
  EXPECT_NE(v.find("module tb_dut"), std::string::npos);
  for (std::uint64_t x = 0; x < 16; ++x) {
    const std::string line = "expected[" + std::to_string(x) + "] = 3'd" +
                             std::to_string(exact.word(x)) + ";";
    EXPECT_NE(v.find(line), std::string::npos) << line;
  }
  EXPECT_NE(v.find("$fatal"), std::string::npos);
}

TEST(VerilogExport, TestbenchRejectsLargeTables) {
  TruthTable big(13, 2);
  std::ostringstream os;
  EXPECT_THROW(write_verilog_testbench(os, "dut", 13, 2, big),
               std::invalid_argument);
}

TEST(VerilogExport, MemImageOneBitPerLine) {
  Lut lut(2, BitVec::from_string("1010"));
  std::ostringstream os;
  write_mem_image(os, lut);
  EXPECT_EQ(os.str(), "1\n0\n1\n0\n");
}

// ------------------------------------------------------------- Table IO

TEST(TableIo, PlaRoundTrip) {
  const auto tt = make_benchmark_table("multiplier", 8, 8);
  const TruthTable back = from_pla_string(to_pla_string(tt));
  EXPECT_EQ(back, tt);
}

TEST(TableIo, HexRoundTrip) {
  for (const char* name : {"cos", "exp", "brent-kung"}) {
    const unsigned m = paper_output_bits(name, 8);
    const auto tt = make_benchmark_table(name, 8, m);
    const TruthTable back = from_hex_string(to_hex_string(tt));
    EXPECT_EQ(back, tt) << name;
  }
}

TEST(TableIo, HexRoundTripOddWidth) {
  // 3 inputs: 8 patterns = 2 nibbles.
  Rng rng(7);
  auto tt = TruthTable::from_function(
      3, 5, [&](std::uint64_t) { return rng.next_u64() & 0x1F; });
  EXPECT_EQ(from_hex_string(to_hex_string(tt)), tt);
}

TEST(TableIo, PlaFormatShape) {
  auto tt = TruthTable::from_function(2, 2, [](std::uint64_t x) { return x; });
  const std::string pla = to_pla_string(tt);
  EXPECT_NE(pla.find(".i 2"), std::string::npos);
  EXPECT_NE(pla.find(".o 2"), std::string::npos);
  // Pattern x=1 (x0=1, x1=0) outputs 01 -> bits y0=1 y1=0.
  EXPECT_NE(pla.find("10 10"), std::string::npos);
  EXPECT_NE(pla.find(".e"), std::string::npos);
}

TEST(TableIo, PlaRejectsMalformed) {
  EXPECT_THROW((void)from_pla_string("garbage"), std::invalid_argument);
  EXPECT_THROW((void)from_pla_string(".i 2\n.o 1\n00 1\n.e\n"),
               std::invalid_argument);  // incomplete
  EXPECT_THROW(
      (void)from_pla_string(".i 1\n.o 1\n0 1\n0 1\n.e\n"),
      std::invalid_argument);  // duplicate row
  EXPECT_THROW(
      (void)from_pla_string(".i 1\n.o 1\n- 1\n1 0\n.e\n"),
      std::invalid_argument);  // don't care
}

TEST(TableIo, HexRejectsMalformed) {
  EXPECT_THROW((void)from_hex_string("nope 2 2\n00\n00\n"),
               std::invalid_argument);
  EXPECT_THROW((void)from_hex_string(".tt 3 1\nzz\n"),
               std::invalid_argument);
  EXPECT_THROW((void)from_hex_string(".tt 3 1\n0\n"),
               std::invalid_argument);  // wrong row length
}

TEST(TableIo, HexIsCompact) {
  const auto tt = make_continuous_table(continuous_spec("cos"), 10, 10);
  const std::string hex = to_hex_string(tt);
  const std::string pla = to_pla_string(tt);
  EXPECT_LT(hex.size() * 5, pla.size());
}

InputDistribution round_trip(const InputDistribution& d) {
  std::ostringstream os;
  write_distribution(os, d);
  std::istringstream is(os.str());
  return read_distribution(is);
}

TEST(DistributionIo, RoundTripPreservesProbabilities) {
  // Every probability reads back as the same double: {1, 2} once read
  // back as 0.333333 / 0.666667 at the stream's default six digits.
  for (const std::vector<double>& weights :
       {std::vector<double>{3.0, 1.0, 0.0, 4.0}, std::vector<double>{1.0, 2.0},
        std::vector<double>{1.0, 2.0, 3.0, 4.0}}) {
    const auto d = InputDistribution::from_weights(weights);
    const InputDistribution back = round_trip(d);
    EXPECT_EQ(back.num_inputs(), d.num_inputs());
    for (std::uint64_t x = 0; x < d.num_patterns(); ++x) {
      EXPECT_EQ(back.prob(x), d.prob(x)) << weights.size() << " x=" << x;
    }
  }
}

TEST(DistributionIo, UniformRoundTrips) {
  // uniform(9)'s 2^-9 once read back as 0.0019531249999999907, no longer
  // a power of two.
  for (const unsigned n : {5u, 9u}) {
    const auto d = InputDistribution::uniform(n);
    const InputDistribution back = round_trip(d);
    for (std::uint64_t x = 0; x < d.num_patterns(); ++x) {
      EXPECT_EQ(back.prob(x), d.prob(x)) << "n=" << n << " x=" << x;
    }
  }
}

TEST(DistributionIo, WriterRestoresStreamPrecision) {
  std::ostringstream os;
  os.precision(3);
  write_distribution(os, InputDistribution::uniform(2));
  EXPECT_EQ(os.precision(), 3);
}

TEST(DistributionIo, RejectsMalformed) {
  std::istringstream bad_tag("nope 2\n1 1 1 1\n");
  EXPECT_THROW((void)read_distribution(bad_tag), std::invalid_argument);
  std::istringstream truncated(".dist 2\n1 1\n");
  EXPECT_THROW((void)read_distribution(truncated), std::invalid_argument);
  std::istringstream bad_n(".dist 0\n");
  EXPECT_THROW((void)read_distribution(bad_n), std::invalid_argument);
}

}  // namespace
}  // namespace adsd
