// E4 -- Figure 1: the motivating LUT-size reduction. For a sweep of input
// widths and free/bound splits, print the flat LUT cost, the decomposed
// cost, and the saving factor; then run an actual approximate decomposition
// (exp, n = 9) and report the measured MED the saving costs.

#include <iostream>

#include "common.hpp"
#include "funcs/continuous.hpp"
#include "lut/decomposed_lut.hpp"

int main(int argc, char** argv) {
  using namespace adsd;
  const CliArgs args(argc, argv);
  if (!bench::known_flags_only(args, {"n", "free", "p", "rounds"})) {
    return 1;
  }

  std::cout << "== Figure 1: LUT size reduction from disjoint decomposition "
               "==\n\n";

  Table sizes({"n", "|A| (free)", "|B| (bound)", "flat bits",
               "decomposed bits", "saving"});
  struct Split {
    unsigned n;
    unsigned free;
  };
  for (const Split s : {Split{5, 2}, Split{8, 3}, Split{9, 4}, Split{12, 5},
                        Split{16, 7}, Split{20, 9}}) {
    const unsigned bound = s.n - s.free;
    const std::uint64_t flat = std::uint64_t{1} << s.n;
    const std::uint64_t dec =
        (std::uint64_t{1} << bound) + (std::uint64_t{1} << (s.free + 1));
    sizes.add_row({std::to_string(s.n), std::to_string(s.free),
                   std::to_string(bound), std::to_string(flat),
                   std::to_string(dec),
                   Table::num(static_cast<double>(flat) /
                                  static_cast<double>(dec),
                              1) +
                       "x"});
  }
  sizes.print(std::cout);
  std::cout << "\nFig. 1's example is the first row: a 32-bit LUT becomes "
               "8 + 8 = 16 bits (2x).\n\n";

  // Measured cost of the saving: approximate decomposition of exp at n = 9.
  const unsigned n = static_cast<unsigned>(args.get_size("n", 9));
  const auto exact = make_continuous_table(continuous_spec("exp"), n, n);
  const auto dist = InputDistribution::uniform(n);
  DaltaParams params;
  params.free_size = static_cast<unsigned>(args.get_size("free", 4));
  params.num_partitions = args.get_size("p", 8);
  params.rounds = args.get_size("rounds", 1);
  params.mode = DecompMode::kJoint;
  params.seed = args.get_size("seed", 42);

  const auto prop = bench::make_solver("prop", n, 0.0);
  const auto res = run_dalta(exact, dist, params, *prop);
  const auto net = res.to_lut_network();

  Table measured({"metric", "value"});
  measured.add_row({"flat LUT bits (9 outputs)",
                    std::to_string(net.total_flat_size_bits())});
  measured.add_row({"decomposed LUT bits",
                    std::to_string(net.total_size_bits())});
  measured.add_row(
      {"saving", Table::num(static_cast<double>(net.total_flat_size_bits()) /
                                static_cast<double>(net.total_size_bits()),
                            1) +
                     "x"});
  measured.add_row({"MED paid for the saving", Table::num(res.med)});
  measured.add_row({"error rate", Table::num(res.error_rate, 4)});
  measured.add_row({"worst-case error",
                    std::to_string(worst_case_error(exact, res.approx))});
  measured.print(std::cout);
  return 0;
}
