// E5 -- Extension experiment: the non-disjoint decomposition knob (the
// BA-framework generalization the paper's intro cites as ref. [10]).
// Sweeps the shared-set size s = 0, 1, 2 and reports the accuracy/storage
// trade-off: each shared variable doubles both LUTs but enlarges the
// feasible decomposition set per candidate partition.

#include <iostream>

#include "common.hpp"
#include "core/nondisjoint_dalta.hpp"
#include "funcs/registry.hpp"

int main(int argc, char** argv) {
  using namespace adsd;
  const CliArgs args(argc, argv);
  if (!bench::known_flags_only(args, {"n", "free", "p", "max-shared"})) {
    return 1;
  }

  const unsigned n = static_cast<unsigned>(args.get_size("n", 9));
  const unsigned free_size = static_cast<unsigned>(args.get_size("free", 4));
  const unsigned max_shared =
      static_cast<unsigned>(args.get_size("max-shared", 2));
  const std::size_t partitions = args.get_size("p", 8);
  const std::uint64_t seed = args.get_size("seed", 42);

  std::cout << "== Extension E5: non-disjoint decomposition (shared-set "
               "sweep) ==\n"
            << "n=" << n << " free=" << free_size << " P=" << partitions
            << " R=1 joint mode, proposed Ising solver per slice\n\n";

  const auto dist = InputDistribution::uniform(n);
  const auto solver = bench::make_solver("prop", n, 0.0);

  // The arithmetic circuits need an even input width; swap in a continuous
  // function when n is odd (the paper's n = 9 scheme).
  const std::vector<std::string> cases =
      n % 2 == 0 ? std::vector<std::string>{"exp", "tan", "multiplier"}
                 : std::vector<std::string>{"exp", "tan", "denoise"};
  for (const std::string& name : cases) {
    const unsigned m = paper_output_bits(name, n);
    const auto exact = make_benchmark_table(name, n, m);
    Table table({"shared |S|", "LUT bits", "vs flat", "MED", "ER",
                 "time (s)"});
    for (unsigned s = 0; s <= max_shared; ++s) {
      NdDaltaParams params;
      params.free_size = free_size;
      params.shared_size = s;
      params.num_partitions = partitions;
      params.rounds = 1;
      params.mode = DecompMode::kJoint;
      params.seed = seed;
      const auto res = run_dalta_nd(exact, dist, params, *solver);
      table.add_row(
          {std::to_string(s), std::to_string(res.total_size_bits()),
           Table::num(static_cast<double>(res.total_flat_size_bits()) /
                          static_cast<double>(res.total_size_bits()),
                      1) +
               "x smaller",
           Table::num(res.med), Table::num(res.error_rate, 4),
           Table::num(res.seconds, 2)});
    }
    std::cout << name << " (" << n << "-bit in, " << m << "-bit out):\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "expected shape: MED falls as |S| grows while the LUT saving "
               "shrinks -- the accuracy/storage dial of ref. [10].\n";
  return 0;
}
