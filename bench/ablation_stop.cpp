// A1 -- Ablation of the dynamic stop criterion (Sec. 3.3.1): on a pool of
// core-COP instances drawn from the exp benchmark, compare fixed-iteration
// bSB at several budgets against the variance-based dynamic stop. The
// criterion should spend only as many Euler steps as convergence needs
// while matching the converged solution quality.

#include <iostream>

#include "common.hpp"
#include "funcs/continuous.hpp"

int main(int argc, char** argv) {
  using namespace adsd;
  const CliArgs args(argc, argv);
  if (!bench::known_flags_only(args, {"n", "free", "instances"})) {
    return 1;
  }

  const unsigned n = static_cast<unsigned>(args.get_size("n", 9));
  const unsigned free_size = static_cast<unsigned>(args.get_size("free", 4));
  const std::size_t instances = args.get_size("instances", 24);
  const std::uint64_t seed = args.get_size("seed", 42);

  std::cout << "== Ablation A1: dynamic stop criterion vs fixed iteration "
               "budgets ==\n"
            << "instances: " << instances << " core COPs (exp, n=" << n
            << ", free=" << free_size << ", separate mode)\n\n";

  // Build the instance pool once.
  const auto exact = make_continuous_table(continuous_spec("exp"), n, n);
  const auto dist = InputDistribution::uniform(n);
  Rng rng(seed);
  std::vector<ColumnCop> pool;
  for (std::size_t i = 0; i < instances; ++i) {
    const auto w = InputPartition::random(n, free_size, rng);
    const auto m = BooleanMatrix::from_function(
        exact, static_cast<unsigned>(i % n), w);
    pool.push_back(ColumnCop::separate(m, matrix_probs(dist, w)));
  }

  Table table({"configuration", "avg objective (ER)", "avg Euler steps",
               "total time (s)"});
  auto run_config = [&](const std::string& label, const std::string& spec) {
    // Isolate the stop criterion: the warm column-seed incumbent would
    // otherwise floor every configuration at the same quality.
    const auto solver =
        bench::make_solver(spec + ",seed-init=0", n, 0.0);
    double obj_sum = 0.0;
    std::size_t iter_sum = 0;
    Timer timer;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      CoreSolveStats stats;
      (void)solver->solve(pool[i], seed + i, &stats);
      obj_sum += stats.objective;
      iter_sum += stats.iterations;
    }
    table.add_row({label,
                   Table::num(obj_sum / static_cast<double>(pool.size()), 5),
                   Table::num(static_cast<double>(iter_sum) /
                                  static_cast<double>(pool.size()),
                              0),
                   Table::num(timer.seconds(), 3)});
  };

  for (const std::size_t budget : {100u, 200u, 500u, 1000u, 2000u, 5000u}) {
    run_config("fixed " + std::to_string(budget),
               "prop,stop=0,max-iter=" + std::to_string(budget));
  }
  {
    const std::size_t fs = n <= 12 ? 20 : 10;  // paper's f = s choice
    run_config("dynamic stop (f=s=" + std::to_string(fs) + ", eps=1e-8)",
               "prop,max-iter=5000");
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: the dynamic-stop row matches the quality "
               "of the large fixed budgets at a fraction of the steps.\n";
  return 0;
}
