// A6 -- Scalability sweep: per-COP solve time and solution quality as the
// input width n grows (the paper's motivation: the ILP's solution space
// grows exponentially while the Ising solver scales with the matrix size).
// Reports, per n: spins, couplings, and per-solver average time on matched
// instances.
//
// Observability: --trace/--report <file> write the same JSON artifacts as
// adsd_cli (see tools/obs_summary).

#include <iostream>

#include "common.hpp"
#include "funcs/continuous.hpp"

int main(int argc, char** argv) {
  using namespace adsd;
  const CliArgs args(argc, argv);
  if (!bench::known_flags_only(args, {"instances", "ilp-budget"})) {
    return 1;
  }

  const std::size_t instances = args.get_size("instances", 6);
  const std::uint64_t seed = args.get_size("seed", 42);
  const double ilp_budget = args.get_double("ilp-budget", 0.5);

  std::cout << "== Sweep A6: per-COP scaling with input width ==\n"
            << "benchmark: exp, separate mode, " << instances
            << " instances per width, ILP budget " << ilp_budget << "s\n\n";

  const RunContext ctx(bench::context_options(args));
  Table table({"n", "matrix", "spins", "couplings", "bSB ms/solve",
               "greedy ms/solve", "B&B ms/solve", "bSB/greedy obj ratio"});

  for (const unsigned n : {8u, 10u, 12u, 14u, 16u}) {
    const unsigned free_size = n / 2;
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
    const std::size_t couplings = pool.front().to_ising().num_couplings();

    auto time_solver = [&](const std::string& spec, double* obj_sum) {
      const auto solver = bench::make_solver(spec, n, ilp_budget);
      Timer t;
      double sum = 0.0;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        CoreSolveStats stats;
        (void)solver->solve(pool[i], ctx, seed + i, &stats);
        sum += stats.objective;
      }
      if (obj_sum != nullptr) {
        *obj_sum = sum;
      }
      return t.millis() / static_cast<double>(pool.size());
    };

    double bsb_obj = 0.0;
    double greedy_obj = 0.0;
    const double bsb_ms = time_solver("prop", &bsb_obj);
    const double greedy_ms = time_solver("dalta", &greedy_obj);
    const double bnb_ms = time_solver("ilp", nullptr);

    const auto w0 = InputPartition::trivial(n, free_size);
    table.add_row(
        {std::to_string(n),
         std::to_string(w0.num_rows()) + "x" + std::to_string(w0.num_cols()),
         std::to_string(2 * w0.num_rows() + w0.num_cols()),
         std::to_string(couplings), Table::num(bsb_ms, 2),
         Table::num(greedy_ms, 2), Table::num(bnb_ms, 2),
         Table::num(greedy_obj > 0 ? bsb_obj / greedy_obj : 1.0, 4)});
  }
  table.print(std::cout);

  std::cout << "\nexpected shape: bSB time grows with the coupling count "
               "(polynomial in the matrix size) and stays fractions of the "
               "time-capped B&B, while matching or beating greedy quality "
               "(ratio <= 1).\n";
  bench::write_run_artifacts(args, ctx);
  return 0;
}
