// A3 -- Solver ablation: the same core-COP Ising instances handed to every
// solver in the library (bSB, dSB, SA and DOCH on the Ising model -- all
// registry-built on the unified engine layer -- plus alternating
// minimization, annealing, and branch-and-bound on the COP). The Ising
// solvers run one trajectory per COP.
// Reports solution quality and time, separating the contribution of the
// Ising *formulation* from the bSB *search*.
//
// Observability: --trace/--report <file> write the same JSON artifacts as
// adsd_cli (see tools/trace_summary).

#include <iostream>

#include "common.hpp"
#include "funcs/continuous.hpp"

int main(int argc, char** argv) {
  using namespace adsd;
  const CliArgs args(argc, argv);
  if (!bench::known_flags_only(args, {"n", "free", "instances", "ilp-budget"})) {
    return 1;
  }

  const unsigned n = static_cast<unsigned>(args.get_size("n", 9));
  const unsigned free_size = static_cast<unsigned>(args.get_size("free", 4));
  const std::size_t instances = args.get_size("instances", 16);
  const std::uint64_t seed = args.get_size("seed", 42);

  std::cout << "== Ablation A3: solver comparison on identical core-COP "
               "instances ==\n"
            << "instances: " << instances << " (ln, n=" << n
            << ", free=" << free_size << ", separate mode)\n\n";

  const RunContext ctx(bench::context_options(args));
  const auto exact = make_continuous_table(continuous_spec("ln"), n, n);
  const auto dist = InputDistribution::uniform(n);
  Rng rng(seed);
  std::vector<ColumnCop> pool;
  for (std::size_t i = 0; i < instances; ++i) {
    const auto w = InputPartition::random(n, free_size, rng);
    const auto m =
        BooleanMatrix::from_function(exact, static_cast<unsigned>(i % n), w);
    pool.push_back(ColumnCop::separate(m, matrix_probs(dist, w)));
  }

  Table table({"solver", "avg objective", "total time (s)", "notes"});

  auto run_cop_solver = [&](const std::string& label,
                            const std::string& spec,
                            const std::string& notes) {
    const auto solver = bench::make_solver(
        spec, n, args.get_double("ilp-budget", 0.5));
    double sum = 0.0;
    Timer timer;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      CoreSolveStats stats;
      (void)solver->solve(pool[i], ctx, seed + i, &stats);
      sum += stats.objective;
    }
    table.add_row({label, Table::num(sum / static_cast<double>(pool.size()), 5),
                   Table::num(timer.seconds(), 3), notes});
  };

  run_cop_solver("bSB (proposed)", "prop", "dynamic stop + Theorem 3");
  run_cop_solver("dSB", "prop,discrete=1", "discrete SB variant");
  // The remaining Ising dynamics, registry-built on the same engine layer
  // (previously SA here was a hand-rolled loop around solve_sa).
  run_cop_solver("SA on Ising model", "sa,sweeps=300",
                 "sequential spin updates");
  run_cop_solver("DOCH", "doch", "difference-of-convex, momentum");
  run_cop_solver("alternating min", "alt", "Lloyd-style");
  run_cop_solver("BA anneal", "ba", "setting-level SA");
  run_cop_solver("greedy (DALTA)", "dalta", "one-shot");
  run_cop_solver("B&B (ILP stand-in)", "ilp", "anytime exact");
  table.print(std::cout);
  std::cout << "\nexpected shape: B&B gives the reference optimum; bSB/dSB "
               "land on or near it orders of magnitude faster than B&B and "
               "clearly better than the greedy baseline.\n";
  bench::write_run_artifacts(args, ctx);
  return 0;
}
