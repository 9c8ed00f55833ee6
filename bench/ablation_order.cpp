// A4 -- Formulation-order ablation (the paper's Sec. 3.1 design decision):
// the same core-COP instances solved through (a) the proposed column-based
// second-order Ising formulation with bSB, and (b) the rejected row-based
// third-order formulation with higher-order SB [Kanao & Goto, ref. 19].
// Reports solution quality, model size (terms), and time -- quantifying why
// the paper reformulated the problem instead of using a higher-order model.

#include <iostream>

#include "common.hpp"
#include "core/row_cubic_cop.hpp"
#include "funcs/continuous.hpp"
#include "ising/poly_solvers.hpp"

int main(int argc, char** argv) {
  using namespace adsd;
  const CliArgs args(argc, argv);
  if (!bench::known_flags_only(args, {"n", "free", "instances"})) {
    return 1;
  }

  const unsigned n = static_cast<unsigned>(args.get_size("n", 9));
  const unsigned free_size = static_cast<unsigned>(args.get_size("free", 4));
  const std::size_t instances = args.get_size("instances", 12);
  const std::uint64_t seed = args.get_size("seed", 42);

  std::cout << "== Ablation A4: 2nd-order column formulation vs 3rd-order "
               "row formulation ==\n"
            << "instances: " << instances << " (cos, n=" << n
            << ", free=" << free_size << ", separate mode)\n\n";

  const auto exact = make_continuous_table(continuous_spec("cos"), n, n);
  const auto dist = InputDistribution::uniform(n);
  Rng rng(seed);

  double col_obj = 0.0;
  double row_obj = 0.0;
  std::size_t col_terms = 0;
  std::size_t row_terms = 0;
  double col_time = 0.0;
  double row_time = 0.0;

  for (std::size_t i = 0; i < instances; ++i) {
    const auto w = InputPartition::random(n, free_size, rng);
    const auto m =
        BooleanMatrix::from_function(exact, static_cast<unsigned>(i % n), w);
    const auto probs = matrix_probs(dist, w);

    {
      const auto cop = ColumnCop::separate(m, probs);
      Timer t;
      const auto solver = bench::make_solver("prop", n, 0.0);
      CoreSolveStats stats;
      (void)solver->solve(cop, seed + i, &stats);
      col_time += t.seconds();
      col_obj += stats.objective;
      col_terms += cop.to_ising().num_couplings();
    }
    {
      const auto cop = RowCubicCop::separate(m, probs);
      Timer t;
      const auto model = cop.to_poly_ising();
      SbParams p;
      p.max_iterations = 1000;
      p.seed = seed + i;
      p.stop.enabled = true;
      p.stop.sample_interval = n <= 12 ? 20 : 10;
      p.stop.window = p.stop.sample_interval;
      const auto res = solve_sb_poly(model, p);
      row_time += t.seconds();
      RowSetting s = cop.decode(res.spins);
      row_obj += cop.objective(s);
      row_terms += model.num_terms();
    }
  }

  const auto d = static_cast<double>(instances);
  Table table({"formulation", "spins", "avg terms", "avg objective (ER)",
               "total time (s)"});
  const auto w0 = InputPartition::trivial(n, free_size);
  table.add_row({"column-based, 2nd order (proposed)",
                 std::to_string(2 * w0.num_rows() + w0.num_cols()),
                 Table::num(static_cast<double>(col_terms) / d, 0),
                 Table::num(col_obj / d, 5), Table::num(col_time, 3)});
  table.add_row({"row-based, 3rd order (rejected)",
                 std::to_string(w0.num_cols() + 2 * w0.num_rows()),
                 Table::num(static_cast<double>(row_terms) / d, 0),
                 Table::num(row_obj / d, 5), Table::num(row_time, 3)});
  table.print(std::cout);

  std::cout << "\nexpected shape: same search space (optima coincide), but "
               "the cubic model carries far more terms per instance and "
               "higher-order SB lands on worse solutions in more time -- "
               "the quantitative case for Sec. 3.1's reformulation.\n";
  return 0;
}
