// A2 -- Ablation of the Theorem-3 intervention (Sec. 3.3.2): run the bSB
// core solver with and without the column-type reset fed back at every
// sampling point, on core-COP instances from several benchmarks, and
// compare the achieved objectives. The final decode-time polish is also
// ablated separately to isolate the in-search feedback effect. bSB runs
// one trajectory per COP.
//
// Observability: --trace/--report <file> write the same JSON artifacts as
// adsd_cli (see tools/trace_summary).

#include <iostream>

#include "common.hpp"
#include "funcs/registry.hpp"

int main(int argc, char** argv) {
  using namespace adsd;
  const CliArgs args(argc, argv);
  if (!bench::known_flags_only(args, {"n", "free", "instances"})) {
    return 1;
  }

  const unsigned n = static_cast<unsigned>(args.get_size("n", 9));
  const unsigned free_size = static_cast<unsigned>(args.get_size("free", 4));
  const std::size_t per_bench = args.get_size("instances", 8);
  const std::uint64_t seed = args.get_size("seed", 42);

  std::cout << "== Ablation A2: Theorem-3 intervention in bSB ==\n"
            << "per-benchmark instances: " << per_bench << " (n=" << n
            << ", joint mode)\n\n";

  const RunContext ctx(bench::context_options(args));
  const auto dist = InputDistribution::uniform(n);

  struct Config {
    std::string label;
    bool theorem3;
    bool polish;
    bool seed_init;
  };
  const Config configs[] = {
      {"zero-start bSB", false, false, false},
      {"+ column-seed init", false, false, true},
      {"+ Theorem-3 feedback", true, false, true},
      {"+ final polish (proposed)", true, true, true},
  };

  Table table({"benchmark", configs[0].label, configs[1].label,
               configs[2].label, configs[3].label});
  double totals[4] = {0, 0, 0, 0};

  // Arithmetic circuits need an even input width; swap multiplier out at
  // the odd default n = 9.
  const std::vector<std::string> cases =
      n % 2 == 0 ? std::vector<std::string>{"cos", "exp", "ln", "multiplier"}
                 : std::vector<std::string>{"cos", "exp", "ln", "erf"};
  for (const std::string& name : cases) {
    const unsigned m = paper_output_bits(name, n);
    const auto exact = make_benchmark_table(name, n, m);

    // Joint-mode instance pool: other outputs exact, random partitions.
    Rng rng(seed);
    std::vector<ColumnCop> pool;
    for (std::size_t i = 0; i < per_bench; ++i) {
      const unsigned k = static_cast<unsigned>(i % m);
      const auto w = InputPartition::random(n, free_size, rng);
      const auto matrix = BooleanMatrix::from_function(exact, k, w);
      const auto probs = matrix_probs(dist, w);
      std::vector<double> d(matrix.rows() * matrix.cols());
      for (std::size_t row = 0; row < matrix.rows(); ++row) {
        for (std::size_t col = 0; col < matrix.cols(); ++col) {
          // Other outputs exact: D = -2^k O (first-round joint mode).
          d[row * matrix.cols() + col] =
              -static_cast<double>(std::uint64_t{1} << k) *
              (matrix.at(row, col) ? 1.0 : 0.0);
        }
      }
      pool.push_back(ColumnCop::joint(
          matrix, probs, d, static_cast<double>(std::uint64_t{1} << k)));
    }

    std::vector<std::string> row{name};
    for (int ci = 0; ci < 4; ++ci) {
      const std::string spec =
          std::string("prop") +
          ",theorem3=" + (configs[ci].theorem3 ? "1" : "0") +
          ",anti-collapse=" + (configs[ci].theorem3 ? "1" : "0") +
          ",polish=" + (configs[ci].polish ? "1" : "0") +
          ",seed-init=" + (configs[ci].seed_init ? "1" : "0");
      const auto solver = bench::make_solver(spec, n, 0.0);
      double sum = 0.0;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        CoreSolveStats stats;
        (void)solver->solve(pool[i], ctx, seed + i, &stats);
        sum += stats.objective;
      }
      totals[ci] += sum;
      row.push_back(Table::num(sum / static_cast<double>(pool.size()), 5));
    }
    table.add_row(std::move(row));
  }

  std::vector<std::string> avg{"TOTAL"};
  for (double t : totals) {
    avg.push_back(Table::num(t, 5));
  }
  table.add_row(std::move(avg));
  table.print(std::cout);
  std::cout << "\nexpected shape: each column improves (or ties) on the one "
               "to its left. The column-seed init breaks the V1<->V2 "
               "exchange symmetry (implementation detail, DESIGN.md); the "
               "Theorem-3 feedback is the paper's Sec. 3.3.2 heuristic.\n";
  bench::write_run_artifacts(args, ctx);
  return 0;
}
