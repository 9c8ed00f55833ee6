// E2 -- Table 1 (joint mode): the six continuous 9-input benchmarks,
// comparing DALTA (greedy), DALTA-ILP (anytime B&B), BA (annealing), and
// the proposed Ising solver on identical candidate partitions. Paper
// config: n = 9, m = 9, free 4 / bound 5, P = 1000, R = 5.

#include <iostream>

#include "common.hpp"
#include "funcs/continuous.hpp"

int main(int argc, char** argv) {
  using namespace adsd;
  const CliArgs args(argc, argv);
  if (!bench::known_flags_only(args, {"n", "m", "free", "p", "rounds", "ilp-budget"})) {
    return 1;
  }

  const unsigned n = static_cast<unsigned>(args.get_size("n", 9));
  const unsigned m = static_cast<unsigned>(args.get_size("m", n));
  DaltaParams params;
  params.free_size = static_cast<unsigned>(args.get_size("free", 4));
  params.num_partitions = args.get_size("p", 8);
  params.rounds = args.get_size("rounds", 2);
  params.mode = DecompMode::kJoint;
  params.seed = args.get_size("seed", 42);
  const double ilp_budget = args.get_double("ilp-budget", 0.25);

  bench::print_header(
      "Table 1 / joint mode: MED and runtime across four methods",
      "n=9 m=9 free=4 bound=5 P=1000 R=5, Gurobi cap 3600s", params);

  const auto dist = InputDistribution::uniform(n);
  struct Method {
    std::string label;
    std::string key;
  };
  const Method methods[] = {{"DALTA", "dalta"},
                            {"DALTA-ILP", "ilp"},
                            {"BA", "ba"},
                            {"Prop.", "prop"}};

  Table table({"Function", "DALTA MED", "DALTA T(s)", "ILP MED", "ILP T(s)",
               "BA MED", "BA T(s)", "Prop. MED", "Prop. T(s)"});
  double med_sum[4] = {0, 0, 0, 0};
  double time_sum[4] = {0, 0, 0, 0};

  for (const auto& spec : continuous_specs()) {
    const auto exact = make_continuous_table(spec, n, m);
    std::vector<std::string> row{spec.name};
    for (int i = 0; i < 4; ++i) {
      const auto solver = bench::make_solver(methods[i].key, n, ilp_budget);
      const auto res = run_dalta(exact, dist, params, *solver);
      med_sum[i] += res.med;
      time_sum[i] += res.seconds;
      row.push_back(Table::num(res.med));
      row.push_back(Table::num(res.seconds));
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> avg{"Average"};
  for (int i = 0; i < 4; ++i) {
    avg.push_back(Table::num(med_sum[i] / 6.0));
    avg.push_back(Table::num(time_sum[i] / 6.0));
  }
  table.add_row(std::move(avg));
  table.print(std::cout);

  // Reference line: the literal one-shot DALTA reconstruction (our default
  // "DALTA" column is strengthened with alternating refinement and lands
  // near the ILP; see DESIGN.md section 3).
  double lit_med_sum = 0.0;
  {
    const auto lit = bench::make_solver("dalta-lit", n, 0.0);
    for (const auto& spec : continuous_specs()) {
      const auto exact = make_continuous_table(spec, n, m);
      lit_med_sum += run_dalta(exact, dist, params, *lit).med;
    }
  }

  std::cout << "\npaper (full scale) avg MED: DALTA 3.61, DALTA-ILP 2.87, "
               "BA 3.02, proposed 2.51 -- proposed smallest;\n"
            << "paper avg time: DALTA 3.49s, DALTA-ILP 3600s, BA 1.49s, "
               "proposed 1.89s.\n"
            << "this run avg MED: DALTA " << Table::num(med_sum[0] / 6.0)
            << ", ILP " << Table::num(med_sum[1] / 6.0) << ", BA "
            << Table::num(med_sum[2] / 6.0) << ", proposed "
            << Table::num(med_sum[3] / 6.0)
            << "; literal one-shot DALTA (paper-faithful baseline): "
            << Table::num(lit_med_sum / 6.0) << ".\n"
            << "note: at this reduced P the sequential per-bit commits are "
               "noisy across methods; the P-sweep (bench/sweep_partitions) "
               "shows the convergence behaviour.\n";
  return 0;
}
