// E3 -- Figure 4: large-scale (n = 16) joint-mode comparison over all ten
// benchmarks. Plots-as-text the MED ratio and runtime ratio of the proposed
// Ising solver vs DALTA (ratio < 1 means the proposal wins), along with the
// DALTA baselines, exactly the series the paper's figure shows. Paper
// config: n = 16, free 7 / bound 9, P = 1000, R = 5, m = 16 (9 for
// Brent-Kung).
//
// Defaults run at a heavily reduced P/R so the whole suite finishes in
// well under a minute; pass --n 16 --p 20 --rounds 2 (or more) for
// closer-to-paper scale. The proposed solver runs the paper's single bSB
// trajectory per COP.
//
// Flags: --n, --free, --p, --rounds, --seed, --baseline lit
// (the literal one-shot DALTA reconstruction), --csv <file> (the table
// as CSV), and the harness flags --threads (worker-pool width),
// --trace/--report/--qor/--metrics [--metrics-format] <file> (the same
// artifacts as adsd_cli; see tools/trace_summary), --log-level,
// --log-file, --obs-dir, and --json <file> (per-benchmark MED/time
// records as a schema-v2 bench report for tools/bench_diff). Any other
// flag is an error.

#include <fstream>
#include <iostream>

#include "common.hpp"
#include "support/stats.hpp"

int main(int argc, char** argv) {
  using namespace adsd;
  const CliArgs args(argc, argv);
  if (!bench::known_flags_only(
          args, {"n", "free", "p", "rounds", "baseline", "csv"})) {
    return 1;
  }

  const unsigned n = static_cast<unsigned>(args.get_size("n", 16));
  DaltaParams params;
  params.free_size = static_cast<unsigned>(args.get_size("free", n == 16 ? 7 : n / 2));
  params.num_partitions = args.get_size("p", 3);
  params.rounds = args.get_size("rounds", 1);
  params.mode = DecompMode::kJoint;
  params.seed = args.get_size("seed", 42);

  bench::print_header(
      "Figure 4: proposed vs DALTA, joint mode, 16-input benchmarks",
      "n=16 free=7 bound=9 P=1000 R=5 m=16 (9 for brent-kung)", params);

  const auto dist = InputDistribution::uniform(n);
  // --baseline lit compares against the literal one-shot DALTA
  // reconstruction; the default "dalta" baseline additionally runs
  // alternating refinement sweeps, i.e. it is deliberately stronger than
  // the paper's baseline, making the comparison conservative.
  const std::string baseline = args.get_string("baseline", "dalta");
  const auto dalta = bench::make_solver(
      baseline == "lit" ? "dalta-lit" : baseline, n, 0.0);
  const auto prop = bench::make_solver("prop", n, 0.0);
  // One context across the whole suite: with --trace/--report the recorder
  // captures every benchmark's solves on a single timeline (streams are
  // keyed, so sharing the context does not perturb any run).
  const RunContext ctx(bench::context_options(args));

  Table table({"Benchmark", "DALTA MED", "DALTA T(s)", "Prop MED",
               "Prop T(s)", "MED ratio", "Time ratio", "avg iters",
               "early stops"});
  std::vector<double> med_ratios;
  std::vector<double> time_ratios;
  bench::BenchReport report("fig4_large");
  report.set_run_id(ctx.run_id());

  for (const auto& bench_case : benchmark_suite()) {
    const unsigned m = paper_output_bits(bench_case.name, n);
    const auto exact = make_benchmark_table(bench_case.name, n, m);
    const auto base = run_dalta(exact, dist, params, *dalta, ctx);
    const auto ours = run_dalta(exact, dist, params, *prop, ctx);
    const double med_ratio =
        base.med > 0.0 ? ours.med / base.med : (ours.med > 0.0 ? 1e9 : 1.0);
    const double time_ratio = ours.seconds / std::max(1e-9, base.seconds);
    med_ratios.push_back(med_ratio);
    time_ratios.push_back(time_ratio);
    // Fixed-seed MED is deterministic; the time records carry the usual
    // wall-clock noise, so bench_diff is run with loose time thresholds.
    report.add_qor("fig4/" + bench_case.name + "/prop_med", ours.med);
    report.add_qor("fig4/" + bench_case.name + "/dalta_med", base.med);
    report.add_time("fig4/" + bench_case.name + "/prop_seconds",
                    ours.seconds);
    table.add_row(
        {bench_case.name, Table::num(base.med), Table::num(base.seconds, 3),
         Table::num(ours.med), Table::num(ours.seconds, 3),
         Table::num(med_ratio, 3), Table::num(time_ratio, 3),
         Table::num(static_cast<double>(ours.solver_iterations) /
                        static_cast<double>(ours.cop_solves),
                    0),
         std::to_string(ours.early_stops) + "/" +
             std::to_string(ours.cop_solves)});
  }
  table.print(std::cout);
  if (args.has("csv")) {
    std::ofstream csv(args.get_string("csv", "fig4.csv"));
    table.print_csv(csv);
    std::cout << "wrote " << args.get_string("csv", "fig4.csv") << "\n";
  }

  const double avg_med_ratio = mean_of(med_ratios);
  const double avg_time_ratio = mean_of(time_ratios);
  int med_wins = 0;
  int both_wins = 0;
  for (std::size_t i = 0; i < med_ratios.size(); ++i) {
    med_wins += med_ratios[i] < 1.0;
    both_wins += med_ratios[i] < 1.0 && time_ratios[i] < 1.0;
  }
  std::cout << "\naverage MED ratio " << Table::num(avg_med_ratio, 3)
            << " (paper: 0.89, i.e. 11% smaller MED), average time ratio "
            << Table::num(avg_time_ratio, 3)
            << " (paper: 0.86, i.e. 1.16x speedup).\n"
            << med_wins << "/10 benchmarks improve MED, " << both_wins
            << "/10 improve both (paper: 7/10 improve both).\n"
            << "note: DALTA's greedy core is near-instant per COP; the "
               "paper's runtime contrast comes from its framework overheads "
               "at P=1000, so at reduced P the time ratio here skews "
               "against the proposal.\n";
  if (args.has("json")) {
    report.add_qor("fig4/avg_med_ratio", avg_med_ratio, "ratio");
    const std::string path = args.get_string("json", "fig4.json");
    std::ofstream f(path);
    if (!f) {
      std::cerr << "cannot open --json file '" << path << "'\n";
      return 1;
    }
    report.write(f);
    std::cout << "wrote " << path << "\n";
  }
  bench::write_run_artifacts(args, ctx);
  return 0;
}
