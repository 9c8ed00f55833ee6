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
// trajectory per COP (--replicas 1); --replicas R runs R lockstep
// replicas instead.
//
// Observability: --trace/--report/--qor <file> write the same JSON
// artifacts as adsd_cli (see tools/trace_summary); --json <file>
// writes per-benchmark MED/time records as a schema-v2 bench report for
// tools/bench_diff; --threads sets the worker-pool width; --pack <K>
// additionally runs the proposed solver with multi-instance packing
// (prop,pack=K -- fig4/<name>/prop_pack_* records). The packed MED must
// equal looped prop's bit for bit; any divergence is reported and makes
// the run exit with status 2.

#include <fstream>
#include <iostream>

#include "common.hpp"
#include "support/stats.hpp"

int main(int argc, char** argv) {
  using namespace adsd;
  const CliArgs args(argc, argv);

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
  const std::size_t replicas = args.get_positive_size("replicas", 1);
  const auto dalta = bench::make_solver(
      baseline == "lit" ? "dalta-lit" : baseline, n, 0.0);
  const auto prop = bench::make_solver("prop", n, 0.0, replicas);
  // --pack K: the same solves through the packed engine, which must not
  // change any MED (bit-identical per instance) but amortizes per-solve
  // setup across DALTA's P-candidate rounds.
  const std::size_t pack = args.get_size("pack", 0);
  const auto prop_pack =
      pack > 0 ? bench::make_solver("prop", n, 0.0, replicas, pack)
               : std::unique_ptr<CoreCopSolver>();
  // One context across the whole suite: with --trace/--report the recorder
  // captures every benchmark's solves on a single timeline (streams are
  // keyed, so sharing the context does not perturb any run).
  const RunContext ctx(bench::context_options(args));

  Table table({"Benchmark", "DALTA MED", "DALTA T(s)", "Prop MED",
               "Prop T(s)", "MED ratio", "Time ratio", "avg iters",
               "early stops"});
  std::vector<double> med_ratios;
  std::vector<double> time_ratios;
  std::vector<double> pack_time_ratios;
  int pack_divergences = 0;
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
    if (prop_pack) {
      const auto packed = run_dalta(exact, dist, params, *prop_pack, ctx);
      pack_time_ratios.push_back(packed.seconds /
                                 std::max(1e-9, ours.seconds));
      report.add_qor("fig4/" + bench_case.name + "/prop_pack_med",
                     packed.med);
      report.add_time("fig4/" + bench_case.name + "/prop_pack_seconds",
                      packed.seconds);
      if (packed.med != ours.med) {
        ++pack_divergences;
        std::cerr << "ERROR: packed MED diverged on " << bench_case.name
                  << " (" << packed.med << " vs " << ours.med << ")\n";
      }
    }
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
  if (!pack_time_ratios.empty()) {
    std::cout << "packed (pack=" << pack << ") vs unpacked prop: average "
              << "time ratio " << Table::num(mean_of(pack_time_ratios), 3)
              << " (< 1 means packing wins; MED is bit-identical by "
                 "construction).\n";
  }
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
  if (pack_divergences > 0) {
    std::cerr << "ERROR: packed MED differs from looped prop on "
              << pack_divergences << " benchmark(s)\n";
    return 2;
  }
  return 0;
}
