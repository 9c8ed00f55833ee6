// adsd command-line driver: the downstream-user entry point to the
// approximate-decomposition flow without writing C++.
//
//   adsd_cli info
//       List built-in benchmark functions and solvers.
//
//   adsd_cli list-solvers   (also: adsd_cli --list-solvers)
//       List every registry-constructible solver with its aliases and
//       config keys. No setting picks the force kernel; the footer names
//       the one this host runs for a column-COP solve (bipartite-<isa>)
//       and for any other model (scalar).
//
//   adsd_cli decompose --function exp --n 9 --free 4 [options]
//   adsd_cli decompose --hex table.tt --free 4 [options]
//   adsd_cli decompose --pla table.pla --free 4 [options]
//       Run the approximate decomposition and print the accuracy/storage
//       report. A flag not listed here is an error. Options:
//         --m <bits>        output width (default: paper convention)
//         --shared <s>      non-disjoint shared variables (default 0)
//         --mode joint|separate (default joint)
//         --solver <spec>   registry spec "name[,key=value,...]", e.g.
//                           prop | "prop,restarts=4" | "ilp,budget=1.5"
//                           (see `adsd_cli info` for names and keys)
//         --p/--rounds/--seed   framework knobs
//         --ilp-budget <s>  seconds per COP for the ilp solver (shorthand
//                           for its budget config key)
//         --threads <t>     worker threads for the partition fan-out
//                           (>= 1; default: hardware concurrency)
//         --trace <file>    write a Chrome trace_event JSON timeline of the
//                           whole solve (load in chrome://tracing or
//                           Perfetto; per-thread spans, bSB energy/variance
//                           counters)
//         --report <file>   write the compact run report JSON (per-span
//                           p50/p95/p99 latencies, counter summaries,
//                           per-thread utilization)
//         --qor <file>      write the quality-of-result record as JSON
//                           (schema adsd-qor-v1: per-output error rates,
//                           partition accept/try counts, bSB convergence
//                           curves, LUT-bit ledger; see tools/bench_diff)
//                           and print the per-output QoR summary table
//         --metrics <file>  arm the process-wide MetricsRegistry and write
//                           its snapshot after the run: solve-latency
//                           histograms, per-engine/kernel counters,
//                           recorder drop counters (validate or
//                           pretty-print with tools/obs_summary)
//         --metrics-format prom|json  exposition format for --metrics:
//                           Prometheus text v0.0.4 (default) or the
//                           adsd-metrics-v1 JSON snapshot
//         --postmortem <file>  arm the solve flight recorder: on deadline
//                           overrun, solver exception, or a fatal signal,
//                           dump the recent-solve ring to <file> as
//                           adsd-flight-v1 JSON (works with or without
//                           --metrics)
//         --log-level debug|info|warn|error|off  arm the structured JSONL
//                           logger (adsd-log-v1 records, one per line) at
//                           the given minimum severity (default info when
//                           only --log-file is given)
//         --log-file <file> structured-log destination (default: stderr)
//         --obs-dir <dir>   unified observability bundle: mint a run_id,
//                           arm every recorder, and write log.jsonl,
//                           trace.json, report.json, qor.json,
//                           metrics.prom, metrics.json, and flight.json
//                           under <dir>/<run_id>/ — every
//                           artifact stamped with the same run_id
//                           (validate the join with tools/obs_summary
//                           <file> --expect-run-id <run_id>)
//         --budget <s>      wall-clock budget in seconds for the whole
//                           decompose; anytime solvers stop at the
//                           deadline, and with --postmortem the overrun
//                           triggers the dump
//         --dist <file>     profile-driven input distribution (.dist format)
//         --verilog <file>  write a synthesizable module
//         --testbench <file> write a self-checking testbench (n <= 12,
//                           --shared 0; checked before the solve)
//         --hex-out <file>  write the approximate table (.tt hex)
//
//   adsd_cli compare --exact a.tt --approx b.tt [--dist <file>]
//       Report ER / MED / WCE / MRE between two tables. A flag not listed
//       here is an error.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>

#include "bench/common.hpp"
#include "boolean/error_metrics.hpp"
#include "boolean/table_io.hpp"
#include "core/dalta.hpp"
#include "core/nondisjoint_dalta.hpp"
#include "core/quality_report.hpp"
#include "core/solver_registry.hpp"
#include "funcs/registry.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "lut/verilog_export.hpp"
#include "support/cli.hpp"
#include "support/metrics.hpp"
#include "support/run_context.hpp"
#include "support/table.hpp"

namespace {

using namespace adsd;

/// Builds the solver through the registry. The dedicated --ilp-budget flag
/// is a shorthand overlaid onto the spec's config (the spec wins when both
/// name the budget key), and the table width n feeds the prop solver's
/// paper defaults unless the spec pins its own.
std::unique_ptr<CoreCopSolver> make_solver(const CliArgs& args, unsigned n) {
  const SolverRegistry& registry = SolverRegistry::global();
  auto [name, config] =
      SolverRegistry::parse_spec(args.get_string("solver", "prop"));
  const SolverRegistry::Entry* entry = registry.find(name);
  auto takes = [&](const std::string& key) {
    return entry != nullptr &&
           std::find(entry->keys.begin(), entry->keys.end(), key) !=
               entry->keys.end();
  };
  if (takes("n") && !config.has("n")) {
    config.set("n", std::to_string(n));
  }
  if (takes("budget") && args.has("ilp-budget") && !config.has("budget")) {
    config.set("budget",
               std::to_string(args.get_double("ilp-budget", 0.25)));
  }
  return registry.make(name, config);
}

/// A size flag that feeds an unsigned parameter: a value past unsigned
/// throws instead of wrapping.
unsigned get_unsigned(const CliArgs& args, const std::string& name,
                      unsigned fallback) {
  const std::size_t value = args.get_size(name, fallback);
  if (value > std::numeric_limits<unsigned>::max()) {
    throw std::invalid_argument(
        "--" + name + ": expected at most " +
        std::to_string(std::numeric_limits<unsigned>::max()) + ", got '" +
        args.get_string(name, "") + "'");
  }
  return static_cast<unsigned>(value);
}

TruthTable load_table(const CliArgs& args) {
  if (args.has("hex")) {
    std::ifstream f(args.get_string("hex", ""));
    if (!f) {
      throw std::runtime_error("cannot open --hex file");
    }
    return read_hex(f);
  }
  if (args.has("pla")) {
    std::ifstream f(args.get_string("pla", ""));
    if (!f) {
      throw std::runtime_error("cannot open --pla file");
    }
    return read_pla(f);
  }
  const std::string fn = args.get_string("function", "");
  if (fn.empty()) {
    throw std::invalid_argument(
        "need one of --function / --hex / --pla to define the table");
  }
  const unsigned n = get_unsigned(args, "n", 9);
  const unsigned m = get_unsigned(args, "m", paper_output_bits(fn, n));
  return make_benchmark_table(fn, n, m);
}

TruthTable load_table_from(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  return read_hex(f);
}

int cmd_info() {
  std::cout << "benchmark functions (paper suite):\n";
  Table fns({"name", "kind", "paper m at n=16"});
  for (const auto& b : benchmark_suite()) {
    fns.add_row({b.name, b.continuous ? "continuous" : "arithmetic",
                 std::to_string(paper_output_bits(b.name, 16))});
  }
  fns.print(std::cout);

  std::cout << "\nsolvers (--solver \"name[,key=value,...]\"):\n";
  Table solvers({"name", "aliases", "config keys", "summary"});
  for (const auto& entry : SolverRegistry::global().entries()) {
    std::string aliases;
    for (const auto& a : entry.aliases) {
      aliases += aliases.empty() ? a : ", " + a;
    }
    std::string keys;
    for (const auto& k : entry.keys) {
      keys += keys.empty() ? k : ", " + k;
    }
    solvers.add_row({entry.name, aliases.empty() ? "-" : aliases,
                     keys.empty() ? "-" : keys, entry.summary});
  }
  solvers.print(std::cout);
  return 0;
}

int cmd_list_solvers() {
  Table solvers({"name", "aliases", "config keys"});
  for (const auto& entry : SolverRegistry::global().entries()) {
    std::string aliases;
    for (const auto& a : entry.aliases) {
      aliases += aliases.empty() ? a : ", " + a;
    }
    std::string keys;
    for (const auto& k : entry.keys) {
      // The pack key's value only switches the batched solve on (any
      // K > 0); say so here so `list-solvers` is enough to write a spec.
      const std::string shown = k == "pack" ? "pack=<K> (K > 0: batched)" : k;
      keys += keys.empty() ? shown : ", " + shown;
    }
    solvers.add_row({entry.name, aliases.empty() ? "-" : aliases,
                     keys.empty() ? "-" : keys});
  }
  solvers.print(std::cout);

  // Host-global: the layout follows the model, the ISA tier the CPU.
  const kernels::SelectedForceKernel column_cop =
      kernels::select_force_kernel(kernels::ForceKernel::kAuto, cpu_features());
  const kernels::SelectedForceKernel other = kernels::select_force_kernel(
      kernels::ForceKernel::kAuto, cpu_features(), 1,
      kernels::ModelShape::kGeneric);
  std::cout << "\nforce kernel (no setting picks it): " << column_cop.name
            << " for a column COP, " << other.name << " otherwise\n";
  return 0;
}

InputDistribution load_distribution(const CliArgs& args, unsigned n) {
  if (!args.has("dist")) {
    return InputDistribution::uniform(n);
  }
  std::ifstream f(args.get_string("dist", ""));
  if (!f) {
    throw std::runtime_error("cannot open --dist file");
  }
  InputDistribution d = read_distribution(f);
  if (d.num_inputs() != n) {
    throw std::invalid_argument("--dist width does not match the table");
  }
  return d;
}

int cmd_decompose(const CliArgs& args) {
  args.reject_unknown(
      {"function", "hex", "pla", "n", "m", "free", "shared", "mode",
       "solver", "p", "rounds", "seed", "ilp-budget",
       "threads", "trace", "report", "qor", "metrics", "metrics-format",
       "postmortem", "log-level", "log-file", "obs-dir", "budget", "dist",
       "verilog", "testbench", "hex-out"});
  const TruthTable exact = load_table(args);
  const unsigned n = exact.num_inputs();
  const unsigned m = exact.num_outputs();
  const InputDistribution dist = load_distribution(args, n);

  const unsigned free_size = get_unsigned(args, "free", 4);
  const unsigned shared = get_unsigned(args, "shared", 0);
  const std::string mode_name = args.get_string("mode", "joint");
  if (mode_name != "joint" && mode_name != "separate") {
    throw std::invalid_argument("--mode: expected joint or separate, got '" +
                                mode_name + "'");
  }
  const DecompMode mode =
      mode_name == "separate" ? DecompMode::kSeparate : DecompMode::kJoint;
  // Checked before the solve: the testbench drives the disjoint flow's one
  // m-bit module (the non-disjoint flow writes one module per output), and
  // write_verilog_testbench embeds expectation tables of at most 12 inputs.
  if (args.has("testbench") && shared > 0) {
    throw std::invalid_argument(
        "--testbench: needs --shared 0; the non-disjoint flow writes one "
        "module per output");
  }
  if (args.has("testbench") && n > 12) {
    throw std::invalid_argument("--testbench: supports up to 12 inputs, got " +
                                std::to_string(n));
  }
  // Shared with the bench harnesses: --seed/--threads, the recorder
  // switches, --log-level/--log-file, and the --obs-dir bundle.
  RunContext::Options ctx_opts = bench::context_options(args);
  if (args.has("budget")) {
    ctx_opts.time_budget_s = args.get_double("budget", 0.0);
  }
  if (args.has("postmortem")) {
    FlightRecorder::global().arm_postmortem(
        args.get_string("postmortem", ""), /*install_handlers=*/true);
  }
  const RunContext ctx(ctx_opts);
  const auto solver = make_solver(args, n);

  Table report({"metric", "value"});
  TruthTable approx(n, m);
  std::uint64_t stored_bits = 0;
  std::uint64_t flat_bits = 0;
  double seconds = 0.0;

  if (shared == 0) {
    DaltaParams params;
    params.free_size = free_size;
    params.num_partitions = args.get_size("p", 8);
    params.rounds = args.get_size("rounds", 1);
    params.mode = mode;
    params.seed = args.get_size("seed", 42);
    const auto res = run_dalta(exact, dist, params, *solver, ctx);
    approx = res.approx;
    seconds = res.seconds;
    const auto net = res.to_lut_network();
    stored_bits = net.total_size_bits();
    flat_bits = net.total_flat_size_bits();

    if (args.has("verilog")) {
      auto f = bench::open_artifact(args, "verilog");
      write_verilog(f, net, "adsd_approx_lut");
    }
    if (args.has("testbench")) {
      auto f = bench::open_artifact(args, "testbench");
      write_verilog_testbench(f, "adsd_approx_lut", n, m, approx);
    }
  } else {
    NdDaltaParams params;
    params.free_size = free_size;
    params.shared_size = shared;
    params.num_partitions = args.get_size("p", 8);
    params.rounds = args.get_size("rounds", 1);
    params.mode = mode;
    params.seed = args.get_size("seed", 42);
    const auto res = run_dalta_nd(exact, dist, params, *solver, ctx);
    approx = res.approx;
    seconds = res.seconds;
    stored_bits = res.total_size_bits();
    flat_bits = res.total_flat_size_bits();

    if (args.has("verilog")) {
      // One module per output for the non-disjoint flow.
      auto f = bench::open_artifact(args, "verilog");
      for (unsigned k = 0; k < m; ++k) {
        const auto lut = NonDisjointLut::from_setting(
            res.outputs[k].partition, res.outputs[k].setting);
        write_verilog(f, lut, "adsd_approx_lut_y" + std::to_string(k));
        f << "\n";
      }
    }
  }

  if (args.has("hex-out")) {
    auto f = bench::open_artifact(args, "hex-out");
    write_hex(f, approx);
  }
  // One writer for every artifact flag — and, with --obs-dir, the full
  // run_id-keyed bundle (see bench/common.hpp).
  bench::write_run_artifacts(args, ctx);

  report.add_row({"inputs / outputs",
                  std::to_string(n) + " / " + std::to_string(m)});
  report.add_row({"time (s)", Table::num(seconds, 2)});
  report.print(std::cout);

  QualityReport quality =
      make_quality_report(exact, approx, dist, stored_bits);
  (void)flat_bits;  // make_quality_report recomputes the flat ledger
  quality.print(std::cout);

  // Human-readable QoR summary: quality per output without opening the
  // JSON (the Figure-1 ledger, one row per output bit).
  if (const QorRecorder* q = ctx.qor(); q != nullptr && q->has_final()) {
    const QorRecorder::Final fin = q->final_summary();
    std::cout << "\nQoR summary (" << fin.stage
              << "): ER " << Table::num(fin.error_rate, 6) << ", MED "
              << Table::num(fin.med, 6) << ", LUT bits " << fin.lut_bits
              << " of " << fin.flat_bits << " flat ("
              << Table::num(100.0 * (1.0 -
                                     static_cast<double>(fin.lut_bits) /
                                         static_cast<double>(std::max<
                                             std::uint64_t>(1,
                                                            fin.flat_bits))),
                            1)
              << "% saved)\n";
    Table qor_table({"output", "error rate", "LUT bits", "flat bits",
                     "bits saved"});
    for (std::size_t k = 0; k < fin.outputs.size(); ++k) {
      const auto& out = fin.outputs[k];
      // std::string("y"), not "y": GCC 12 at -O3 misreads the inlined
      // literal + std::string as an overlapping copy (-Wrestrict).
      qor_table.add_row(
          {std::string("y") + std::to_string(k), Table::num(out.error_rate, 6),
           std::to_string(out.lut_bits), std::to_string(out.flat_bits),
           std::to_string(static_cast<std::int64_t>(out.flat_bits) -
                          static_cast<std::int64_t>(out.lut_bits))});
    }
    qor_table.print(std::cout);
  }
  return 0;
}

int cmd_compare(const CliArgs& args) {
  args.reject_unknown({"exact", "approx", "dist"});
  const TruthTable exact = load_table_from(args.get_string("exact", ""));
  const TruthTable approx = load_table_from(args.get_string("approx", ""));
  const InputDistribution dist =
      load_distribution(args, exact.num_inputs());
  Table report({"metric", "value"});
  report.add_row({"ER", Table::num(error_rate(exact, approx, dist), 6)});
  report.add_row(
      {"MED", Table::num(mean_error_distance(exact, approx, dist), 6)});
  report.add_row(
      {"WCE", std::to_string(worst_case_error(exact, approx))});
  report.add_row(
      {"MRE", Table::num(mean_relative_error(exact, approx, dist), 6)});
  report.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const adsd::CliArgs args(argc, argv);
    const std::string cmd =
        args.positional().empty() ? "help" : args.positional()[0];
    if (cmd == "info") {
      return cmd_info();
    }
    if (cmd == "list-solvers" || args.has("list-solvers")) {
      return cmd_list_solvers();
    }
    if (cmd == "decompose") {
      return cmd_decompose(args);
    }
    if (cmd == "compare") {
      return cmd_compare(args);
    }
    std::cout << "usage: adsd_cli <info|decompose|compare> [options]\n"
                 "see the header of tools/adsd_cli.cpp for the full list\n";
    return cmd == "help" ? 0 : 2;
  } catch (const std::exception& e) {
    // Best-effort: when --postmortem armed the recorder, capture the ring
    // before reporting (no-op otherwise).
    adsd::FlightRecorder::global().dump_postmortem("exception");
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
