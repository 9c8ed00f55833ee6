#pragma once

// The benchmark's workloads and the closed-loop pass that runs them: one
// caller issues run_dalta calls back to back, each starting after the
// previous one returned, and checks every result as it comes back.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "boolean/error_metrics.hpp"
#include "boolean/truth_table.hpp"
#include "core/dalta.hpp"
#include "measure.hpp"
#include "support/run_context.hpp"

namespace perfbench {

/// One workload: the framework shape and the functions it decomposes.
struct Workload {
  std::string name;
  unsigned n = 9;
  unsigned m = 0;  // output bits; 0 = the paper's width at n
  unsigned free_size = 4;
  adsd::DecompMode mode = adsd::DecompMode::kJoint;
  std::vector<std::string> functions;
  std::size_t partitions = 16;  // P; every variant's pack width too
  std::size_t rounds = 1;       // R
  std::size_t screen_factor = 1;
  std::size_t workers = 4;
  /// DALTA seeds per pass set, all derived from the workload seed. More
  /// seeds average out the luck of the candidate-partition draw.
  std::size_t subseeds = 1;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// The three solver variants every workload runs on identical candidate
/// partitions and seeds.
enum Variant : std::size_t { kProp = 0, kPack = 1, kGreedy = 2 };
inline constexpr std::size_t kVariants = 3;

/// "prop", "pack", "greedy": the metric-name prefix of each variant.
const char* variant_name(std::size_t variant);

/// Registry spec: "prop" (looped bSB, registry defaults), "prop,pack=<P>"
/// (one pack per output-round), "dalta" (the strengthened greedy baseline).
std::string variant_spec(const Workload& w, std::size_t variant);

/// Builds a registry solver with the table width overlaid, as the CLI does.
std::unique_ptr<adsd::CoreCopSolver> make_solver(const std::string& spec,
                                                 unsigned n);

adsd::DaltaParams dalta_params(const Workload& w);

/// The DALTA seed of sub-seed `j` of workload seed `seed`.
std::uint64_t subseed(std::uint64_t seed, std::size_t j);

/// A context with every recorder off unless `trace` arms the library's own
/// TraceRecorder; the pool is started before returning.
std::unique_ptr<adsd::RunContext> make_context(const Workload& w,
                                               std::uint64_t dalta_seed,
                                               bool trace = false);

/// Everything built before the first run_dalta: the truth tables, the three
/// registry solvers, and the context of sub-seed 0 with its pool.
struct Setup {
  std::vector<adsd::TruthTable> tables;
  std::array<std::unique_ptr<adsd::CoreCopSolver>, kVariants> solvers;
  std::unique_ptr<adsd::RunContext> ctx;
  double table_s = 0.0;  // the make_benchmark_table share of total_s
  double total_s = 0.0;
};
Setup make_setup(const Workload& w, std::uint64_t seed);

/// Attempted and failed run_dalta operations. An operation fails when it
/// throws or when its result misses any check.
struct OpCount {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  // the first few, for the log

  void fail(std::string what);
  double fail_frac() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

/// Empty when `r` is consistent with `exact`: its LUT network reproduces
/// r.approx over all 2^n inputs, and recomputing the MED and error rate
/// gives r.med and r.error_rate exactly. With a log, the two checks are
/// recorded as "verify/lut" and "verify/med" spans.
std::string verify_result(const adsd::TruthTable& exact,
                          const adsd::InputDistribution& dist,
                          const adsd::DaltaResult& r, SpanLog* log = nullptr);

/// Results, wall times and CPU times [function][variant] of one pass, and
/// the per-variant times summed over its functions. The CPU time of a
/// run_dalta call is the whole process's (caller and pool workers) across
/// the call; see process_cpu_s().
struct Pass {
  std::vector<std::array<std::optional<adsd::DaltaResult>, kVariants>> results;
  std::vector<std::array<double, kVariants>> function_wall_s;
  std::vector<std::array<double, kVariants>> function_cpu_s;
  std::array<double, kVariants> wall_s{};
  std::array<double, kVariants> cpu_s{};
};

struct PassOptions {
  /// Solver per variant; a null entry skips that variant.
  std::array<const adsd::CoreCopSolver*, kVariants> solvers{};
  /// Back-to-back runs per function and variant; the variant's wall and CPU
  /// times for that function are their medians, and every repeat must
  /// reproduce the first one's result.
  std::array<std::size_t, kVariants> repeats = {1, 1, 1};
  /// Results this pass must reproduce bit for bit: each variant its own,
  /// and the packed variant looped prop's.
  const Pass* reference = nullptr;
  /// Spans: function -> variant -> run_dalta (-> solves) plus the checks.
  SpanLog* log = nullptr;
  /// Called after each function's variants, outside every timed interval.
  std::function<void()> after_function;
};

/// Runs every function x variant under `ctx`, function-major. Every result
/// is verified, the packed result is compared against looped prop's of the
/// same pass, and each is compared against `opts.reference`.
Pass run_pass(const Workload& w, const std::vector<adsd::TruthTable>& tables,
              const adsd::InputDistribution& dist, const PassOptions& opts,
              const adsd::RunContext& ctx, OpCount& ops);

}  // namespace perfbench
