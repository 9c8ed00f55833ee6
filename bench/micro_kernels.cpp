// Micro-kernels (google-benchmark): the hot loops behind the experiment
// harnesses -- bSB Euler steps, Ising energy evaluation, Boolean-matrix
// construction, COP building, Theorem-3 resets, the warm start's dominant
// column pair, one greedy solve and the partition screen's multiplicity --
// sized like the
// paper's two quantization schemes (n = 9: 16x32 matrices, 64 spins;
// n = 16: 128x512 matrices, 768 spins).
//
// Observability: --trace/--report/--qor <file> follow the benchmark run
// with an instrumented reference pass (the proposed bSB solver on the
// n = 9 core COP) and write the same JSON artifacts as adsd_cli; --json
// <file> writes the measured times as a schema-v2 bench report for
// tools/bench_diff, with a derived single-thread speedup record (the
// bipartite layout over the CSR kernel on a column COP); all other flags
// pass through to google-benchmark.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "boolean/boolean_matrix.hpp"
#include "boolean/error_metrics.hpp"
#include "common.hpp"
#include "boolean/decomposition.hpp"
#include "core/column_cop.hpp"
#include "core/partition_screen.hpp"
#include "core/solver_registry.hpp"
#include "funcs/continuous.hpp"
#include "ising/bsb.hpp"
#include "ising/bsb_batch.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"

namespace {

using namespace adsd;

/// The separate-mode COP of output n / 2 of exp under a random partition,
/// under the uniform distribution (its sums are exact: ColumnCop::
/// exact_sums) or, when `weighted`, under random pattern weights.
ColumnCop make_cop(unsigned n, unsigned free_size, std::uint64_t seed,
                   bool weighted = false) {
  const auto exact = make_continuous_table(continuous_spec("exp"), n, n);
  Rng rng(seed);
  const auto w = InputPartition::random(n, free_size, rng);
  const auto m = BooleanMatrix::from_function(exact, n / 2, w);
  if (!weighted) {
    return ColumnCop::separate(
        m, matrix_probs(InputDistribution::uniform(n), w));
  }
  std::vector<double> weights(std::size_t{1} << n);
  for (double& v : weights) {
    v = rng.next_double(0.1, 3.0);
  }
  return ColumnCop::separate(
      m, matrix_probs(InputDistribution::from_weights(std::move(weights)), w));
}

void BM_MatrixFromFunction(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto exact = make_continuous_table(continuous_spec("exp"), n, n);
  Rng rng(1);
  const auto w = InputPartition::random(n, n / 2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BooleanMatrix::from_function(exact, 0, w));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(exact.num_patterns()));
}
BENCHMARK(BM_MatrixFromFunction)->Arg(9)->Arg(12)->Arg(16);

void BM_CopToIsing(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto cop = make_cop(n, n == 16 ? 7 : 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cop.to_ising());
  }
}
BENCHMARK(BM_CopToIsing)->Arg(9)->Arg(16);

void BM_BsbSolve(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto cop = make_cop(n, n == 16 ? 7 : 4, 3);
  const IsingModel model = cop.to_ising();
  SbParams params;
  params.max_iterations = 200;
  params.seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_sb(model, params));
  }
  state.SetItemsProcessed(state.iterations() * 200 *
                          static_cast<std::int64_t>(model.num_couplings()));
}
BENCHMARK(BM_BsbSolve)->Arg(9)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_BsbSolveScalar(benchmark::State& state) {
  // Seed (scalar reference) implementation on the same model as BM_BsbSolve.
  const auto n = static_cast<unsigned>(state.range(0));
  const auto cop = make_cop(n, n == 16 ? 7 : 4, 3);
  const IsingModel model = cop.to_ising();
  SbParams params;
  params.max_iterations = 200;
  params.seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_sb_scalar(model, params));
  }
  state.SetItemsProcessed(state.iterations() * 200 *
                          static_cast<std::int64_t>(model.num_couplings()));
}
BENCHMARK(BM_BsbSolveScalar)->Arg(9)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_ForceKernelR1(benchmark::State& state, kernels::ForceKernel kind) {
  // One force pass of the paper's single trajectory per core COP on the
  // column-COP models (arg = n: 64 spins at n = 9, 768 at n = 16). csr is
  // the CSR reference kernel, bipartite the layout auto resolves to on a
  // column COP, at the widest ISA; their n = 16 ratio is the
  // force_kernel_speedup_bipartite_r1 record.
  const auto n = static_cast<unsigned>(state.range(0));
  const IsingModel model = make_cop(n, n == 16 ? 7 : 4, 31).to_ising();
  SbParams params;
  params.seed = 41;
  params.kernel = kind;
  BsbBatchEngine engine(model, params);
  Rng rng(41);
  for (double& v : engine.positions()) {
    v = rng.next_double(-1.0, 1.0);
  }
  for (auto _ : state) {
    engine.compute_forces();
    benchmark::DoNotOptimize(engine.forces().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * model.num_couplings()));
}
BENCHMARK_CAPTURE(BM_ForceKernelR1, csr, kernels::ForceKernel::kScalar)
    ->Arg(9)->Arg(16);
BENCHMARK_CAPTURE(BM_ForceKernelR1, bipartite, kernels::ForceKernel::kAuto)
    ->Arg(9)->Arg(16);

void BM_BsbIntervalR1(benchmark::State& state) {
  // One advance() of 20 dependent bSB steps (n = 9's sampling
  // interval) with no sampling point: the bipartite interval kernel alone,
  // force passes and Euler steps, on the column-COP models (arg = n).
  constexpr std::size_t kSteps = 20;
  const auto n = static_cast<unsigned>(state.range(0));
  const IsingModel model = make_cop(n, n == 16 ? 7 : 4, 31).to_ising();
  SbParams params;
  params.seed = 41;
  BsbBatchEngine engine(model, params);
  Rng rng(41);
  for (double& v : engine.positions()) {
    v = rng.next_double(-1.0, 1.0);
  }
  for (auto _ : state) {
    engine.advance(engine.steps_done(), kSteps);
    benchmark::DoNotOptimize(engine.positions().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSteps));
}
BENCHMARK(BM_BsbIntervalR1)->Arg(9)->Arg(16);

void BM_TrackerSampleR1(benchmark::State& state) {
  // One sampling point's energy refresh, engine.sample(), on a column-COP
  // engine (the bipartite layout, whose tracker takes its flip fields from
  // the plane in grouped chains), arg = n. The calls cycle
  // through the 40 position planes a paper-default prop solve with the
  // Theorem-3 reset handed its tracker at its sampling points (the
  // dynamic stop off, the cap at 40 intervals), so every call sees one
  // sampling interval's flips; the copy into the engine is timed too.
  const auto n = static_cast<unsigned>(state.range(0));
  const ColumnCop cop = make_cop(n, n == 16 ? 7 : 4, 31);
  const IsingModel model = cop.to_ising();
  SbParams params = IsingCoreSolver::Options::paper_defaults(n).sb;
  params.seed = 41;
  params.stop.enabled = false;
  params.max_iterations = 40 * params.stop.sample_interval;
  std::vector<std::vector<double>> planes;
  const SbSampleHook record = [&](std::span<double> x, std::span<double> y) {
    cop.reset_optimal_t_planes(x, y);
    planes.emplace_back(x.begin(), x.end());
  };
  (void)solve_sb(model, params, record);
  BsbBatchEngine engine(model, params);
  std::size_t k = 0;
  for (auto _ : state) {
    std::copy(planes[k].begin(), planes[k].end(), engine.positions().begin());
    engine.sample();
    benchmark::DoNotOptimize(engine.energy());
    k = k + 1 == planes.size() ? 0 : k + 1;
  }
}
BENCHMARK(BM_TrackerSampleR1)->Arg(9)->Arg(16);

std::vector<IsingModel> tiny_models(std::size_t count) {
  // Independent same-shape core-COP models (n = 9 quantization: 64
  // spins), different random partitions so the coupling values differ
  // per member.
  std::vector<IsingModel> models;
  models.reserve(count);
  for (std::size_t m = 0; m < count; ++m) {
    models.push_back(make_cop(9, 4, 100 + m).to_ising());
  }
  return models;
}

// K tiny solves, one BsbBatchEngine per instance (the bipartite layout,
// which vectorizes across rows), fixed 200 steps: the paper's single
// trajectory per COP, looped.
void BM_TinySolveLooped(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto models = tiny_models(k);
  SbParams params;
  params.max_iterations = 200;
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t m = 0; m < k; ++m) {
      SbParams p = params;
      p.seed = 900 + m;
      BsbBatchEngine engine(models[m], p);
      acc += engine.run().energy;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k) * 200);
}
BENCHMARK(BM_TinySolveLooped)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_EngineSolve(benchmark::State& state, const char* spec) {
  // Full registry-built COP solves on the n = 9 core COP (64 spins), one
  // per engine of the unified layer at its registry defaults: what a
  // DALTA inner call costs under each dynamics. Single thread, so the
  // captured times are valid on any host (--json maps them to the
  // engine_solve_s_* records).
  const auto cop = make_cop(9, 4, 3);
  const auto solver = SolverRegistry::global().make_from_spec(spec);
  for (auto _ : state) {
    CoreSolveStats stats;
    benchmark::DoNotOptimize(solver->solve(cop, 42, &stats));
  }
}
BENCHMARK_CAPTURE(BM_EngineSolve, prop, "prop,n=9")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_EngineSolve, doch, "doch,n=9")
    ->Unit(benchmark::kMicrosecond);

void BM_MetricsOffPath(benchmark::State& state) {
  // Cost of one disarmed instrumentation site: a relaxed load of the armed
  // pointer plus the never-taken branch — the price every run_engine()
  // iteration pays when no context has metrics enabled. 16 sites per
  // benchmark iteration amortize the loop/reporting overhead out, so the
  // per-site budget (<= 2 ns, gated via BENCH_kernels.json on the 16-site
  // time) is read off items_per_second.
  for (auto _ : state) {
    std::uint64_t armed_hits = 0;
    for (int i = 0; i < 16; ++i) {
      if (MetricsRegistry::armed() != nullptr) {
        ++armed_hits;
      }
    }
    benchmark::DoNotOptimize(armed_hits);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_MetricsOffPath);

void BM_MetricsHotPath(benchmark::State& state) {
  // Cost of one armed site with the metric references cached (the pattern
  // run_engine() uses): a relaxed counter add plus one histogram record
  // (bucket fetch_add + CAS folds of sum/min/max).
  MetricsRegistry::arm();
  MetricsRegistry& reg = MetricsRegistry::global();
  MetricsRegistry::Counter& hits = reg.counter("bench_hot_path_total");
  MetricsRegistry::Histogram& lat =
      reg.histogram("bench_hot_path_latency_us");
  double v = 1.0;
  for (auto _ : state) {
    hits.add();
    lat.record(v);
    v = v < 4096.0 ? v * 1.25 : 1.0;
  }
  MetricsRegistry::disarm();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHotPath);

void BM_LogOffPath(benchmark::State& state) {
  // Cost of one disarmed structured-log site: the relaxed Logger::armed()
  // load plus the never-taken branch — what every ADSD_LOG_* site costs
  // when no context armed the logger. Same 16-sites-per-iteration
  // amortization (and the same <= 2 ns per-site budget, gated via
  // BENCH_kernels.json) as BM_MetricsOffPath.
  for (auto _ : state) {
    std::uint64_t armed_hits = 0;
    for (int i = 0; i < 16; ++i) {
      if (Logger::armed() != nullptr) {
        ++armed_hits;
      }
    }
    benchmark::DoNotOptimize(armed_hits);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_LogOffPath);

void BM_LogHotPath(benchmark::State& state) {
  // Cost of one armed, level-enabled site: under the logger's mutex,
  // serialize an adsd-log-v1 line with three typed fields, keep it in the
  // tail ring, and write and flush it to the sink (here /dev/null, so the
  // flush's write(2) is timed but no disk). The rate limiter is opened wide
  // so every iteration takes the full serialize-and-write path.
  Logger::Options opts;
  opts.level = LogLevel::kDebug;
  opts.path = "/dev/null";
  opts.site_rate_per_s = 1e12;
  opts.site_burst = 1e12;
  Logger::arm(opts);
  Logger& log = Logger::global();
  static LogSite site{"bench/log", __FILE__, __LINE__};
  std::uint64_t i = 0;
  for (auto _ : state) {
    log.log(site, LogLevel::kInfo, "hot path probe",
            {{"iter", i}, {"value", 1.25}, {"flag", true}});
    ++i;
  }
  Logger::disarm();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogHotPath);

void BM_IsingEnergy(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const auto cop = make_cop(n, n == 16 ? 7 : 4, 7);
  const IsingModel model = cop.to_ising();
  Rng rng(11);
  std::vector<std::int8_t> spins(model.num_spins());
  for (auto& s : spins) {
    s = static_cast<std::int8_t>(rng.next_spin());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.energy(spins));
  }
}
BENCHMARK(BM_IsingEnergy)->Arg(9)->Arg(16);

void BM_Theorem3Reset(benchmark::State& state) {
  // The plane reset a prop solve runs at every sampling point: optimal T
  // for the current V signs, written into the oscillator planes.
  const auto n = static_cast<unsigned>(state.range(0));
  const auto cop = make_cop(n, n == 16 ? 7 : 4, 13);
  Rng rng(17);
  std::vector<double> x(cop.num_spins());
  std::vector<double> y(cop.num_spins(), 0.0);
  for (double& v : x) {
    v = rng.next_double(-1.0, 1.0);
  }
  bool degenerate = false;
  for (auto _ : state) {
    cop.reset_optimal_t_planes(x, y, &degenerate);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_Theorem3Reset)->Arg(9)->Arg(16);

/// Times one ColumnCop::objective() call (the warm start, the polish, the
/// incumbent re-score and the greedy solver) on a random setting, so
/// which cells pay their gain varies cell by cell.
void time_objective(benchmark::State& state, const ColumnCop& cop) {
  Rng rng(23);
  ColumnSetting s;
  s.v1 = BitVec(cop.rows());
  s.v2 = BitVec(cop.rows());
  s.t = BitVec(cop.cols());
  for (std::size_t i = 0; i < cop.rows(); ++i) {
    s.v1.set(i, rng.next_bool());
    s.v2.set(i, rng.next_bool());
  }
  for (std::size_t j = 0; j < cop.cols(); ++j) {
    s.t.set(j, rng.next_bool());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cop.objective(s));
  }
}

void BM_ObjectiveEvaluation(benchmark::State& state) {
  // A uniform COP: its sums are exact, so the certified masked sum runs.
  const auto n = static_cast<unsigned>(state.range(0));
  time_objective(state, make_cop(n, n == 16 ? 7 : 4, 19));
}
BENCHMARK(BM_ObjectiveEvaluation)->Arg(9)->Arg(16);

void BM_ObjectiveEvaluationWeighted(benchmark::State& state) {
  // A weighted COP: its sums round, so the row-major chain runs.
  const auto n = static_cast<unsigned>(state.range(0));
  time_objective(state, make_cop(n, n == 16 ? 7 : 4, 19, true));
}
BENCHMARK(BM_ObjectiveEvaluationWeighted)->Arg(9)->Arg(16);

void BM_DominantColumnPair(benchmark::State& state) {
  // The warm start of every prop COP solve and of the greedy baseline.
  const auto n = static_cast<unsigned>(state.range(0));
  const auto cop = make_cop(n, n == 16 ? 7 : 4, 29);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dominant_column_pair(cop.exact_matrix()));
  }
}
BENCHMARK(BM_DominantColumnPair)->Arg(9)->Arg(16);

void BM_ScreenMultiplicity(benchmark::State& state) {
  // One candidate's column multiplicity, the unit of the partition screen.
  const auto n = static_cast<unsigned>(state.range(0));
  const auto exact = make_continuous_table(continuous_spec("exp"), n, n);
  const PartitionScreener screener(exact.output(n / 2), n);
  Rng rng(31);
  std::vector<InputPartition> candidates;
  for (int i = 0; i < 16; ++i) {
    candidates.push_back(InputPartition::random(n, n == 16 ? 7 : 4, rng));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(screener.multiplicity(candidates[k++ % 16]));
  }
}
BENCHMARK(BM_ScreenMultiplicity)->Arg(9)->Arg(16);

/// Sixteen joint-mode candidates of one output, as run_dalta builds them:
/// the exp table, output n / 2 with integer D per pattern in +-2 bit
/// weights (and that bound on |D|, so the COPs' sums are certified exact),
/// and 16 random partitions (free 4 at n = 9, 7 at n = 16).
struct JointCandidates {
  TruthTable exact;
  InputDistribution dist;
  std::vector<double> d_by_input;
  std::vector<InputPartition> partitions;
  unsigned k;

  explicit JointCandidates(unsigned n)
      : exact(make_continuous_table(continuous_spec("exp"), n, n)),
        dist(InputDistribution::uniform(n)),
        d_by_input(exact.num_patterns()),
        k(n / 2) {
    Rng rng(37);
    const auto span = static_cast<std::int64_t>(std::uint64_t{1} << (k + 1));
    for (double& v : d_by_input) {
      v = static_cast<double>(
          static_cast<std::int64_t>(rng.next_below(2 * span + 1)) - span);
    }
    for (int i = 0; i < 16; ++i) {
      partitions.push_back(InputPartition::random(n, n == 16 ? 7 : 4, rng));
    }
  }

  CopSource source() const {
    // Every D lies within the span drawn from, 2^(k+1).
    return CopSource{exact.output(k), dist, DecompMode::kJoint, d_by_input,
                     static_cast<double>(std::uint64_t{1} << k),
                     static_cast<double>(std::uint64_t{1} << (k + 1))};
  }
};

void BM_CopBuild(benchmark::State& state) {
  // One candidate's joint-mode COP in the one-pass build (cell patterns,
  // then matrix bits, D and base/gain per cell), into reused storage as a
  // DALTA worker builds it.
  const JointCandidates cands(static_cast<unsigned>(state.range(0)));
  const CopSource src = cands.source();
  CellPatterns cells;
  std::optional<ColumnCop> cop;
  std::size_t i = 0;
  for (auto _ : state) {
    cells.assign(cands.partitions[i++ % 16]);
    benchmark::DoNotOptimize(&ColumnCop::gather_into(src, cells, cop));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CopBuild)->Arg(9)->Arg(16);

void BM_HalfSteps(benchmark::State& state) {
  // Greedy's half-step pair on a fixed setting: one Theorem-3 T reset,
  // then one V reset, on each candidate's COP from the same random V1/V2.
  const JointCandidates cands(static_cast<unsigned>(state.range(0)));
  const CopSource src = cands.source();
  std::vector<ColumnCop> cops;
  std::vector<ColumnSetting> starts;
  CellPatterns cells;
  Rng rng(41);
  for (const InputPartition& w : cands.partitions) {
    cells.assign(w);
    cops.push_back(ColumnCop::gather(src, cells));
    ColumnSetting s;
    s.v1 = BitVec(cops.back().rows());
    s.v2 = BitVec(cops.back().rows());
    s.t = BitVec(cops.back().cols());
    for (std::size_t i = 0; i < s.v1.size(); ++i) {
      s.v1.set(i, rng.next_bool());
      s.v2.set(i, rng.next_bool());
    }
    starts.push_back(std::move(s));
  }
  ColumnSetting s = starts[0];
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = i++ % 16;
    s = starts[k];  // same shape: the copy reuses s's storage
    cops[k].reset_optimal_t(s);
    cops[k].reset_optimal_v(s);
    benchmark::DoNotOptimize(&s);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HalfSteps)->Arg(9)->Arg(16);

void BM_GreedySolve(benchmark::State& state) {
  // One `dalta` solve (the dominant column pair, then alternating
  // half-steps to a fixpoint): the greedy baseline's cost per candidate.
  const JointCandidates cands(static_cast<unsigned>(state.range(0)));
  const CopSource src = cands.source();
  std::vector<ColumnCop> cops;
  CellPatterns cells;
  for (const InputPartition& w : cands.partitions) {
    cells.assign(w);
    cops.push_back(ColumnCop::gather(src, cells));
  }
  const auto solver = SolverRegistry::global().make_from_spec("dalta");
  std::size_t i = 0;
  for (auto _ : state) {
    CoreSolveStats stats;
    benchmark::DoNotOptimize(solver->solve(cops[i++ % 16], 0, &stats));
  }
}
BENCHMARK(BM_GreedySolve)->Arg(9)->Arg(16);

/// Console reporter that additionally captures each run's adjusted real
/// time in seconds, keyed by the full benchmark name, so the --json writer
/// can emit schema-v2 records after the run.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) {
        continue;
      }
      seconds_[run.benchmark_name()] =
          run.GetAdjustedRealTime() /
          benchmark::GetTimeUnitMultiplier(run.time_unit);
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::map<std::string, double>& seconds() const { return seconds_; }

 private:
  std::map<std::string, double> seconds_;
};

}  // namespace

// BENCHMARK_MAIN expansion plus the observability flags: strip them (and
// their detached values) before handing argv to google-benchmark, and when
// any artifact was requested, run an instrumented reference pass through
// the proposed solver so the trace/report/qor capture the real solve stack.
int main(int argc, char** argv) {
  const adsd::CliArgs args(argc, argv);
  std::vector<char*> bench_argv = bench::strip_harness_flags(argc, argv);
  // The display reporter below captures times for --json and prints the
  // console table, so a google-benchmark --benchmark_format (the flag or its
  // BENCHMARK_FORMAT variable) would be silently ignored: reject it.
  const char* env_format = std::getenv("BENCHMARK_FORMAT");
  std::string format = env_format != nullptr ? env_format : "console";
  constexpr std::string_view kFormatFlag = "--benchmark_format=";
  for (const char* arg : bench_argv) {
    if (std::string_view(arg).substr(0, kFormatFlag.size()) == kFormatFlag) {
      format = arg + kFormatFlag.size();
    }
  }
  if (format != "console") {
    std::cerr << "error: --benchmark_format=" << format
              << " is not supported: this harness prints the console table;"
                 " for google-benchmark's JSON use --benchmark_out=<file>"
                 " --benchmark_out_format=json, for the schema-v2 report"
                 " --json <file>\n";
    return 1;
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             bench_argv.data())) {
    return 1;
  }
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Instrumented reference pass first (it arms the recorders only after
  // every benchmark — including the off-path probes — has finished), so the
  // --json report below can carry its run_id in the host block.
  std::string run_id;
  if (args.has("trace") || args.has("report") || args.has("qor") ||
      args.has("metrics") || args.has("log-level") || args.has("log-file") ||
      args.has("obs-dir")) {
    const RunContext ctx(bench::context_options(args));
    run_id = ctx.run_id();
    const auto solver = bench::make_solver("prop", 9, 0.0);
    const auto cop = make_cop(9, 4, 3);
    const std::uint64_t seed = args.get_size("seed", 42);
    for (std::uint64_t i = 0; i < 8; ++i) {
      CoreSolveStats stats;
      (void)solver->solve(cop, ctx, seed + i, &stats);
    }
    bench::write_run_artifacts(args, ctx);
  }

  if (args.has("json")) {
    bench::BenchReport report("micro_kernels");
    report.set_run_id(run_id);
    for (const auto& [name, seconds] : reporter.seconds()) {
      report.add_time("kernels/" + name, seconds);
    }
    const auto& secs = reporter.seconds();
    // Bipartite layout over the CSR kernel on the n = 16 column-COP
    // model: the force pass every `prop` solve runs. Single-thread ratio,
    // valid anywhere.
    {
      const auto csr = secs.find("BM_ForceKernelR1/csr/16");
      const auto bipartite = secs.find("BM_ForceKernelR1/bipartite/16");
      if (csr != secs.end() && bipartite != secs.end() &&
          bipartite->second > 0.0) {
        report.add_derived("force_kernel_speedup_bipartite_r1",
                           csr->second / bipartite->second, "max", true,
                           "single-thread ratio vs the CSR kernel, "
                           "R=1, n=16 column COP");
      }
    }
    // Named full-solve records for the unified engine layer, in seconds
    // like every time record. Single thread, so valid on any host.
    for (const auto& [tag, label] : {
             std::pair<const char*, const char*>{"prop",
                                                 "engine_solve_s_prop"},
             std::pair<const char*, const char*>{"doch",
                                                 "engine_solve_s_doch"}}) {
      const auto it = secs.find(std::string("BM_EngineSolve/") + tag);
      if (it != secs.end()) {
        report.add_time(label, it->second, true,
                        "single-thread registry solve, n=9 core COP, R=1");
      }
    }
    const std::string path = args.get_string("json", "");
    std::ofstream f(path);
    if (!f) {
      std::cerr << "cannot open --json file '" << path << "'\n";
      return 1;
    }
    report.write(f);
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}
