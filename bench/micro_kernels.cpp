// Micro-kernels (google-benchmark): the hot loops behind the experiment
// harnesses -- bSB Euler steps, Ising energy evaluation, Boolean-matrix
// construction, COP building, Theorem-3 resets, the warm start's dominant
// column pair and the partition screen's multiplicity -- sized like the
// paper's two quantization schemes (n = 9: 16x32 matrices, 64 spins;
// n = 16: 128x512 matrices, 768 spins).
//
// Observability: --trace/--report/--qor <file> follow the benchmark run
// with an instrumented reference pass (the proposed bSB solver on the
// n = 9 core COP) and write the same JSON artifacts as adsd_cli; --json
// <file> writes the measured times as a schema-v2 bench report for
// tools/bench_diff, with derived single-thread speedup records (the
// bipartite layout over the CSR kernel at R = 1, the pack over looped
// solves); all other flags pass through to google-benchmark.

#include <benchmark/benchmark.h>

#include <fstream>
#include <map>
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
#include "ising/bsb_pack.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"

namespace {

using namespace adsd;

ColumnCop make_cop(unsigned n, unsigned free_size, std::uint64_t seed) {
  const auto exact = make_continuous_table(continuous_spec("exp"), n, n);
  const auto dist = InputDistribution::uniform(n);
  Rng rng(seed);
  const auto w = InputPartition::random(n, free_size, rng);
  const auto m = BooleanMatrix::from_function(exact, n / 2, w);
  return ColumnCop::separate(m, matrix_probs(dist, w));
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

void BM_BsbEnsembleVsRestarts(benchmark::State& state) {
  // Throughput of 8 replicas integrated in lockstep (arg 1) vs 8 sequential
  // scalar restarts (arg 0) on the n = 16 core-COP model.
  const bool ensemble = state.range(0) != 0;
  const auto cop = make_cop(16, 7, 29);
  const IsingModel model = cop.to_ising();
  SbParams params;
  params.max_iterations = 100;
  params.seed = 5;
  for (auto _ : state) {
    if (ensemble) {
      benchmark::DoNotOptimize(solve_sb_batch(model, params, 8));
    } else {
      double best = 1e300;
      for (std::size_t r = 0; r < 8; ++r) {
        SbParams pr = params;
        pr.seed = params.seed + 0x9e3779b9u * r;
        best = std::min(best, solve_sb_scalar(model, pr).energy);
      }
      benchmark::DoNotOptimize(best);
    }
  }
}
BENCHMARK(BM_BsbEnsembleVsRestarts)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ForceKernelScalar(benchmark::State& state) {
  // R independent scalar force evaluations (one CSR traversal each) on the
  // n = 9 core-COP model (64 spins) -- the per-step cost of R sequential
  // restarts in the seed implementation.
  const auto replicas = static_cast<std::size_t>(state.range(0));
  const auto cop = make_cop(9, 4, 31);
  const IsingModel model = cop.to_ising();
  const std::size_t n = model.num_spins();
  Rng rng(41);
  std::vector<std::vector<double>> x(replicas, std::vector<double>(n));
  for (auto& xr : x) {
    for (auto& v : xr) {
      v = rng.next_double(-1.0, 1.0);
    }
  }
  std::vector<double> force(n);
  for (auto _ : state) {
    for (std::size_t r = 0; r < replicas; ++r) {
      model.local_fields(x[r], force);
      benchmark::DoNotOptimize(force.data());
    }
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(replicas) *
      static_cast<std::int64_t>(model.num_couplings()));
}
BENCHMARK(BM_ForceKernelScalar)->Arg(8)->Arg(32);

void BM_ForceKernelBatch(benchmark::State& state) {
  // Same R force evaluations through the batched engine: one flattened CSR
  // traversal with a replica-contiguous inner loop.
  const auto replicas = static_cast<std::size_t>(state.range(0));
  const auto cop = make_cop(9, 4, 31);
  const IsingModel model = cop.to_ising();
  SbParams params;
  params.seed = 41;
  BsbBatchEngine engine(model, params, replicas);
  Rng rng(41);
  auto x = engine.positions();
  for (auto& v : x) {
    v = rng.next_double(-1.0, 1.0);
  }
  for (auto _ : state) {
    engine.compute_forces();
    benchmark::DoNotOptimize(engine.forces().data());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(replicas) *
      static_cast<std::int64_t>(model.num_couplings()));
}
BENCHMARK(BM_ForceKernelBatch)->Arg(8)->Arg(32);

void run_force_variant(benchmark::State& state, const IsingModel& model,
                       kernels::ForceKernel kind) {
  // Items processed counts CSR edge-lane updates, so rates are comparable
  // across models and replica counts.
  const auto replicas = static_cast<std::size_t>(state.range(0));
  SbParams params;
  params.seed = 41;
  params.kernel = kind;
  BsbBatchEngine engine(model, params, replicas);
  Rng rng(41);
  auto x = engine.positions();
  for (auto& v : x) {
    v = rng.next_double(-1.0, 1.0);
  }
  for (auto _ : state) {
    engine.compute_forces();
    benchmark::DoNotOptimize(engine.forces().data());
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(replicas) *
      static_cast<std::int64_t>(2 * model.num_couplings()));
}

void BM_ForceKernelVariant(benchmark::State& state,
                           kernels::ForceKernel kind) {
  // The CSR force kernel on the n = 16 core-COP model (768 spins, ~45% of
  // the possible couplings present). Arg = replicas.
  const auto cop = make_cop(16, 7, 31);
  run_force_variant(state, cop.to_ising(), kind);
}
BENCHMARK_CAPTURE(BM_ForceKernelVariant, scalar, kernels::ForceKernel::kScalar)
    ->Arg(8)->Arg(32);

void BM_ForceKernelDenseModel(benchmark::State& state,
                              kernels::ForceKernel kind) {
  // The CSR kernel on a near-complete random model (256 spins, ~98% of
  // the couplings present): what such models cost at R > 1.
  Rng rng(59);
  IsingModel model(256);
  for (std::size_t i = 0; i < 256; ++i) {
    model.set_bias(i, rng.next_double(-1.0, 1.0));
    for (std::size_t j = i + 1; j < 256; ++j) {
      if (rng.next_double() < 0.98) {
        model.add_coupling(i, j, rng.next_double(-1.0, 1.0));
      }
    }
  }
  model.finalize();
  run_force_variant(state, model, kind);
}
BENCHMARK_CAPTURE(BM_ForceKernelDenseModel, scalar,
                  kernels::ForceKernel::kScalar)->Arg(8)->Arg(32);

void BM_ForceKernelR1(benchmark::State& state, kernels::ForceKernel kind) {
  // One R = 1 force pass -- the paper's single trajectory per core COP --
  // on the column-COP models (arg = n: 64 spins at n = 9, 768 at n = 16).
  // csr is the CSR reference kernel, bipartite the layout auto resolves to
  // at R = 1 on a column COP, at the widest ISA; their n = 16 ratio is the
  // force_kernel_speedup_bipartite_r1 record.
  const auto n = static_cast<unsigned>(state.range(0));
  const IsingModel model = make_cop(n, n == 16 ? 7 : 4, 31).to_ising();
  SbParams params;
  params.seed = 41;
  params.kernel = kind;
  BsbBatchEngine engine(model, params, 1);
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
  // One R = 1 advance() of 20 dependent bSB steps (n = 9's sampling
  // interval) with no sampling point: the bipartite interval kernel alone,
  // force passes and Euler steps, on the column-COP models (arg = n).
  constexpr std::size_t kSteps = 20;
  const auto n = static_cast<unsigned>(state.range(0));
  const IsingModel model = make_cop(n, n == 16 ? 7 : 4, 31).to_ising();
  SbParams params;
  params.seed = 41;
  BsbBatchEngine engine(model, params, 1);
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

void BM_BsbSolveKernel(benchmark::State& state, kernels::ForceKernel kind) {
  // Full batched solve (8 replicas, 100 steps) on the n = 16 core-COP
  // model through the CSR kernel, with integration/sampling overhead
  // included.
  const auto cop = make_cop(16, 7, 29);
  const IsingModel model = cop.to_ising();
  SbParams params;
  params.max_iterations = 100;
  params.seed = 5;
  params.kernel = kind;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_sb_batch(model, params, 8));
  }
}
BENCHMARK_CAPTURE(BM_BsbSolveKernel, scalar, kernels::ForceKernel::kScalar)
    ->Unit(benchmark::kMillisecond);

std::vector<IsingModel> tiny_models(std::size_t count) {
  // Independent same-shape core-COP models (n = 9 quantization: 64 spins,
  // inside the tiny-solve band the packed engine targets), different
  // random partitions so the coupling values differ per member.
  std::vector<IsingModel> models;
  models.reserve(count);
  for (std::size_t m = 0; m < count; ++m) {
    models.push_back(make_cop(9, 4, 100 + m).to_ising());
  }
  return models;
}

// K tiny solves the pre-packing way: one BsbBatchEngine per instance at
// `replicas`, fixed 200 steps so looped and packed do identical work. At
// R = 1 each engine runs the bipartite layout, which vectorizes across
// rows; at R = 2 it runs the CSR kernel, whose two replica lanes leave
// most of a vector idle.
void tiny_solve_looped(benchmark::State& state, std::size_t replicas) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto models = tiny_models(k);
  SbParams params;
  params.max_iterations = 200;
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t m = 0; m < k; ++m) {
      SbParams p = params;
      p.seed = 900 + m;
      BsbBatchEngine engine(models[m], p, replicas);
      acc += engine.run().energy;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k) * 200);
}

// The same K solves through one BsbPackEngine run at `replicas`: engine
// construction included, since building the per-slot planes is part of
// the packed path's real cost. Results are bit-identical to the looped
// runs (tests/test_bsb_pack.cpp), so the ratio is pure throughput.
void tiny_solve_packed(benchmark::State& state, std::size_t replicas) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto models = tiny_models(k);
  SbParams params;
  params.max_iterations = 200;
  std::vector<PackMember> members;
  for (std::size_t m = 0; m < k; ++m) {
    members.push_back({&models[m], 900 + m, {}});
  }
  for (auto _ : state) {
    BsbPackEngine engine(members, params, replicas);
    const auto results = engine.run();
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k) * 200);
}

// R = 1, where the looped solves win and PackedCoreCopSolver's slot gate
// declines to pack, and R = 2, where the pack wins and the gate packs.
void BM_TinySolveLooped(benchmark::State& state) {
  tiny_solve_looped(state, 1);
}
BENCHMARK(BM_TinySolveLooped)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_TinySolvePacked(benchmark::State& state) {
  tiny_solve_packed(state, 1);
}
BENCHMARK(BM_TinySolvePacked)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_TinySolveLoopedR2(benchmark::State& state) {
  tiny_solve_looped(state, 2);
}
BENCHMARK(BM_TinySolveLoopedR2)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_TinySolvePackedR2(benchmark::State& state) {
  tiny_solve_packed(state, 2);
}
BENCHMARK(BM_TinySolvePackedR2)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_EngineSolve(benchmark::State& state, const char* spec) {
  // Full registry-built COP solves on the n = 9 core COP (64 spins), one
  // per engine of the unified layer at the same ensemble size: what a
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
BENCHMARK_CAPTURE(BM_EngineSolve, prop, "prop,n=9,replicas=8")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_EngineSolve, doch, "doch,n=9,replicas=8")
    ->Unit(benchmark::kMicrosecond);

void BM_SampleEnergyScratch(benchmark::State& state) {
  // Per-sampling-point energy refresh of the seed ensemble: every replica's
  // energy recomputed from scratch, O(edges) each.
  const auto replicas = static_cast<std::size_t>(state.range(0));
  const auto cop = make_cop(9, 4, 37);
  const IsingModel model = cop.to_ising();
  const std::size_t n = model.num_spins();
  SbParams params;
  params.max_iterations = 1u << 30;  // keep the pump ramp flat
  params.seed = 43;
  BsbBatchEngine engine(model, params, replicas);
  std::vector<std::int8_t> spins(n);
  for (auto _ : state) {
    engine.step();
    auto x = engine.positions();
    for (std::size_t r = 0; r < replicas; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        spins[i] = x[i * replicas + r] >= 0.0 ? std::int8_t{1} : std::int8_t{-1};
      }
      benchmark::DoNotOptimize(model.energy(spins));
    }
  }
}

void BM_SampleEnergyIncremental(benchmark::State& state) {
  // The batched engine's incremental refresh: flip telescopes only for the
  // spins whose sign actually changed since the last sampling point.
  const auto replicas = static_cast<std::size_t>(state.range(0));
  const auto cop = make_cop(9, 4, 37);
  const IsingModel model = cop.to_ising();
  SbParams params;
  params.max_iterations = 1u << 30;
  params.seed = 43;
  BsbBatchEngine engine(model, params, replicas);
  for (auto _ : state) {
    engine.step();
    engine.sample();
    benchmark::DoNotOptimize(engine.energies().data());
  }
}
BENCHMARK(BM_SampleEnergyScratch)->Arg(8);
BENCHMARK(BM_SampleEnergyIncremental)->Arg(8);

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
  // Cost of one armed, level-enabled site: serialize an adsd-log-v1 line
  // with three typed fields into the per-thread ring (the async sink
  // drains off the timed path). The rate limiter is opened wide so every
  // iteration takes the full serialize-and-publish path.
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
  // The plane reset a looped R = 1 solve runs at every sampling point:
  // optimal T for the current V signs, written into the oscillator planes.
  const auto n = static_cast<unsigned>(state.range(0));
  const auto cop = make_cop(n, n == 16 ? 7 : 4, 13);
  Rng rng(17);
  std::vector<double> x(cop.num_spins());
  std::vector<double> y(cop.num_spins(), 0.0);
  for (double& v : x) {
    v = rng.next_double(-1.0, 1.0);
  }
  std::vector<std::uint8_t> degenerate;
  for (auto _ : state) {
    cop.reset_optimal_t_planes(x, y, 1, &degenerate);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_Theorem3Reset)->Arg(9)->Arg(16);

void BM_ObjectiveEvaluation(benchmark::State& state) {
  // One ColumnCop::objective() call (the warm start, the polish, the
  // incumbent re-score and the greedy solver) on a random setting, so
  // which cells pay their gain varies cell by cell.
  const auto n = static_cast<unsigned>(state.range(0));
  const auto cop = make_cop(n, n == 16 ? 7 : 4, 19);
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
BENCHMARK(BM_ObjectiveEvaluation)->Arg(9)->Arg(16);

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
    const auto solver = bench::make_solver("prop", 9, 0.0, 8);
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
    // Bipartite layout over the CSR kernel at R = 1 on the n = 16
    // column-COP model: the single-trajectory force pass looped `prop`
    // runs. Single-thread ratio, valid anywhere.
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
    // Packed-vs-looped tiny-solve speedups (single thread, 64-spin
    // instances): one BsbPackEngine run against K sequential BsbBatchEngine
    // solves of the same instances, at R = 1 for K = 4, 16, 64 and at
    // R = 2 for K = 64 -- the two sides of PackedCoreCopSolver's slot gate.
    // Single-thread ratios, valid anywhere.
    const auto packed_speedup = [&](const std::string& suffix,
                                    const std::string& label,
                                    const char* note) {
      const auto looped = secs.find("BM_TinySolveLooped" + suffix);
      const auto packed = secs.find("BM_TinySolvePacked" + suffix);
      if (looped != secs.end() && packed != secs.end() &&
          packed->second > 0.0) {
        report.add_derived(label, looped->second / packed->second, "max",
                           true, note);
      }
    };
    for (const char* k : {"4", "16", "64"}) {
      packed_speedup(std::string("/") + k,
                     std::string("packed_solve_speedup_k") + k,
                     "single-thread ratio, R=1, 64-spin instances");
    }
    packed_speedup("R2/64", "packed_solve_speedup_r2_k64",
                   "single-thread ratio, R=2, 64-spin instances");
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
                        "single-thread registry solve, n=9 core COP, R=8");
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
