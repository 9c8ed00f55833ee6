#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "core/dalta.hpp"
#include "core/solver_registry.hpp"
#include "funcs/registry.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/run_context.hpp"
#include "support/thread_pool.hpp"

namespace adsd {
namespace {

// ----------------------------------------------------------- RNG streams

TEST(RunContext, StreamSeedsAreDeterministic) {
  const RunContext a(std::uint64_t{123});
  const RunContext b(std::uint64_t{123});
  EXPECT_EQ(a.stream_seed("dalta/partitions", 1, 2),
            b.stream_seed("dalta/partitions", 1, 2));
  EXPECT_EQ(a.stream("x", 5).next_u64(), b.stream("x", 5).next_u64());
}

TEST(RunContext, StreamsAreIndependentAcrossTagsCountersAndSeeds) {
  const RunContext ctx(std::uint64_t{123});
  const RunContext other(std::uint64_t{124});
  std::set<std::uint64_t> seen;
  seen.insert(ctx.stream_seed("a"));
  seen.insert(ctx.stream_seed("b"));
  seen.insert(ctx.stream_seed("a", 1));
  seen.insert(ctx.stream_seed("a", 0, 1));
  seen.insert(ctx.stream_seed("a", 0, 0, 1));
  seen.insert(other.stream_seed("a"));
  EXPECT_EQ(seen.size(), 6u) << "every (seed, tag, counters) must differ";
}

// ------------------------------------------------------------- deadline

TEST(RunContext, DeadlineExpiresAndUnlimitedDoesNot) {
  RunContext::Options opts;
  opts.time_budget_s = 1e-9;
  const RunContext tight(opts);
  EXPECT_TRUE(tight.expired());

  const RunContext unlimited;
  EXPECT_FALSE(unlimited.expired());
}

TEST(RunContext, DeadlineStopsDaltaSolvesEarly) {
  const auto exact = make_benchmark_table("exp", 7, 7);
  const auto dist = InputDistribution::uniform(7);
  DaltaParams params;
  params.free_size = 3;
  params.num_partitions = 4;
  params.rounds = 1;
  const auto solver = SolverRegistry::global().make_from_spec(
      "prop,n=7,stop=0,max-iter=100000");

  RunContext::Options opts;
  opts.seed = 7;
  opts.parallel = false;
  opts.time_budget_s = 1e-9;  // expired before the first Euler step
  const RunContext tight(opts);
  const auto res = run_dalta(exact, dist, params, *solver, tight);

  RunContext::Options slack = opts;
  slack.time_budget_s = 0.0;
  const RunContext free_ctx(slack);
  const auto full = run_dalta(exact, dist, params, *solver, free_ctx);

  EXPECT_LT(res.solver_iterations, full.solver_iterations)
      << "an expired deadline must cut the per-solve iteration budget";
  EXPECT_GT(res.early_stops, 0u);
}

// ----------------------------------------------------- thread-pool nesting

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  std::atomic<int> inline_nested{0};
  pool.parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    outer.fetch_add(1);
    // Nested call on the same pool: must complete inline, not deadlock.
    pool.parallel_for(4, [&](std::size_t) {
      inner.fetch_add(1);
      inline_nested += ThreadPool::in_parallel_region() ? 1 : 0;
    });
  });
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 32);
  EXPECT_EQ(inline_nested.load(), 32);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPool, NestedCrossPoolCallDoesNotOversubscribe) {
  ThreadPool outer_pool(4);
  ThreadPool inner_pool(4);
  std::atomic<int> nested_threads_used{0};
  outer_pool.parallel_for(8, [&](std::size_t) {
    const auto caller = std::this_thread::get_id();
    inner_pool.parallel_for_chunks(64, 8, [&](std::size_t, std::size_t) {
      if (std::this_thread::get_id() != caller) {
        nested_threads_used.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(nested_threads_used.load(), 0)
      << "nested chunks must stay on the calling thread";
}

// ------------------------------------- determinism across thread counts

TEST(RunContext, DaltaResultBitIdenticalAcrossThreadCounts) {
  const auto exact = make_benchmark_table("cos", 7, 5);
  const auto dist = InputDistribution::uniform(7);
  DaltaParams params;
  params.free_size = 3;
  params.num_partitions = 6;
  params.rounds = 1;
  const auto solver = SolverRegistry::global().make_from_spec("prop,n=7");

  std::vector<DaltaResult> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    RunContext::Options opts;
    opts.seed = 5;
    opts.threads = threads;
    const RunContext ctx(opts);
    results.push_back(run_dalta(exact, dist, params, *solver, ctx));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].approx, results[i].approx)
        << "thread count must not change the result";
    EXPECT_EQ(results[0].med, results[i].med);
    EXPECT_EQ(results[0].cop_solves, results[i].cop_solves);
    ASSERT_EQ(results[0].outputs.size(), results[i].outputs.size());
    for (std::size_t k = 0; k < results[0].outputs.size(); ++k) {
      EXPECT_EQ(results[0].outputs[k].objective,
                results[i].outputs[k].objective);
    }
  }
}

TEST(RunContext, ContextOverloadMatchesLegacyOverload) {
  const auto exact = make_benchmark_table("ln", 7, 5);
  const auto dist = InputDistribution::uniform(7);
  DaltaParams params;
  params.free_size = 3;
  params.num_partitions = 4;
  params.rounds = 1;
  params.seed = 21;
  const auto solver = SolverRegistry::global().make_from_spec("prop,n=7");

  const auto legacy = run_dalta(exact, dist, params, *solver);
  RunContext::Options opts;
  opts.seed = params.seed;
  const RunContext ctx(opts);
  const auto modern = run_dalta(exact, dist, params, *solver, ctx);
  EXPECT_EQ(legacy.approx, modern.approx);
  EXPECT_EQ(legacy.med, modern.med);
}

// Every core solve of a DALTA run reaches the core_* metrics and the trace
// report, whether the candidates are solved one by one (a core/solve span
// each) or handed to a batched solver as one batch per round (a
// core/solve_batch span each).
TEST(RunContext, MetricsAndTraceCaptureSolveHierarchy) {
  const auto exact = make_benchmark_table("exp", 6, 4);
  const auto dist = InputDistribution::uniform(6);
  DaltaParams params;
  params.free_size = 3;
  params.num_partitions = 4;
  params.rounds = 1;

  struct Case {
    const char* spec;
    const char* solver;
    const char* span;
  };
  for (const Case& c :
       {Case{"prop,n=6", "ising-bsb", "core/solve/ising-bsb"},
        Case{"prop,n=6,pack=4", "ising-bsb-pack",
             "core/solve_batch/ising-bsb-pack"}}) {
    SCOPED_TRACE(c.spec);
    const auto solver = SolverRegistry::global().make_from_spec(c.spec);
    MetricsRegistry& metrics = MetricsRegistry::global();
    MetricsRegistry::Counter& dalta_solves =
        metrics.counter("dalta_cop_solves_total");
    MetricsRegistry::Counter& core_solves =
        metrics.counter("core_solves_total", {{"solver", c.solver}});
    MetricsRegistry::Counter& core_iterations =
        metrics.counter("core_iterations_total", {{"solver", c.solver}});
    const std::uint64_t dalta_before = dalta_solves.value();
    const std::uint64_t solves_before = core_solves.value();
    const std::uint64_t iterations_before = core_iterations.value();

    RunContext::Options opts;
    opts.seed = 3;
    opts.trace = true;
    opts.metrics = true;
    const RunContext ctx(opts);
    const auto res = run_dalta(exact, dist, params, *solver, ctx);
    EXPECT_EQ(dalta_solves.value() - dalta_before, res.cop_solves);
    EXPECT_EQ(core_solves.value() - solves_before, res.cop_solves);
    EXPECT_EQ(core_iterations.value() - iterations_before,
              res.solver_iterations);

    const json::Value report = json::parse(ctx.tracer()->report_json());
    EXPECT_TRUE(report.at("spans").contains("dalta/run"));
    EXPECT_TRUE(report.at("spans").contains(c.span));
  }
}

}  // namespace
}  // namespace adsd
