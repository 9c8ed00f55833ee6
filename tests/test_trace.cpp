// Tests for the tracing layer: the in-repo JSON parser, TraceRecorder's
// Chrome/report exports (balance under contention, pinned quantiles, drop
// accounting), the zero-event disabled path, and bit-identity of a traced
// vs untraced solve.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dalta.hpp"
#include "core/solver_registry.hpp"
#include "funcs/registry.hpp"
#include "ising/model.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"
#include "support/trace.hpp"

namespace adsd {
namespace {

using json::Value;

TEST(Json, ParsesScalarsAndContainers) {
  const Value v = json::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"x": true, "y": null}, "s": "hi"})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[2].as_number(), -300.0);
  EXPECT_TRUE(v.at("b").at("x").as_bool());
  EXPECT_TRUE(v.at("b").at("y").is_null());
  EXPECT_EQ(v.at("s").as_string(), "hi");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("nope"));
}

TEST(Json, DecodesEscapesIncludingSurrogatePairs) {
  const Value v =
      json::parse(R"({"s": "a\"b\\c\n\t\u0041\u00e9\ud83d\ude00"})");
  EXPECT_EQ(v.at("s").as_string(),
            "a\"b\\c\n\tA\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\": 1} x"), std::runtime_error);
  EXPECT_THROW(json::parse("\"\\ud800\""), std::runtime_error);  // lone high
  EXPECT_THROW(json::parse("01"), std::runtime_error);
  EXPECT_THROW(json::parse(""), std::runtime_error);
  // Adversarial nesting ends in a clean error, not a stack overflow.
  EXPECT_THROW(json::parse(std::string(100000, '[')), std::runtime_error);
  std::string deep_object;
  for (int i = 0; i < 200000; ++i) {
    deep_object += "{\"a\":";
  }
  EXPECT_THROW(json::parse(deep_object), std::runtime_error);
}

// Walks an exported Chrome trace and checks that every thread's B/E events
// form properly nested, fully closed stacks.
void expect_balanced(const Value& doc, std::size_t expect_threads) {
  std::map<double, std::vector<std::string>> stacks;
  std::set<double> tids;
  for (const Value& e : doc.at("traceEvents").as_array()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      continue;
    }
    const double tid = e.at("tid").as_number();
    tids.insert(tid);
    if (ph == "B") {
      stacks[tid].push_back(e.at("name").as_string());
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty());
      EXPECT_EQ(stacks[tid].back(), e.at("name").as_string());
      stacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed spans on tid " << tid;
  }
  EXPECT_EQ(tids.size(), expect_threads);
}

TEST(TraceRecorder, ChromeExportBalancedUnderContention) {
  TraceRecorder rec;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 400;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&rec, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        const TraceSpan outer(&rec, "outer");
        rec.counter("progress", static_cast<double>(i));
        {
          const TraceSpan inner(&rec, t % 2 == 0 ? "inner_a" : "inner_b");
          rec.instant("tick");
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.thread_count(), kThreads);
  // 2 spans (B+E each) + 1 counter + 1 instant per iteration.
  EXPECT_EQ(rec.event_count(), kThreads * kIters * 6);

  const Value doc = json::parse(rec.chrome_json());
  expect_balanced(doc, kThreads);
  EXPECT_DOUBLE_EQ(doc.at("otherData").at("dropped").as_number(), 0.0);
}

TEST(TraceRecorder, NearestRankQuantiles) {
  // N = 10: p50 -> 5th smallest, p95 -> 10th, p99 -> 10th.
  std::vector<double> sorted;
  for (int i = 1; i <= 10; ++i) {
    sorted.push_back(i * 1.0);
  }
  EXPECT_DOUBLE_EQ(TraceRecorder::quantile_sorted(sorted, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(TraceRecorder::quantile_sorted(sorted, 0.95), 10.0);
  EXPECT_DOUBLE_EQ(TraceRecorder::quantile_sorted(sorted, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(TraceRecorder::quantile_sorted(sorted, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(TraceRecorder::quantile_sorted({7.0}, 0.5), 7.0);
}

TEST(TraceRecorder, ReportQuantilesMatchHandComputedValues) {
  TraceRecorder rec;
  // 20 sequential spans with durations 1..20 us staged at exact
  // timestamps. Nearest-rank over N = 20: p50 = 10 us, p95 = 19 us,
  // p99 = 20 us.
  std::uint64_t t = 0;
  for (std::uint64_t d = 1; d <= 20; ++d) {
    rec.emit(TraceRecorder::EventType::kBegin, "work", t);
    rec.emit(TraceRecorder::EventType::kEnd, "work", t + d * 1000);
    t += d * 1000 + 500;
  }
  const Value doc = json::parse(rec.report_json());
  const Value& span = doc.at("spans").at("work");
  EXPECT_DOUBLE_EQ(span.at("count").as_number(), 20.0);
  EXPECT_NEAR(span.at("p50_s").as_number(), 10e-6, 1e-12);
  EXPECT_NEAR(span.at("p95_s").as_number(), 19e-6, 1e-12);
  EXPECT_NEAR(span.at("p99_s").as_number(), 20e-6, 1e-12);
  EXPECT_NEAR(span.at("min_s").as_number(), 1e-6, 1e-12);
  EXPECT_NEAR(span.at("max_s").as_number(), 20e-6, 1e-12);
  EXPECT_NEAR(span.at("total_s").as_number(), 210e-6, 1e-12);
  EXPECT_DOUBLE_EQ(doc.at("meta").at("unmatched_begins").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(doc.at("meta").at("unmatched_ends").as_number(), 0.0);
}

TEST(TraceRecorder, SaturationDropsWholeSpansAndCounts) {
  TraceRecorder rec(/*capacity_per_thread=*/8);
  for (int i = 0; i < 100; ++i) {
    const TraceSpan span(&rec, "s");
    rec.instant("i");
  }
  EXPECT_GT(rec.dropped(), 0u);
  EXPECT_LE(rec.event_count(), 8u);
  const Value doc = json::parse(rec.chrome_json());
  expect_balanced(doc, 1);
  EXPECT_GT(doc.at("otherData").at("dropped").as_number(), 0.0);
  // The report carries the same drop count.
  const Value report = json::parse(rec.report_json());
  EXPECT_GT(report.at("meta").at("dropped").as_number(), 0.0);
}

TEST(TraceRecorder, ExportsEscapeControlCharacters) {
  // Caller-supplied provenance and span names reach both exports verbatim
  // through the shared JSON escaper, control characters included.
  const std::string parent_id = "req\n\x01id";
  RunContext::Options opts;
  opts.trace = true;
  opts.parent_id = parent_id;
  const RunContext ctx(opts);
  { const TraceSpan span(ctx.tracer(), "tab\tspan"); }
  Value chrome;
  ASSERT_NO_THROW(chrome = json::parse(ctx.tracer()->chrome_json()));
  EXPECT_EQ(chrome.at("otherData").at("parent_id").as_string(), parent_id);
  bool saw_span = false;
  for (const Value& e : chrome.at("traceEvents").as_array()) {
    saw_span |= e.at("name").as_string() == "tab\tspan";
  }
  EXPECT_TRUE(saw_span);
  Value report;
  ASSERT_NO_THROW(report = json::parse(ctx.tracer()->report_json()));
  EXPECT_EQ(report.at("meta").at("parent_id").as_string(), parent_id);
  EXPECT_TRUE(report.at("spans").contains("tab\tspan"));
}

TEST(TraceRecorder, DisabledPathRecordsNothing) {
  RunContext::Options opts;
  ASSERT_FALSE(opts.trace);  // off by default
  const RunContext ctx(opts);
  EXPECT_EQ(ctx.tracer(), nullptr);
  // All helpers must no-op on a null recorder.
  const TraceSpan span(ctx.tracer(), "x");
  trace_instant(ctx.tracer(), "x");
  trace_counter(ctx.tracer(), "x", 1.0);
}

TEST(TraceRecorder, EnabledContextOwnsRecorder) {
  RunContext::Options opts;
  opts.trace = true;
  const RunContext ctx(opts);
  ASSERT_NE(ctx.tracer(), nullptr);
  { const TraceSpan span(ctx.tracer(), "x"); }
  EXPECT_EQ(ctx.tracer()->event_count(), 2u);
}

TEST(TraceRecorder, TracedSolveIsBitIdenticalToUntraced) {
  const auto exact = make_benchmark_table("exp", 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const auto solver = SolverRegistry::global().make("prop", {});
  DaltaParams params;
  params.free_size = 3;
  params.num_partitions = 3;
  params.rounds = 1;
  params.seed = 7;

  auto run_with = [&](bool trace) {
    RunContext::Options opts;
    opts.seed = params.seed;
    opts.trace = trace;
    const RunContext ctx(opts);
    return run_dalta(exact, dist, params, *solver, ctx);
  };
  const auto plain = run_with(false);
  const auto traced = run_with(true);

  ASSERT_EQ(plain.approx.num_patterns(), traced.approx.num_patterns());
  for (std::uint64_t x = 0; x < plain.approx.num_patterns(); ++x) {
    ASSERT_EQ(plain.approx.word(x), traced.approx.word(x)) << "pattern " << x;
  }
  EXPECT_DOUBLE_EQ(plain.med, traced.med);
  EXPECT_EQ(plain.solver_iterations, traced.solver_iterations);
}

TEST(TraceRecorder, SolveTraceContainsConvergenceCounters) {
  const auto exact = make_benchmark_table("exp", 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const auto solver = SolverRegistry::global().make("prop", {});
  DaltaParams params;
  params.free_size = 3;
  params.num_partitions = 3;
  params.rounds = 1;
  params.seed = 7;
  RunContext::Options opts;
  opts.seed = params.seed;
  opts.trace = true;
  opts.metrics = true;
  MetricsRegistry& metrics = MetricsRegistry::global();
  MetricsRegistry::Counter& samples =
      metrics.counter("engine_energy_samples_total", {{"engine", "sb"}});
  MetricsRegistry::Counter& resets = metrics.counter("theorem3_resets_total");
  const std::uint64_t samples_before = samples.value();
  const std::uint64_t resets_before = resets.value();
  const RunContext ctx(opts);
  (void)run_dalta(exact, dist, params, *solver, ctx);

  const Value report = json::parse(ctx.tracer()->report_json());
  EXPECT_TRUE(report.at("spans").contains("dalta/run"));
  EXPECT_TRUE(report.at("spans").contains("dalta/candidate"));
  EXPECT_TRUE(report.at("spans").contains("ising/bsb/run"));
  EXPECT_TRUE(report.at("counters").contains("ising/bsb/best_energy"));
  EXPECT_TRUE(report.at("counters").contains("ising/bsb/stop_variance"));
  EXPECT_GT(samples.value(), samples_before);
  EXPECT_GT(resets.value(), resets_before);
}

TEST(TraceRecorder, StopVarianceIsTheReadingTheStopDecidedOn) {
  // A solve that ends on the dynamic stop after more than `window`
  // sampling points. The last stop_variance sample is the window the stop
  // read, so it is below epsilon; the window before it (the point that did
  // not stop) reads >= epsilon.
  Rng rng(61);
  IsingModel model(12);
  for (std::size_t i = 0; i < 12; ++i) {
    model.set_bias(i, rng.next_double(-1.0, 1.0));
    for (std::size_t j = i + 1; j < 12; ++j) {
      model.add_coupling(i, j, rng.next_double(-1.0, 1.0));
    }
  }
  model.finalize();
  SbParams params;
  params.max_iterations = 20000;
  params.seed = 5;
  params.stop.enabled = true;
  params.stop.sample_interval = 5;
  params.stop.window = 4;
  params.stop.epsilon = 1e-8;
  RunContext::Options opts;
  opts.trace = true;
  const RunContext ctx(opts);
  const IsingSolveResult result = solve_sb(model, params, nullptr, &ctx);
  ASSERT_TRUE(result.stopped_early);
  ASSERT_LT(result.iterations, params.max_iterations);

  const Value report = json::parse(ctx.tracer()->report_json());
  ASSERT_TRUE(report.at("instants").contains("ising/bsb/dynamic_stop"));
  const Value& variance = report.at("counters").at("ising/bsb/stop_variance");
  EXPECT_GT(variance.at("samples").as_number(),
            static_cast<double>(params.stop.window));
  EXPECT_LT(variance.at("last").as_number(), params.stop.epsilon);
}

}  // namespace
}  // namespace adsd
