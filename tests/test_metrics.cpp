#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dalta.hpp"
#include "core/solver_registry.hpp"
#include "funcs/continuous.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"
#include "support/trace.hpp"

namespace adsd {
namespace {

using Histogram = MetricsRegistry::Histogram;

// ---------------------------------------------------------------------------
// Histogram bucket geometry.

TEST(MetricsHistogram, BucketBoundariesAreExactAtPowersOfTwo) {
  // Octave starts land exactly on sub-bucket 0 of their octave: frexp on a
  // binary fraction is exact, so there is no boundary jitter to tolerate.
  for (int e = Histogram::kMinExponent; e < Histogram::kMaxExponent; ++e) {
    const double v = std::ldexp(1.0, e);
    const std::ptrdiff_t idx = Histogram::bucket_index(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(static_cast<std::size_t>(idx), Histogram::kNumBuckets);
    EXPECT_DOUBLE_EQ(Histogram::bucket_lower(static_cast<std::size_t>(idx)),
                     v)
        << "2^" << e;
  }
}

TEST(MetricsHistogram, BucketsTileTheRangeWithoutGapsOrOverlap) {
  for (std::size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::bucket_upper(i),
                     Histogram::bucket_lower(i + 1));
    EXPECT_LT(Histogram::bucket_lower(i), Histogram::bucket_upper(i));
  }
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower(0), Histogram::min_value());
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper(Histogram::kNumBuckets - 1),
                   Histogram::max_value());
}

TEST(MetricsHistogram, EveryValueLandsInItsOwnBucket) {
  Rng rng(123);
  for (int trial = 0; trial < 5000; ++trial) {
    // Log-uniform across the full tracked range.
    const double v = std::exp(
        rng.next_double(std::log(Histogram::min_value()),
                        std::log(Histogram::max_value())));
    const std::ptrdiff_t idx = Histogram::bucket_index(v);
    ASSERT_GE(idx, 0) << v;
    ASSERT_LT(static_cast<std::size_t>(idx), Histogram::kNumBuckets) << v;
    EXPECT_LE(Histogram::bucket_lower(static_cast<std::size_t>(idx)), v);
    EXPECT_GT(Histogram::bucket_upper(static_cast<std::size_t>(idx)), v);
  }
}

TEST(MetricsHistogram, UnderflowAndOverflowClassification) {
  EXPECT_EQ(Histogram::bucket_index(0.0), -1);
  EXPECT_EQ(Histogram::bucket_index(-1.0), -1);
  EXPECT_EQ(Histogram::bucket_index(Histogram::min_value() / 2), -1);
  EXPECT_EQ(Histogram::bucket_index(
                std::numeric_limits<double>::quiet_NaN()),
            -1);
  EXPECT_EQ(Histogram::bucket_index(Histogram::max_value()),
            static_cast<std::ptrdiff_t>(Histogram::kNumBuckets));
  EXPECT_EQ(Histogram::bucket_index(
                std::numeric_limits<double>::infinity()),
            static_cast<std::ptrdiff_t>(Histogram::kNumBuckets));
  EXPECT_EQ(Histogram::bucket_index(Histogram::min_value()), 0);
}

TEST(MetricsHistogram, RecordAccountsEveryValueExactlyOnce) {
  Histogram h;
  h.record(0.5);
  h.record(100.0);
  h.record(-3.0);                           // underflow
  h.record(Histogram::max_value() * 2.0);   // overflow
  h.record(std::numeric_limits<double>::quiet_NaN());  // underflow
  const HistogramData d = h.snapshot();
  EXPECT_EQ(d.count, 5u);
  EXPECT_EQ(d.underflow, 2u);
  EXPECT_EQ(d.overflow, 1u);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t b : d.buckets) {
    bucketed += b;
  }
  EXPECT_EQ(bucketed + d.underflow + d.overflow, d.count);
  EXPECT_DOUBLE_EQ(d.min, -3.0);
  EXPECT_DOUBLE_EQ(d.max, Histogram::max_value() * 2.0);
}

TEST(MetricsHistogram, QuantilesMatchSortedReferenceWithinSubBucketWidth) {
  Rng rng(7);
  Histogram h;
  std::vector<double> values;
  for (int i = 0; i < 4000; ++i) {
    // Latency-shaped values across ~6 octaves.
    const double v = 50.0 * std::exp(rng.next_double(0.0, 4.0));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramData d = h.snapshot();
  for (const double q : {0.50, 0.95, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const double ref = values[rank - 1];
    const double est = d.quantile(q);
    // The estimate is the covering bucket's upper bound clamped to the
    // exact [min, max]: never below the true nearest-rank value, never
    // more than one sub-bucket (1/8 relative) above it.
    EXPECT_GE(est, ref) << "q=" << q;
    EXPECT_LE(est, ref * (1.0 + 1.0 / Histogram::kSubBuckets) + 1e-9)
        << "q=" << q;
  }
}

TEST(MetricsHistogram, MergeIsAssociativeAndMatchesSingleHistogram) {
  Rng rng(99);
  Histogram all;
  Histogram parts[3];
  for (int i = 0; i < 3000; ++i) {
    const double v = rng.next_double(0.0, 1.0) < 0.01
                         ? -1.0  // sprinkle underflow into the parts
                         : std::exp(rng.next_double(-8.0, 8.0));
    all.record(v);
    parts[i % 3].record(v);
  }
  const HistogramData a = parts[0].snapshot();
  const HistogramData b = parts[1].snapshot();
  const HistogramData c = parts[2].snapshot();

  HistogramData left = a;
  left.merge(b);
  left.merge(c);
  HistogramData right = c;
  right.merge(a);
  right.merge(b);
  const HistogramData whole = all.snapshot();

  for (const HistogramData* m : {&left, &right}) {
    EXPECT_EQ(m->count, whole.count);
    EXPECT_EQ(m->underflow, whole.underflow);
    EXPECT_EQ(m->overflow, whole.overflow);
    EXPECT_DOUBLE_EQ(m->min, whole.min);
    EXPECT_DOUBLE_EQ(m->max, whole.max);
    EXPECT_EQ(m->buckets, whole.buckets);
    // Sums fold in different orders, so exact equality is not guaranteed.
    EXPECT_NEAR(m->sum, whole.sum, 1e-6 * std::abs(whole.sum));
    EXPECT_DOUBLE_EQ(m->quantile(0.5), whole.quantile(0.5));
  }
}

// ---------------------------------------------------------------------------
// Registry resolution and identity.

TEST(MetricsRegistry, SeriesIdentityIsNameAndSortedLabels) {
  MetricsRegistry reg;
  MetricsRegistry::Counter& a =
      reg.counter("solve_total", {{"engine", "sb"}, {"kernel", "avx2"}});
  // Same labels in the other order must resolve to the same series.
  MetricsRegistry::Counter& b =
      reg.counter("solve_total", {{"kernel", "avx2"}, {"engine", "sb"}});
  EXPECT_EQ(&a, &b);
  MetricsRegistry::Counter& c =
      reg.counter("solve_total", {{"engine", "sa"}, {"kernel", "avx2"}});
  EXPECT_NE(&a, &c);
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, RejectsBadNamesAndKindMismatch) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("9starts_with_digit"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has-dash"), std::invalid_argument);
  EXPECT_THROW(reg.counter("ok_name", {{"bad-key", "v"}}),
               std::invalid_argument);
  reg.counter("series");
  EXPECT_THROW(reg.gauge("series"), std::logic_error);
}

TEST(MetricsRegistry, SaturationCountsDropsAndKeepsWorking) {
  MetricsRegistry reg;
  // Far beyond kSlots distinct series: the overflow lookups must not
  // crash, must count as dropped, and must still hand back a usable sink.
  for (int i = 0; i < 6000; ++i) {
    reg.counter("sat_" + std::to_string(i)).add();
  }
  EXPECT_GT(reg.dropped(), 0u);
  EXPECT_LE(reg.size(), 4096u);
  std::ostringstream prom;
  reg.write_prometheus(prom);
  EXPECT_NE(prom.str().find("adsd_metrics_dropped_total"),
            std::string::npos);
  // The self-metric reports the saturation in the exposition itself.
  std::ostringstream want;
  want << "adsd_metrics_dropped_total " << reg.dropped();
  EXPECT_NE(prom.str().find(want.str()), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentUpdatesAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.counter("concurrent_total").add();
        reg.histogram("concurrent_latency").record(1.0 + (i % 7));
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(reg.counter("concurrent_total").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const HistogramData d = reg.histogram("concurrent_latency").snapshot();
  EXPECT_EQ(d.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(d.min, 1.0);
  EXPECT_DOUBLE_EQ(d.max, 7.0);
}

// ---------------------------------------------------------------------------
// Exposition formats.

TEST(MetricsExposition, PrometheusShapeAndSeriesValues) {
  MetricsRegistry reg;
  reg.counter("runs_total", {{"engine", "sb"}}).add(3);
  reg.gauge("queue_depth").set(2.5);
  reg.histogram("latency_us", {{"engine", "sb"}}).record(100.0);
  reg.histogram("latency_us", {{"engine", "sb"}}).record(200.0);
  reg.histogram("latency_us", {{"engine", "sb"}}).record(-1.0);

  std::ostringstream out;
  reg.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE adsd_runs_total counter"), std::string::npos);
  EXPECT_NE(text.find("adsd_runs_total{engine=\"sb\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE adsd_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("adsd_queue_depth 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE adsd_latency_us histogram"),
            std::string::npos);
  // Mandatory +Inf bucket carries the total count (underflow included).
  EXPECT_NE(text.find("adsd_latency_us_bucket{engine=\"sb\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("adsd_latency_us_count{engine=\"sb\"} 3"),
            std::string::npos);
  // One TYPE line per family even with multiple series.
  reg.counter("runs_total", {{"engine", "sa"}}).add();
  std::ostringstream out2;
  reg.write_prometheus(out2);
  const std::string text2 = out2.str();
  std::size_t type_lines = 0;
  for (std::size_t pos = text2.find("# TYPE adsd_runs_total");
       pos != std::string::npos;
       pos = text2.find("# TYPE adsd_runs_total", pos + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
}

TEST(MetricsExposition, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("esc_total", {{"path", "a\"b\\c\nd"}}).add();
  std::ostringstream out;
  reg.write_prometheus(out);
  EXPECT_NE(out.str().find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(MetricsExposition, JsonSnapshotRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.counter("runs_total", {{"engine", "sb"}}).add(3);
  reg.gauge("depth").set(1.5);
  for (int i = 1; i <= 100; ++i) {
    reg.histogram("lat_us").record(static_cast<double>(i));
  }
  std::ostringstream out;
  reg.write_json(out);
  const json::Value doc = json::parse(out.str());
  EXPECT_EQ(doc.at("schema").as_string(), "adsd-metrics-v1");
  EXPECT_EQ(doc.at("dropped").as_number(), 0.0);
  const auto& metrics = doc.at("metrics").as_array();
  ASSERT_EQ(metrics.size(), 3u);
  bool saw_hist = false;
  for (const json::Value& m : metrics) {
    if (m.at("kind").as_string() != "histogram") {
      continue;
    }
    saw_hist = true;
    EXPECT_EQ(m.at("count").as_number(), 100.0);
    EXPECT_DOUBLE_EQ(m.at("sum").as_number(), 5050.0);
    EXPECT_DOUBLE_EQ(m.at("min").as_number(), 1.0);
    EXPECT_DOUBLE_EQ(m.at("max").as_number(), 100.0);
    const double p50 = m.at("p50").as_number();
    const double p95 = m.at("p95").as_number();
    const double p99 = m.at("p99").as_number();
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GE(p50, 50.0);
    EXPECT_LE(p50, 50.0 * 1.125 + 1e-9);
    double bucketed = 0.0;
    for (const json::Value& b : m.at("buckets").as_array()) {
      ASSERT_EQ(b.as_array().size(), 3u);
      EXPECT_LT(b.as_array()[0].as_number(), b.as_array()[1].as_number());
      bucketed += b.as_array()[2].as_number();
    }
    EXPECT_EQ(bucketed, 100.0);
  }
  EXPECT_TRUE(saw_hist);
}

// ---------------------------------------------------------------------------
// Recorder drops are counted where they happen (trace saturation visible in
// the Prometheus exposition, not just per-run JSON).

TEST(MetricsDropExport, TraceSaturationShowsUpInExposition) {
  RunContext::Options opts;
  opts.metrics = true;
  const RunContext ctx(opts);
  const std::uint64_t before =
      MetricsRegistry::global().counter("trace_dropped_total").value();
  // Far more events than the per-thread buffer holds saturate it and
  // count drops.
  TraceRecorder rec(/*capacity_per_thread=*/16);
  for (int i = 0; i < 100; ++i) {
    rec.instant("sat");
  }
  ASSERT_GT(rec.dropped(), 0u);
  EXPECT_EQ(
      MetricsRegistry::global().counter("trace_dropped_total").value() -
          before,
      rec.dropped());

  std::ostringstream out;
  MetricsRegistry::global().write_prometheus(out);
  EXPECT_NE(out.str().find("adsd_trace_dropped_total"), std::string::npos);
}

TEST(MetricsDropExport, ArmedFollowsContextLifetime) {
  // Tests share the process-wide registry, so only the arm/disarm edges
  // around this scope are observable — not the absolute armed state.
  {
    RunContext::Options opts;
    opts.metrics = true;
    const RunContext ctx(opts);
    EXPECT_NE(MetricsRegistry::armed(), nullptr);
    EXPECT_EQ(ctx.metrics(), &MetricsRegistry::global());
  }
  RunContext plain;
  EXPECT_EQ(plain.metrics(), nullptr);
}

// ---------------------------------------------------------------------------
// Flight recorder.

FlightRecorder::SolveRecord make_record(const std::string& stop,
                                        double energy) {
  FlightRecorder::SolveRecord rec;
  rec.spec = "dalta";
  rec.engine = "prop";
  rec.stop_reason = stop;
  rec.n = 8;
  rec.rounds = 1;
  rec.final_energy = energy;
  rec.med = 0.01;
  rec.duration_s = 0.5;
  return rec;
}

TEST(FlightRecorderTest, RingEvictsOldestAndKeepsSequence) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.record(make_record("ok", static_cast<double>(i)));
  }
  EXPECT_EQ(rec.total_recorded(), 10u);
  const auto ring = rec.snapshot();
  ASSERT_EQ(ring.size(), 4u);
  for (std::size_t i = 0; i + 1 < ring.size(); ++i) {
    EXPECT_LT(ring[i].seq, ring[i + 1].seq);
  }
  EXPECT_DOUBLE_EQ(ring.back().final_energy, 9.0);
  EXPECT_DOUBLE_EQ(ring.front().final_energy, 6.0);
}

TEST(FlightRecorderTest, WriteJsonMatchesSchema) {
  FlightRecorder rec(8);
  rec.record(make_record("ok", -1.0));
  rec.record(make_record("deadline", -2.0));
  std::ostringstream out;
  rec.write_json(out, "unit-test");
  const json::Value doc = json::parse(out.str());
  EXPECT_EQ(doc.at("schema").as_string(), "adsd-flight-v1");
  EXPECT_EQ(doc.at("reason").as_string(), "unit-test");
  EXPECT_EQ(doc.at("total_recorded").as_number(), 2.0);
  const auto& solves = doc.at("solves").as_array();
  ASSERT_EQ(solves.size(), 2u);
  EXPECT_EQ(solves[1].at("stop_reason").as_string(), "deadline");
  EXPECT_DOUBLE_EQ(solves[1].at("final_energy").as_number(), -2.0);
}

TEST(FlightRecorderTest, DeadlineRecordTriggersPostmortemDump) {
  const std::string path = "flight_test_postmortem.json";
  std::remove(path.c_str());
  FlightRecorder rec(8);
  rec.record(make_record("ok", -1.0));
  EXPECT_FALSE(rec.dump_postmortem("manual"));  // not armed yet
  rec.arm_postmortem(path);
  EXPECT_TRUE(rec.postmortem_armed());
  rec.record(make_record("deadline", -2.0));  // auto-dumps
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "deadline record did not dump " << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  const json::Value doc = json::parse(buf.str());
  EXPECT_EQ(doc.at("reason").as_string(), "deadline_overrun");
  EXPECT_EQ(doc.at("solves").as_array().size(), 2u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fixed-seed bit-identity: metrics (and the other recorders) must never
// perturb results — same DaltaResult with everything off, metrics on, and
// metrics+trace+qor armed, at 1 and 8 threads.

DaltaResult run_once(bool metrics, bool everything, std::size_t threads) {
  const auto exact = make_continuous_table(continuous_spec("exp"), 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const auto solver = SolverRegistry::global().make_from_spec("prop,n=7");
  DaltaParams params;
  params.free_size = 3;
  params.num_partitions = 6;
  params.rounds = 1;
  params.seed = 7;
  RunContext::Options opts;
  opts.seed = 7;
  opts.threads = threads;
  opts.parallel = threads > 1;
  opts.metrics = metrics || everything;
  opts.trace = everything;
  opts.qor = everything;
  const RunContext ctx(opts);
  return run_dalta(exact, dist, params, *solver, ctx);
}

void expect_identical(const DaltaResult& a, const DaltaResult& b) {
  EXPECT_EQ(a.approx, b.approx);
  EXPECT_DOUBLE_EQ(a.med, b.med);
  EXPECT_DOUBLE_EQ(a.error_rate, b.error_rate);
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (std::size_t k = 0; k < a.outputs.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.outputs[k].objective, b.outputs[k].objective);
  }
}

TEST(MetricsBitIdentity, SingleThreaded) {
  const DaltaResult off = run_once(false, false, 1);
  const DaltaResult on = run_once(true, false, 1);
  const DaltaResult all = run_once(false, true, 1);
  expect_identical(off, on);
  expect_identical(off, all);
}

TEST(MetricsBitIdentity, EightThreads) {
  const DaltaResult off = run_once(false, false, 8);
  const DaltaResult on = run_once(true, false, 8);
  const DaltaResult all = run_once(false, true, 8);
  expect_identical(off, on);
  expect_identical(off, all);
}

TEST(MetricsBitIdentity, ThreadCountDoesNotChangeResults) {
  // The engine metrics read only per-run state, and the pool gauges read
  // only pool state — an 8-thread metered run must equal the 1-thread one.
  expect_identical(run_once(true, true, 1), run_once(true, true, 8));
}

}  // namespace
}  // namespace adsd
