// Tests for the structured logging layer (support/log.hpp): deterministic
// token-bucket rate limiting, the self-metrics counted per written and
// suppressed record, whole lines from concurrent writers, the adsd-log-v1
// line schema with run provenance, tail replay into flight postmortems
// (also after the last disarm), and the off/on fixed-seed bit-identity
// contract at 1 and 8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dalta.hpp"
#include "core/solver_registry.hpp"
#include "funcs/continuous.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/run_context.hpp"

namespace adsd {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

std::vector<json::Value> parse_jsonl(const std::string& text) {
  std::vector<json::Value> records;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      records.push_back(json::parse(line));
    }
  }
  return records;
}

// ---------------------------------------------------------------------------
// Level roster.

TEST(LogLevels, NamesRoundTripAndRosterIsStable) {
  for (const LogLevel level :
       {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn, LogLevel::kError,
        LogLevel::kOff}) {
    const auto parsed = parse_log_level(log_level_name(level));
    ASSERT_TRUE(parsed.has_value()) << log_level_name(level);
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(parse_log_level("verbose").has_value());
  EXPECT_FALSE(parse_log_level("INFO").has_value());  // wire names are lower
  EXPECT_EQ(parse_log_level_or_throw("warn"), LogLevel::kWarn);
  try {
    parse_log_level_or_throw("loud");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown log level 'loud' (accepted: debug, info, warn, "
                 "error, off)");
  }
}

// ---------------------------------------------------------------------------
// Token bucket: the caller supplies the clock, so refill math is exact.

TEST(TokenBucket, FirstAcquirePrimesAFullBucket) {
  TokenBucket bucket;
  // burst = 2: exactly two records pass at t=0, the third is suppressed.
  EXPECT_TRUE(bucket.try_acquire(0, 10.0, 2.0));
  EXPECT_TRUE(bucket.try_acquire(0, 10.0, 2.0));
  EXPECT_FALSE(bucket.try_acquire(0, 10.0, 2.0));
}

TEST(TokenBucket, RefillsAtRateAndCapsAtBurst) {
  TokenBucket bucket;
  // Drain the primed burst.
  EXPECT_TRUE(bucket.try_acquire(0, 10.0, 2.0));
  EXPECT_TRUE(bucket.try_acquire(0, 10.0, 2.0));
  EXPECT_FALSE(bucket.try_acquire(0, 10.0, 2.0));
  // 10 tokens/s: after 100 ms exactly one token has refilled.
  EXPECT_TRUE(bucket.try_acquire(100'000'000, 10.0, 2.0));
  EXPECT_FALSE(bucket.try_acquire(100'000'000, 10.0, 2.0));
  // A long idle period refills to burst, never beyond: two pass, not ten.
  EXPECT_TRUE(bucket.try_acquire(1'100'000'000, 10.0, 2.0));
  EXPECT_TRUE(bucket.try_acquire(1'100'000'000, 10.0, 2.0));
  EXPECT_FALSE(bucket.try_acquire(1'100'000'000, 10.0, 2.0));
}

TEST(TokenBucket, ZeroRateNeverRefillsAndTimeNeverRunsBackwards) {
  TokenBucket bucket;
  EXPECT_TRUE(bucket.try_acquire(50, 0.0, 1.0));
  EXPECT_FALSE(bucket.try_acquire(1'000'000'000, 0.0, 1.0));
  // A non-monotone clock sample must not mint tokens.
  TokenBucket second;
  EXPECT_TRUE(second.try_acquire(1'000'000'000, 10.0, 1.0));
  EXPECT_FALSE(second.try_acquire(0, 10.0, 1.0));
  EXPECT_FALSE(second.try_acquire(999'999'999, 10.0, 1.0));
}

// ---------------------------------------------------------------------------
// Off path: disarmed sites are a load + branch and never reach the logger.

TEST(LoggerOffPath, DisarmedSiteIsInert) {
  ASSERT_EQ(Logger::armed(), nullptr);
  // Field expressions must not be evaluated into a record anywhere; this
  // would crash or leak if the macro reached serialization while disarmed.
  ADSD_LOG_ERROR("tests/log", "never emitted", {"n", 64}, {"x", 0.5});
  EXPECT_EQ(Logger::armed(), nullptr);
}

TEST(LoggerOffPath, MintedRunIdsAreSixteenHexCharsAndUnique) {
  const std::string a = Logger::mint_run_id();
  const std::string b = Logger::mint_run_id();
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(b.size(), 16u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.find_first_not_of("0123456789abcdef"), std::string::npos) << a;
}

// ---------------------------------------------------------------------------
// Line schema + provenance.

TEST(LoggerSchema, EmitsAdsdLogV1WithTypedFieldsAndProvenance) {
  const std::string path = "log_test_schema.jsonl";
  std::remove(path.c_str());
  Logger::Options opts;
  opts.level = LogLevel::kDebug;
  opts.path = path;
  opts.run_id = "feedface00000001";
  opts.parent_id = "beadbead00000002";
  Logger::arm(opts);
  ADSD_LOG_DEBUG("tests/log", "all field kinds", {"s", "str\"esc"},
                 {"i", -3}, {"u", 7u}, {"d", 1.5}, {"b", true});
  ADSD_LOG_WARN("tests/other", "no fields");
  Logger::disarm();  // last disarm closes the sink

  const auto records = parse_jsonl(slurp(path));
  ASSERT_EQ(records.size(), 2u);
  const json::Value& rec = records[0];
  EXPECT_EQ(rec.at("schema").as_string(), "adsd-log-v1");
  EXPECT_GT(rec.at("ts").as_number(), 0.0);
  EXPECT_GE(rec.at("thread").as_number(), 0.0);
  EXPECT_EQ(rec.at("level").as_string(), "debug");
  EXPECT_EQ(rec.at("component").as_string(), "tests/log");
  EXPECT_EQ(rec.at("run_id").as_string(), "feedface00000001");
  EXPECT_EQ(rec.at("parent_id").as_string(), "beadbead00000002");
  EXPECT_EQ(rec.at("msg").as_string(), "all field kinds");
  const json::Value& fields = rec.at("fields");
  EXPECT_EQ(fields.at("s").as_string(), "str\"esc");
  EXPECT_DOUBLE_EQ(fields.at("i").as_number(), -3.0);
  EXPECT_DOUBLE_EQ(fields.at("u").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(fields.at("d").as_number(), 1.5);
  EXPECT_TRUE(fields.at("b").as_bool());
  EXPECT_EQ(records[1].at("level").as_string(), "warn");
  EXPECT_TRUE(records[1].at("fields").as_object().empty());
  std::remove(path.c_str());
}

TEST(LoggerSchema, ThresholdFiltersBelowArmedLevel) {
  const std::string path = "log_test_threshold.jsonl";
  std::remove(path.c_str());
  Logger::Options opts;
  opts.level = LogLevel::kWarn;
  opts.path = path;
  Logger::arm(opts);
  ADSD_LOG_DEBUG("tests/log", "filtered");
  ADSD_LOG_INFO("tests/log", "filtered");
  ADSD_LOG_WARN("tests/log", "kept");
  ADSD_LOG_ERROR("tests/log", "kept");
  Logger::disarm();
  const auto records = parse_jsonl(slurp(path));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].at("level").as_string(), "warn");
  EXPECT_EQ(records[1].at("level").as_string(), "error");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Rate limiting.

TEST(LoggerRateLimit, BurstBoundsEmissionAndCountsSuppressions) {
  const std::string path = "log_test_ratelimit.jsonl";
  std::remove(path.c_str());
  Logger::Options opts;
  opts.level = LogLevel::kDebug;
  opts.path = path;
  opts.site_rate_per_s = 0.0;  // no refill: exactly `burst` records pass
  opts.site_burst = 2.0;
  Logger::arm(opts);
  Logger& logger = Logger::global();
  LogSite site{"tests/log", __FILE__, __LINE__};
  for (int i = 0; i < 5; ++i) {
    logger.log(site, LogLevel::kInfo, "limited", {{"i", i}});
  }
  EXPECT_EQ(logger.rate_limited(), 3u);
  EXPECT_EQ(site.suppressed.load(), 3u);
  Logger::disarm();
  EXPECT_EQ(parse_jsonl(slurp(path)).size(), 2u);
  std::remove(path.c_str());
}

TEST(LoggerRateLimit, SuppressionCountFoldsIntoNextEmittedRecord) {
  const std::string path = "log_test_suppressed.jsonl";
  std::remove(path.c_str());
  Logger::Options opts;
  opts.level = LogLevel::kDebug;
  opts.path = path;
  Logger::arm(opts);
  Logger& logger = Logger::global();
  LogSite site{"tests/log", __FILE__, __LINE__};
  // Pre-seed the site's suppression counter as the limiter would have; the
  // next emitted record must carry it and reset the counter.
  site.suppressed.store(5);
  logger.log(site, LogLevel::kInfo, "after suppression", {});
  EXPECT_EQ(site.suppressed.load(), 0u);
  Logger::disarm();
  const auto records = parse_jsonl(slurp(path));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].at("suppressed").as_number(), 5.0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Self-metrics: each written record adds 1 to log_records_total and each
// suppressed one to log_rate_limited_total, at the site, with no flush.

TEST(LoggerSaturation, DropAndSuppressionCountersReexportAsMetrics) {
  RunContext::Options ctx_opts;
  ctx_opts.metrics = true;
  const RunContext ctx(ctx_opts);
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::uint64_t records_before =
      reg.counter("log_records_total").value();
  const std::uint64_t limited_before =
      reg.counter("log_rate_limited_total").value();

  Logger::Options opts;
  opts.level = LogLevel::kDebug;
  opts.path = "log_test_reexport.jsonl";
  opts.site_rate_per_s = 0.0;  // no refill: exactly `burst` records pass
  opts.site_burst = 3.0;
  Logger::arm(opts);
  Logger& logger = Logger::global();
  LogSite site{"tests/log", __FILE__, __LINE__};
  for (std::uint64_t i = 1; i <= 5; ++i) {
    logger.log(site, LogLevel::kInfo, "limited", {{"i", i}});
    const std::uint64_t written = std::min<std::uint64_t>(i, 3);
    EXPECT_EQ(reg.counter("log_records_total").value() - records_before,
              written);
    EXPECT_EQ(reg.counter("log_rate_limited_total").value() - limited_before,
              i - written);
  }
  EXPECT_EQ(logger.emitted(), 3u);
  EXPECT_EQ(logger.rate_limited(), 2u);
  Logger::disarm();
  EXPECT_EQ(parse_jsonl(slurp("log_test_reexport.jsonl")).size(), 3u);
  std::remove("log_test_reexport.jsonl");
}

// ---------------------------------------------------------------------------
// Concurrent writers: the sink's lock keeps every line whole, and each
// thread's records land in the order it wrote them.

TEST(LoggerConcurrency, ThreadsWriteWholeLines) {
  const std::string path = "log_test_concurrency.jsonl";
  std::remove(path.c_str());
  Logger::Options opts;
  opts.level = LogLevel::kDebug;
  opts.path = path;
  opts.site_rate_per_s = 1e12;
  opts.site_burst = 1e12;
  Logger::arm(opts);
  constexpr int kThreads = 8;
  constexpr int kRecords = 200;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kRecords; ++i) {
        ADSD_LOG_INFO("tests/log", "concurrent", {"t", t}, {"i", i});
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  EXPECT_EQ(Logger::global().emitted(),
            static_cast<std::uint64_t>(kThreads * kRecords));
  Logger::disarm();

  const auto records = parse_jsonl(slurp(path));
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kThreads * kRecords));
  std::vector<int> next(kThreads, 0);
  for (const json::Value& rec : records) {
    EXPECT_EQ(rec.at("schema").as_string(), "adsd-log-v1");
    const auto t = static_cast<int>(rec.at("fields").at("t").as_number());
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    EXPECT_EQ(rec.at("fields").at("i").as_number(), next[t]) << "thread " << t;
    ++next[t];
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(next[t], kRecords) << "thread " << t;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tail replay.

TEST(LoggerTail, KeepsLastNLinesForPostmortemReplay) {
  const std::string path = "log_test_tail.jsonl";
  std::remove(path.c_str());
  Logger::Options opts;
  opts.level = LogLevel::kDebug;
  opts.path = path;
  opts.tail_capacity = 3;
  opts.site_rate_per_s = 1e12;
  opts.site_burst = 1e12;
  Logger::arm(opts);
  Logger& logger = Logger::global();
  LogSite site{"tests/log", __FILE__, __LINE__};
  for (int i = 0; i < 5; ++i) {
    logger.log(site, LogLevel::kInfo, "tail " + std::to_string(i), {});
  }
  const std::vector<std::string> tail = logger.tail();
  ASSERT_EQ(tail.size(), 3u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(json::parse(tail[i]).at("msg").as_string(),
              "tail " + std::to_string(i + 2));
  }
  Logger::disarm();
  std::remove(path.c_str());
}

TEST(LoggerTail, FlightPostmortemEmbedsLogTail) {
  const std::string path = "log_test_flight_tail.jsonl";
  std::remove(path.c_str());
  Logger::Options opts;
  opts.level = LogLevel::kDebug;
  opts.path = path;
  opts.run_id = "c0ffee0000000001";
  Logger::arm(opts);
  ADSD_LOG_INFO("tests/log", "before the crash");

  FlightRecorder rec(4);
  FlightRecorder::SolveRecord solve;
  solve.spec = "dalta";
  solve.engine = "prop";
  solve.stop_reason = "deadline";
  solve.run_id = "c0ffee0000000001";
  rec.record(solve);
  std::ostringstream armed_out;
  rec.write_json(armed_out, "unit-test");
  Logger::disarm();
  // A dump written after the last disarm (the CLI's exception path, once
  // the run's context has unwound) still replays the tail.
  std::ostringstream disarmed_out;
  rec.write_json(disarmed_out, "exception");

  for (const std::string& text : {armed_out.str(), disarmed_out.str()}) {
    const json::Value doc = json::parse(text);
    EXPECT_EQ(doc.at("solves").as_array()[0].at("run_id").as_string(),
              "c0ffee0000000001");
    const auto& tail = doc.at("log_tail").as_array();
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0].at("msg").as_string(), "before the crash");
    EXPECT_EQ(tail[0].at("run_id").as_string(), "c0ffee0000000001");
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// RunContext provenance: the context arms the logger, stamps its run_id on
// every record, and closes the sink on destruction.

TEST(LoggerRunContext, ContextArmsLoggerAndStampsRunId) {
  const std::string path = "log_test_ctx.jsonl";
  std::remove(path.c_str());
  std::string run_id;
  {
    RunContext::Options opts;
    opts.log = true;
    opts.log_level = LogLevel::kDebug;
    opts.log_path = path;
    const RunContext ctx(opts);
    run_id = ctx.run_id();
    EXPECT_EQ(run_id.size(), 16u);
    ASSERT_NE(Logger::armed(), nullptr);
    ADSD_LOG_INFO("tests/log", "inside context");
  }
  EXPECT_EQ(Logger::armed(), nullptr);
  const auto records = parse_jsonl(slurp(path));
  ASSERT_GE(records.size(), 1u);
  for (const json::Value& rec : records) {
    EXPECT_EQ(rec.at("run_id").as_string(), run_id);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fixed-seed bit-identity: logging must never perturb results — same
// DaltaResult with logging off, logging on at debug, and every recorder
// armed, at 1 and 8 threads (the test_metrics harness, extended to log).

DaltaResult run_once(bool log, bool everything, std::size_t threads) {
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
  opts.log = log || everything;
  opts.log_level = LogLevel::kDebug;
  opts.log_path = "log_test_identity.jsonl";
  opts.metrics = everything;
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

TEST(LogBitIdentity, SingleThreaded) {
  const DaltaResult off = run_once(false, false, 1);
  const DaltaResult on = run_once(true, false, 1);
  const DaltaResult all = run_once(false, true, 1);
  expect_identical(off, on);
  expect_identical(off, all);
  std::remove("log_test_identity.jsonl");
}

TEST(LogBitIdentity, EightThreads) {
  const DaltaResult off = run_once(false, false, 8);
  const DaltaResult on = run_once(true, false, 8);
  const DaltaResult all = run_once(false, true, 8);
  expect_identical(off, on);
  expect_identical(off, all);
  std::remove("log_test_identity.jsonl");
}

}  // namespace
}  // namespace adsd
