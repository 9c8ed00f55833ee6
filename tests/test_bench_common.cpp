// Unit tests for the shared bench harness helpers: the argv stripper that
// hides harness-only flags from google-benchmark, and the schema-v2
// BenchReport writer that every BENCH_*.json goes through. The stripper is
// tested directly so that adding a new harness flag (as --qor and --json
// were) cannot silently leak into benchmark::Initialize and abort the run.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "support/json.hpp"

namespace adsd {
namespace {

std::vector<std::string> strip(std::vector<std::string> tokens) {
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (std::string& t : tokens) {
    argv.push_back(t.data());
  }
  const std::vector<char*> out =
      bench::strip_harness_flags(static_cast<int>(argv.size()), argv.data());
  std::vector<std::string> result;
  result.reserve(out.size());
  for (char* t : out) {
    result.push_back(t);
  }
  return result;
}

TEST(HarnessFlags, RecognizesAllHarnessFlags) {
  for (const char* flag :
       {"--trace", "--report", "--threads", "--seed", "--qor", "--json",
        "--metrics", "--metrics-format", "--log-level", "--log-file",
        "--obs-dir"}) {
    EXPECT_TRUE(bench::is_harness_flag(flag)) << flag;
    EXPECT_TRUE(bench::is_harness_flag(std::string(flag) + "=x")) << flag;
  }
}

TEST(HarnessFlags, LeavesBenchmarkFlagsAlone) {
  EXPECT_FALSE(bench::is_harness_flag("--benchmark_min_time=0.05x"));
  EXPECT_FALSE(bench::is_harness_flag("--benchmark_filter=BM_Force"));
  EXPECT_FALSE(bench::is_harness_flag("-seed"));       // not a -- flag
  EXPECT_FALSE(bench::is_harness_flag("seed"));        // bare token
  EXPECT_FALSE(bench::is_harness_flag("--seedling"));  // prefix, not match
}

TEST(HarnessFlags, StripsAttachedForm) {
  EXPECT_EQ(strip({"prog", "--json=out.json", "--benchmark_min_time=0.05x"}),
            (std::vector<std::string>{"prog", "--benchmark_min_time=0.05x"}));
}

TEST(HarnessFlags, StripsDetachedFormWithValue) {
  EXPECT_EQ(strip({"prog", "--qor", "qor.json", "--seed", "7", "positional"}),
            (std::vector<std::string>{"prog", "positional"}));
}

TEST(HarnessFlags, DetachedFlagBeforeAnotherFlagDropsOnlyItself) {
  // "--trace --benchmark_list_tests" must not eat the benchmark flag.
  EXPECT_EQ(strip({"prog", "--trace", "--benchmark_list_tests"}),
            (std::vector<std::string>{"prog", "--benchmark_list_tests"}));
}

TEST(HarnessFlags, PassesThroughUnknownTokens) {
  EXPECT_EQ(strip({"prog", "input.txt", "--unknown", "value"}),
            (std::vector<std::string>{"prog", "input.txt", "--unknown",
                                      "value"}));
}

TEST(BenchReport, WritesSchemaV2WithHostAndRecords) {
  bench::BenchReport report("unit_test");
  report.add_time("kernels/BM_X", 1.25);
  report.add_qor("fig4/med", 0.03125, "", true, "");
  report.add_derived("speedup_2t", 0.99, "max", false,
                     "measured on a 1-CPU host");

  std::ostringstream out;
  report.write(out);
  const json::Value doc = json::parse(out.str());

  EXPECT_EQ(doc.at("schema").as_string(), "adsd-bench-v2");
  EXPECT_TRUE(doc.at("generated").contains("date"));
  EXPECT_TRUE(doc.at("generated").contains("commit"));
  EXPECT_EQ(doc.at("generated").at("generator").as_string(), "unit_test");
  EXPECT_GE(doc.at("host").at("hardware_concurrency").as_number(), 1.0);
  EXPECT_EQ(doc.at("host").at("multi_core").as_bool(),
            bench::multi_core_host());

  const auto& records = doc.at("records").as_array();
  ASSERT_EQ(records.size(), 3u);
  ASSERT_EQ(report.size(), 3u);

  EXPECT_EQ(records[0].at("name").as_string(), "kernels/BM_X");
  EXPECT_EQ(records[0].at("kind").as_string(), "time");
  EXPECT_EQ(records[0].at("unit").as_string(), "s");
  EXPECT_EQ(records[0].at("direction").as_string(), "min");
  EXPECT_TRUE(records[0].at("valid").as_bool());
  EXPECT_DOUBLE_EQ(records[0].at("value").as_number(), 1.25);
  EXPECT_FALSE(records[0].contains("note"));  // empty note is omitted

  EXPECT_EQ(records[1].at("kind").as_string(), "qor");
  EXPECT_EQ(records[1].at("direction").as_string(), "min");
  EXPECT_DOUBLE_EQ(records[1].at("value").as_number(), 0.03125);

  EXPECT_EQ(records[2].at("kind").as_string(), "derived");
  EXPECT_EQ(records[2].at("unit").as_string(), "ratio");
  EXPECT_EQ(records[2].at("direction").as_string(), "max");
  EXPECT_FALSE(records[2].at("valid").as_bool());
  EXPECT_EQ(records[2].at("note").as_string(), "measured on a 1-CPU host");

  // No run_id set: the host block must not carry an empty provenance key.
  EXPECT_FALSE(doc.at("host").contains("run_id"));
}

TEST(BenchReport, StampsRunIdIntoHostBlockWhenSet) {
  bench::BenchReport report("unit_test");
  report.set_run_id("feedface00000001");
  report.add_time("kernels/BM_X", 1.25);
  std::ostringstream out;
  report.write(out);
  const json::Value doc = json::parse(out.str());
  EXPECT_EQ(doc.at("host").at("run_id").as_string(), "feedface00000001");
}

}  // namespace
}  // namespace adsd
