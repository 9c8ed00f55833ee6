#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/dalta.hpp"
#include "core/nondisjoint_dalta.hpp"
#include "core/solver_registry.hpp"
#include "funcs/registry.hpp"
#include "support/json.hpp"
#include "support/qor.hpp"
#include "support/run_context.hpp"

namespace adsd {
namespace {

TEST(QorRecorder, CountersAndSamplesAccumulate) {
  QorRecorder qor;
  qor.add("a/b");
  qor.add("a/b", 2.5);
  qor.sample("s", 3.0);
  qor.sample("s", -1.0);
  qor.sample("s", 2.0);
  EXPECT_DOUBLE_EQ(qor.counter("a/b"), 3.5);
  EXPECT_DOUBLE_EQ(qor.counter("never"), 0.0);

  const json::Value doc = json::parse(qor.to_json());
  EXPECT_EQ(doc.at("schema").as_string(), "adsd-qor-v1");
  const json::Value& s = doc.at("samples").at("s");
  EXPECT_DOUBLE_EQ(s.at("count").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(s.at("min").as_number(), -1.0);
  EXPECT_DOUBLE_EQ(s.at("max").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(s.at("sum").as_number(), 4.0);
  EXPECT_NEAR(s.at("mean").as_number(), 4.0 / 3.0, 1e-12);
}

TEST(QorRecorder, CurvesAreBoundedWithDropAccounting) {
  QorRecorder qor(/*curve_capacity=*/4);
  const std::uint64_t a = qor.begin_curve("a");
  const std::uint64_t b = qor.begin_curve("b");
  for (std::uint64_t i = 0; i < 5; ++i) {
    qor.curve_point(a, i, -static_cast<double>(i));
  }
  qor.curve_point(b, 0, 1.0);  // capacity shared across curves: dropped
  EXPECT_EQ(qor.dropped(), 2u);
  EXPECT_EQ(qor.curve_count(), 2u);

  const json::Value doc = json::parse(qor.to_json());
  const auto& curves = doc.at("curves").as_array();
  ASSERT_EQ(curves.size(), 2u);
  EXPECT_EQ(curves[0].at("iterations").as_array().size(), 4u);
  EXPECT_EQ(curves[1].at("iterations").as_array().size(), 0u);
  EXPECT_DOUBLE_EQ(doc.at("dropped").as_number(), 2.0);
}

TEST(QorRecorder, OutOfRangeCurveIdIsIgnored) {
  QorRecorder qor;
  qor.curve_point(99, 0, 1.0);  // no curve registered: silently dropped
  EXPECT_EQ(qor.dropped(), 0u);
  EXPECT_EQ(qor.curve_count(), 0u);
}

TEST(QorRecorder, NullSafeHelpersNoOpOnNullptr) {
  qor_add(nullptr, "x");
  qor_sample(nullptr, "x", 1.0);  // must not crash
  QorRecorder qor;
  qor_add(&qor, "x", 2.0);
  qor_sample(&qor, "y", 1.0);
  EXPECT_DOUBLE_EQ(qor.counter("x"), 2.0);
}

TEST(QorRecorder, FinalSummaryRoundTripsThroughJson) {
  QorRecorder qor;
  EXPECT_FALSE(qor.has_final());
  EXPECT_THROW(qor.final_summary(), std::runtime_error);

  QorRecorder::Final fin;
  fin.stage = "dalta";
  fin.med = 0.25;
  fin.error_rate = 0.125;
  fin.lut_bits = 48;
  fin.flat_bits = 256;
  fin.outputs.push_back({0.125, 48, 256});
  qor.record_final(fin);
  ASSERT_TRUE(qor.has_final());
  EXPECT_EQ(qor.final_summary().lut_bits, 48u);

  const json::Value doc = json::parse(qor.to_json());
  const auto& finals = doc.at("finals").as_array();
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_EQ(finals[0].at("stage").as_string(), "dalta");
  EXPECT_DOUBLE_EQ(finals[0].at("med").as_number(), 0.25);
  EXPECT_DOUBLE_EQ(finals[0].at("lut_bits").as_number(), 48.0);
  ASSERT_EQ(finals[0].at("outputs").as_array().size(), 1u);
}

TEST(JsonWriter, RoundTripsValues) {
  std::map<std::string, json::Value> obj;
  obj.emplace("b", json::Value::make_bool(true));
  obj.emplace("n", json::Value::make_number(1.5));
  obj.emplace("i", json::Value::make_number(1234567.0));
  obj.emplace("s", json::Value::make_string("a \"quoted\"\n\ttail"));
  obj.emplace("a", json::Value::make_array(
                       {json::Value::make_null(),
                        json::Value::make_number(-2.0)}));
  const json::Value v = json::Value::make_object(std::move(obj));
  const json::Value back = json::parse(json::dump(v));
  EXPECT_TRUE(back.at("b").as_bool());
  EXPECT_DOUBLE_EQ(back.at("n").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(back.at("i").as_number(), 1234567.0);
  EXPECT_EQ(back.at("s").as_string(), "a \"quoted\"\n\ttail");
  ASSERT_EQ(back.at("a").as_array().size(), 2u);
  EXPECT_TRUE(back.at("a").as_array()[0].is_null());
  // Exact integers print without a decimal point (stable baselines).
  EXPECT_NE(json::dump(v).find("1234567"), std::string::npos);
}

DaltaParams small_params() {
  DaltaParams params;
  params.free_size = 3;
  params.num_partitions = 3;
  params.rounds = 1;
  params.seed = 7;
  return params;
}

TEST(QorIntegration, DaltaIsBitIdenticalWithQorOnVsOff) {
  const auto exact = make_benchmark_table("exp", 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const auto solver = SolverRegistry::global().make("prop", {});
  const DaltaParams params = small_params();

  auto run_with = [&](bool qor) {
    RunContext::Options opts;
    opts.seed = params.seed;
    opts.qor = qor;
    const RunContext ctx(opts);
    return run_dalta(exact, dist, params, *solver, ctx);
  };
  const auto plain = run_with(false);
  const auto recorded = run_with(true);

  ASSERT_EQ(plain.approx.num_patterns(), recorded.approx.num_patterns());
  for (std::uint64_t x = 0; x < plain.approx.num_patterns(); ++x) {
    ASSERT_EQ(plain.approx.word(x), recorded.approx.word(x))
        << "pattern " << x;
  }
  EXPECT_DOUBLE_EQ(plain.med, recorded.med);
  EXPECT_DOUBLE_EQ(plain.error_rate, recorded.error_rate);
  EXPECT_EQ(plain.solver_iterations, recorded.solver_iterations);
  for (unsigned k = 0; k < plain.approx.num_outputs(); ++k) {
    EXPECT_DOUBLE_EQ(plain.outputs[k].objective,
                     recorded.outputs[k].objective);
  }
}

TEST(QorIntegration, NdDaltaIsBitIdenticalWithQorOnVsOff) {
  const auto exact = make_benchmark_table("cos", 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const auto solver = SolverRegistry::global().make("prop", {});
  NdDaltaParams params;
  params.free_size = 3;
  params.shared_size = 1;
  params.num_partitions = 3;
  params.rounds = 1;
  params.seed = 11;

  auto run_with = [&](bool qor) {
    RunContext::Options opts;
    opts.seed = params.seed;
    opts.qor = qor;
    const RunContext ctx(opts);
    return run_dalta_nd(exact, dist, params, *solver, ctx);
  };
  const auto plain = run_with(false);
  const auto recorded = run_with(true);

  for (std::uint64_t x = 0; x < plain.approx.num_patterns(); ++x) {
    ASSERT_EQ(plain.approx.word(x), recorded.approx.word(x))
        << "pattern " << x;
  }
  EXPECT_DOUBLE_EQ(plain.med, recorded.med);
  EXPECT_EQ(plain.solver_iterations, recorded.solver_iterations);
}

TEST(QorIntegration, DaltaRunFillsDecisionsCurvesAndFinal) {
  const auto exact = make_benchmark_table("exp", 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const auto solver = SolverRegistry::global().make("prop", {});
  const DaltaParams params = small_params();

  RunContext::Options opts;
  opts.seed = params.seed;
  opts.qor = true;
  const RunContext ctx(opts);
  const auto res = run_dalta(exact, dist, params, *solver, ctx);

  const QorRecorder* qor = ctx.qor();
  ASSERT_NE(qor, nullptr);
  // One commit per (round, output), each trying every candidate partition.
  EXPECT_EQ(qor->decision_count(),
            params.rounds * exact.num_outputs());
  EXPECT_DOUBLE_EQ(qor->counter("dalta/commits"),
                   static_cast<double>(params.rounds * exact.num_outputs()));
  EXPECT_GE(qor->counter("dalta/partitions_tried"),
            static_cast<double>(qor->decision_count()));
  // The prop solver runs bSB under the hood: convergence curves and
  // Theorem-3 reset counters must be present.
  EXPECT_GT(qor->curve_count(), 0u);
  EXPECT_GT(qor->counter("ising/theorem3/resets"), 0.0);

  ASSERT_TRUE(qor->has_final());
  const QorRecorder::Final fin = qor->final_summary();
  EXPECT_EQ(fin.stage, "dalta");
  EXPECT_DOUBLE_EQ(fin.med, res.med);
  EXPECT_DOUBLE_EQ(fin.error_rate, res.error_rate);
  const auto net = res.to_lut_network();
  EXPECT_EQ(fin.lut_bits, net.total_size_bits());
  EXPECT_EQ(fin.flat_bits, net.total_flat_size_bits());
  ASSERT_EQ(fin.outputs.size(), exact.num_outputs());

  // The export parses and carries every section.
  std::ostringstream out;
  qor->write_json(out);
  const json::Value doc = json::parse(out.str());
  EXPECT_EQ(doc.at("schema").as_string(), "adsd-qor-v1");
  EXPECT_FALSE(doc.at("decisions").as_array().empty());
  EXPECT_FALSE(doc.at("curves").as_array().empty());
  EXPECT_FALSE(doc.at("finals").as_array().empty());
  EXPECT_TRUE(doc.at("samples").contains("core/objective/ising-bsb"));
}

TEST(QorIntegration, TightDeadlineTriggersBudgetRescale) {
  const auto exact = make_benchmark_table("exp", 8, 8);
  const auto dist = InputDistribution::uniform(8);
  // High iteration count with the variance stop disabled, so the first
  // sampling point's timing estimate says the full run cannot
  // fit the budget and the engine must rescale. The budget must be small
  // enough that max-iter cannot fit, but large enough that the first
  // solve *starts* before it expires -- the engine's deadline-at-entry
  // check returns immediately (no rescale) on an already-expired context.
  const auto solver = SolverRegistry::global().make(
      "prop",
      SolverRegistry::parse_spec("prop,max-iter=2000000,stop=0")
          .second);
  DaltaParams params;
  params.free_size = 4;
  params.num_partitions = 2;
  params.rounds = 1;
  params.seed = 3;
  params.parallel = false;

  RunContext::Options opts;
  opts.seed = params.seed;
  opts.qor = true;
  opts.parallel = false;
  opts.time_budget_s = 0.05;
  const RunContext ctx(opts);
  (void)run_dalta(exact, dist, params, *solver, ctx);

  EXPECT_GT(ctx.qor()->counter("ising/sb/budget_rescales"), 0.0);
}

TEST(QorIntegration, NoDeadlineNeverRescales) {
  const auto exact = make_benchmark_table("exp", 7, 7);
  const auto dist = InputDistribution::uniform(7);
  const auto solver = SolverRegistry::global().make("prop", {});
  const DaltaParams params = small_params();

  RunContext::Options opts;
  opts.seed = params.seed;
  opts.qor = true;
  const RunContext ctx(opts);
  (void)run_dalta(exact, dist, params, *solver, ctx);
  EXPECT_DOUBLE_EQ(ctx.qor()->counter("ising/sb/budget_rescales"), 0.0);
}

}  // namespace
}  // namespace adsd
