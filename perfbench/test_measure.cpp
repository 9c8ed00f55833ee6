// Tests of the benchmark's own measurement code: the decorator must not
// change any result, the interval and percentile helpers must give
// hand-computed answers, the process CPU clock must count every thread,
// and a failing solver must count as exactly one failed operation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "flow.hpp"
#include "funcs/registry.hpp"
#include "measure.hpp"

namespace perfbench {
namespace {

/// Small joint-mode shape: fast, but with enough candidates per round that
/// the 4-worker fan-out and the pack both have work to split.
Workload small_workload(std::size_t workers) {
  Workload w;
  w.name = "small";
  w.n = 8;
  w.m = 8;
  w.free_size = 3;
  w.functions = {"exp", "cos"};
  w.partitions = 6;
  w.rounds = 1;
  w.workers = workers;
  return w;
}

std::vector<adsd::TruthTable> tables_of(const Workload& w) {
  std::vector<adsd::TruthTable> out;
  for (const std::string& fn : w.functions) {
    out.push_back(adsd::make_benchmark_table(fn, w.n, w.m));
  }
  return out;
}

void expect_wrapped_identical(std::size_t workers) {
  const Workload w = small_workload(workers);
  const auto tables = tables_of(w);
  const auto dist = adsd::InputDistribution::uniform(w.n);
  const adsd::DaltaParams params = dalta_params(w);
  SpanLog log;
  for (std::size_t v = 0; v < kVariants; ++v) {
    const auto solver = make_solver(variant_spec(w, v), w.n);
    const TimedSolver timed(*solver, log);
    EXPECT_EQ(timed.batched(), solver->batched());
    for (std::size_t f = 0; f < tables.size(); ++f) {
      const auto plain_ctx = make_context(w, 7);
      const auto timed_ctx = make_context(w, 7);
      const adsd::DaltaResult plain =
          adsd::run_dalta(tables[f], dist, params, *solver, *plain_ctx);
      const adsd::DaltaResult wrapped =
          adsd::run_dalta(tables[f], dist, params, timed, *timed_ctx);
      EXPECT_EQ(result_difference(plain, wrapped), "")
          << variant_name(v) << " on " << w.functions[f] << " at " << workers
          << " workers";
    }
  }
  // Looped variants record one span per candidate solve, the packed one
  // one span per output-round batch.
  std::size_t looped = 0;
  std::size_t batched = 0;
  for (const Span& s : log.spans()) {
    looped += s.name == "solve" ? 1 : 0;
    batched += s.name == "solve_batch" ? 1 : 0;
  }
  EXPECT_EQ(looped, 2 * tables.size() * w.m * w.partitions);
  EXPECT_EQ(batched, tables.size() * w.m);
}

TEST(TimedSolver, BitIdenticalOnLoopedAndBatchedPathsOneWorker) {
  expect_wrapped_identical(1);
}

TEST(TimedSolver, BitIdenticalOnLoopedAndBatchedPathsFourWorkers) {
  expect_wrapped_identical(4);
}

TEST(TimedSolver, SpansNestUnderTheOpenScope) {
  const Workload w = small_workload(4);
  const auto tables = tables_of(w);
  const auto dist = adsd::InputDistribution::uniform(w.n);
  SpanLog log;
  const auto solver = make_solver("prop", w.n);
  const TimedSolver timed(*solver, log);
  const auto ctx = make_context(w, 3);
  std::size_t scope = 0;
  {
    const SpanLog::Scope run(&log, "run_dalta");
    scope = run.index();
    adsd::run_dalta(tables[0], dist, dalta_params(w), timed, *ctx);
  }
  const std::vector<Span> spans = log.spans();
  std::size_t solves = 0;
  for (const Span& s : spans) {
    if (s.name == "solve") {
      ++solves;
      EXPECT_EQ(s.parent, scope);
      EXPECT_GE(s.start_s, spans[scope].start_s);
      EXPECT_LE(s.end_s, spans[scope].end_s);
      EXPECT_EQ(s.members, 1u);
    }
  }
  EXPECT_EQ(solves, w.m * w.partitions);
}

TEST(UnionLength, HandComputedCover) {
  EXPECT_DOUBLE_EQ(union_length({}), 0.0);
  EXPECT_DOUBLE_EQ(union_length({{1.0, 3.0}}), 2.0);
  // [0,2) and [1,3) overlap into [0,3); [5,6) is separate: 3 + 1.
  EXPECT_DOUBLE_EQ(union_length({{5.0, 6.0}, {1.0, 3.0}, {0.0, 2.0}}), 4.0);
  // Nested and touching intervals: [0,10) swallows [2,3); [10,12) touches.
  EXPECT_DOUBLE_EQ(union_length({{0.0, 10.0}, {2.0, 3.0}, {10.0, 12.0}}),
                   12.0);
  // Empty and inverted intervals cover nothing.
  EXPECT_DOUBLE_EQ(union_length({{4.0, 4.0}, {7.0, 6.0}, {1.0, 2.0}}), 1.0);
}

TEST(UnionLength, SelfTimeIsSpanMinusCover) {
  // A 10 s run with solves in flight over [1,4) and [3,6) (cover 5 s)
  // spends 5 s outside the solver layer.
  const double cover = union_length({{1.0, 4.0}, {3.0, 6.0}});
  EXPECT_DOUBLE_EQ(cover, 5.0);
  EXPECT_DOUBLE_EQ(10.0 - cover, 5.0);
}

TEST(TailPercentile, HandComputedTail) {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  // 100 samples: the 90th smallest (90) has exactly 10 above it.
  Tail t = tail_percentile(hundred);
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.beyond, 10u);

  std::vector<double> forty;
  for (int i = 1; i <= 40; ++i) {
    forty.push_back(0.5 * i);
  }
  // 40 samples: rank 30 (value 15) at percentile 75.
  t = tail_percentile(forty);
  EXPECT_DOUBLE_EQ(t.value, 15.0);
  EXPECT_DOUBLE_EQ(t.percentile, 75.0);
  EXPECT_EQ(t.beyond, 10u);

  // Too few samples for 10 beyond: the maximum, nothing beyond it.
  t = tail_percentile({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(t.value, 3.0);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.beyond, 0u);

  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Spins until the calling thread has used `seconds` of CPU time.
void burn_cpu(double seconds) {
  const double until = thread_cpu_s() + seconds;
  volatile double x = 1.0;
  while (thread_cpu_s() < until) {
    x = x * 1.0000001;
  }
}

TEST(ProcessCpu, CountsEveryThreadButNotSleep) {
  // Two threads burn 50 ms of CPU each: the process clock counts both.
  const double t0 = process_cpu_s();
  std::thread other([] { burn_cpu(0.05); });
  burn_cpu(0.05);
  other.join();
  EXPECT_GE(process_cpu_s() - t0, 0.1);
  // A blocked thread costs (almost) nothing.
  const double t1 = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LT(process_cpu_s() - t1, 0.02);
}

/// Passes every solve through to `inner`, except that the k-th solve call
/// (1-based, counted across threads) throws.
class ThrowingSolver final : public adsd::CoreCopSolver {
 public:
  ThrowingSolver(const adsd::CoreCopSolver& inner, std::size_t k)
      : inner_(inner), k_(k) {}
  std::string name() const override { return "throwing"; }

 protected:
  adsd::ColumnSetting do_solve(const adsd::ColumnCop& cop,
                               const adsd::RunContext& ctx,
                               std::uint64_t seed,
                               adsd::CoreSolveStats* stats) const override {
    if (++calls_ == k_) {
      throw std::runtime_error("injected failure");
    }
    return inner_.solve(cop, ctx, seed, stats);
  }

 private:
  const adsd::CoreCopSolver& inner_;
  std::size_t k_;
  mutable std::atomic<std::size_t> calls_{0};
};

TEST(OpCount, SolverThrowingOnKthCallFailsExactlyOneOperation) {
  const Workload w = small_workload(4);
  const auto tables = tables_of(w);
  const auto dist = adsd::InputDistribution::uniform(w.n);
  const auto prop = make_solver("prop", w.n);
  const auto pack = make_solver(variant_spec(w, kPack), w.n);
  const auto greedy = make_solver("dalta", w.n);
  const auto ctx = make_context(w, 11);

  PassOptions clean;
  clean.solvers = {prop.get(), pack.get(), greedy.get()};
  OpCount clean_ops;
  run_pass(w, tables, dist, clean, *ctx, clean_ops);
  EXPECT_EQ(clean_ops.attempted, tables.size() * kVariants);
  EXPECT_EQ(clean_ops.failed, 0u);

  const ThrowingSolver throwing(*prop, 5);
  PassOptions faulty = clean;
  faulty.solvers[kProp] = &throwing;
  OpCount ops;
  const Pass pass = run_pass(w, tables, dist, faulty, *ctx, ops);
  EXPECT_EQ(ops.attempted, tables.size() * kVariants);
  EXPECT_EQ(ops.failed, 1u);
  EXPECT_DOUBLE_EQ(ops.fail_frac(), 1.0 / (tables.size() * kVariants));
  // The failed prop result is dropped; the packed one of that function
  // still passes its own checks.
  EXPECT_FALSE(pass.results[0][kProp].has_value());
  EXPECT_TRUE(pass.results[0][kPack].has_value());
  EXPECT_TRUE(pass.results[1][kProp].has_value());
}

TEST(OpCount, MismatchAgainstReferenceCountsAsFailure) {
  const Workload w = small_workload(1);
  const auto tables = tables_of(w);
  const auto dist = adsd::InputDistribution::uniform(w.n);
  const auto greedy = make_solver("dalta", w.n);
  PassOptions opts;
  opts.solvers = {nullptr, nullptr, greedy.get()};
  OpCount ops;
  const Pass reference =
      run_pass(w, tables, dist, opts, *make_context(w, 1), ops);
  EXPECT_EQ(ops.failed, 0u);
  // Another seed draws other partitions, so the results must differ.
  opts.reference = &reference;
  run_pass(w, tables, dist, opts, *make_context(w, 2), ops);
  EXPECT_EQ(ops.attempted, 2 * tables.size());
  EXPECT_EQ(ops.failed, tables.size());
}

TEST(VerifyResult, DetectsATamperedApproximation) {
  const Workload w = small_workload(1);
  const auto tables = tables_of(w);
  const auto dist = adsd::InputDistribution::uniform(w.n);
  const auto greedy = make_solver("dalta", w.n);
  adsd::DaltaResult r = adsd::run_dalta(tables[0], dist, dalta_params(w),
                                        *greedy, *make_context(w, 5));
  EXPECT_EQ(verify_result(tables[0], dist, r), "");
  adsd::DaltaResult wrong_med = r;
  wrong_med.med += 1.0;
  EXPECT_NE(verify_result(tables[0], dist, wrong_med), "");
  EXPECT_NE(result_difference(r, wrong_med), "");
  adsd::DaltaResult flipped = r;
  flipped.approx.set_bit(0, 0, !flipped.approx.bit(0, 0));
  EXPECT_NE(verify_result(tables[0], dist, flipped), "");
  EXPECT_NE(result_difference(r, flipped), "");
}

}  // namespace
}  // namespace perfbench
