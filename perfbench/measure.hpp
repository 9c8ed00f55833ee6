#pragma once

// Measurement primitives of the end-to-end benchmark: an in-memory span log,
// a timing decorator around any CoreCopSolver, and the interval and
// percentile arithmetic the per-layer metrics are derived from. Everything
// here times calls into the library's public functions from the outside; no
// span is recorded inside src/.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cop_solvers.hpp"
#include "core/dalta.hpp"

namespace perfbench {

inline constexpr std::size_t kNoParent = std::numeric_limits<std::size_t>::max();

/// One timed interval. Times are seconds on the steady clock since the
/// owning SpanLog was created; `thread` is a dense index in order of each
/// thread's first recorded span. The solve fields are filled only by
/// TimedSolver spans.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::size_t parent = kNoParent;
  std::size_t thread = 0;
  std::size_t members = 0;      // solves covered: 1 looped, K for a batch
  std::size_t iterations = 0;   // summed CoreSolveStats::iterations
  std::size_t early_stops = 0;  // members whose dynamic stop fired

  double duration_s() const { return end_s - start_s; }
};

/// Spans of one traced run, kept in memory and written out at the end.
/// Scopes (open/close) belong to the calling thread that drives the run;
/// record() may be called from any thread and parents the span to the
/// scope open at that moment — the solves of one run_dalta call all run
/// while its scope is open.
class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Opens a child of the current scope and makes it current.
  std::size_t open(std::string name);

  /// Closes scope `index` (the innermost open one) and restores its parent.
  void close(std::size_t index);

  /// Appends a finished span under the current scope; returns its index.
  std::size_t record(Span span);

  std::vector<Span> spans() const;

  /// {"spans": [{"name", "start_s", "end_s", "parent", "thread", ...}]}
  void write_json(std::ostream& out) const;

  /// RAII scope over open()/close().
  class Scope {
   public:
    Scope(SpanLog* log, std::string name)
        : log_(log), index_(log != nullptr ? log->open(std::move(name)) : 0) {}
    ~Scope() {
      if (log_ != nullptr) {
        log_->close(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::size_t index() const { return index_; }

   private:
    SpanLog* log_;
    std::size_t index_;
  };

 private:
  std::size_t thread_index_locked();

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
  std::size_t current_ = kNoParent;
};

/// Times every solve()/solve_batch() of `inner` into a SpanLog. Results,
/// stats and seeds pass through untouched, so a wrapped solver produces
/// bit-identical DaltaResults; batched() mirrors the inner solver so
/// run_dalta takes the same looped or batched path.
class TimedSolver final : public adsd::CoreCopSolver {
 public:
  TimedSolver(const adsd::CoreCopSolver& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  /// Distinct from the inner name, so the library's own "core/solve/<name>"
  /// spans of the inner solver stay separate from this wrapper's.
  std::string name() const override { return "timed/" + inner_.name(); }
  bool batched() const override { return inner_.batched(); }

 protected:
  adsd::ColumnSetting do_solve(const adsd::ColumnCop& cop,
                               const adsd::RunContext& ctx,
                               std::uint64_t seed,
                               adsd::CoreSolveStats* stats) const override;

  void do_solve_batch(std::span<const adsd::ColumnCop> cops,
                      const adsd::RunContext& ctx,
                      std::span<const std::uint64_t> seeds,
                      std::span<adsd::ColumnSetting> out,
                      std::span<adsd::CoreSolveStats> stats) const override;

 private:
  const adsd::CoreCopSolver& inner_;
  SpanLog& log_;
};

/// Total length covered by at least one of the half-open intervals
/// [first, second): the wall time during which at least one solve was in
/// flight. Empty and inverted intervals contribute nothing.
double union_length(std::vector<std::pair<double, double>> intervals);

/// The highest percentile of a sample that still has `min_beyond` samples
/// above it: with N sorted samples it is the (N - min_beyond)-th smallest,
/// at percentile 100 * (N - min_beyond) / N. With N <= min_beyond no such
/// percentile exists and the maximum is reported with `beyond` = 0.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
};
Tail tail_percentile(std::vector<double> samples, std::size_t min_beyond = 10);

/// Median (mean of the two middle values for even sizes); 0 when empty.
double median(std::vector<double> values);

/// CPU time of the whole process so far, every thread included (user plus
/// system), in seconds. Time a thread spends blocked, or runnable while
/// another process holds its CPU, does not count.
double process_cpu_s();

/// Empty when `a` and `b` agree in every field except the wall-clock
/// `seconds`: the approximation, every committed partition and setting,
/// the objectives, MED, error rate and the solve counters. Otherwise a
/// one-line description of the first difference.
std::string result_difference(const adsd::DaltaResult& a,
                              const adsd::DaltaResult& b);

}  // namespace perfbench
