#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/exact_sum.hpp"

namespace adsd {

/// Quality-of-result recorder for one solve run.
///
/// Complements the MetricsRegistry/TraceRecorder pair: where those observe
/// how long the solver took and where the time went, the QorRecorder
/// observes what the solver *achieved* — per-output error rate of the
/// committed decompositions, accepted-vs-tried candidate partitions, the
/// objective distribution per core solver, bSB best-energy-vs-iteration
/// convergence curves, Theorem-3 polish deltas, and the final LUT-bit cost
/// against the exact 2^n baseline. These are the axes decomposition / Ising-machine
/// papers evaluate on, exported machine-readable so tools/bench_diff can
/// gate regressions in CI.
///
/// Discipline (identical to TraceRecorder):
///  - Armed via RunContext::Options::qor; RunContext::qor() returns nullptr
///    when off, and every instrumentation site reduces to a single pointer
///    test on that path.
///  - Recording only *reads* solver state — it never perturbs RNG streams,
///    candidate ordering, or arithmetic — so a fixed-seed run is
///    bit-identical with recording on or off (tested).
///  - Thread-safe: the DALTA candidate fan-out records from pool workers.
///    Sites record at decision/sampling granularity (not per Euler step),
///    so a mutex is cheap relative to the work between records.
///  - Convergence-curve storage is bounded; points beyond the capacity are
///    dropped and counted, never silently lost.
///
/// Export: write_json() emits the versioned `qor.json` schema
/// ("adsd-qor-v1", built on support/json's writer; see DESIGN.md §4.5).
class QorRecorder {
 public:
  /// Bound on stored convergence-curve points across all curves.
  static constexpr std::size_t kDefaultCurveCapacity = 1u << 15;

  explicit QorRecorder(std::size_t curve_capacity = kDefaultCurveCapacity);

  QorRecorder(const QorRecorder&) = delete;
  QorRecorder& operator=(const QorRecorder&) = delete;

  /// Monotonic named totals (Theorem-3 resets, anti-collapse interventions,
  /// budget rescales, partitions screened, ...).
  void add(std::string_view name, double delta = 1.0);

  /// Distribution sample: tracks count / min / max / sum per name
  /// (per-solver objectives, Theorem-3 polish deltas, rescaled iteration
  /// budgets, ...). The sum is kept exactly and rounded once where it is
  /// written, so it does not depend on the order pool workers record in.
  void sample(std::string_view name, double value);

  /// One committed (round, output) decision of the DALTA outer loop.
  struct OutputRecord {
    std::string stage;            // "dalta" | "dalta_nd"
    std::size_t round = 0;
    std::size_t output = 0;       // output bit index k
    std::size_t tried = 0;        // candidate partitions evaluated
    double best_objective = 0.0;  // committed setting (from round 1 on,
                                  // the incumbent's, re-scored, unless a
                                  // candidate beat it)
    double worst_objective = 0.0; // worst evaluated candidate
    double error_rate = 0.0;      // committed output bit vs the exact bit
  };
  void record_output(OutputRecord rec);

  /// Opens a bSB convergence curve and returns its id; feed sampling points
  /// with curve_point(). Ids are assigned in registration order (which may
  /// interleave across threads — curves are independent, order is not
  /// meaningful).
  std::uint64_t begin_curve(std::string_view name);

  /// One (iteration, best energy) sampling point of curve `id`.
  void curve_point(std::uint64_t id, std::uint64_t iteration,
                   double best_energy);

  /// End-of-run summary of one run_dalta / run_dalta_nd invocation. A
  /// context shared across several runs (the bench harnesses) accumulates
  /// one Final per run; final_summary() returns the last.
  struct FinalOutput {
    double error_rate = 0.0;
    std::uint64_t lut_bits = 0;   // 2^|B| + 2^(|A|+1) (stored)
    std::uint64_t flat_bits = 0;  // 2^n (exact baseline)
  };
  struct Final {
    std::string stage;
    double med = 0.0;
    double error_rate = 0.0;
    std::uint64_t lut_bits = 0;
    std::uint64_t flat_bits = 0;
    std::vector<FinalOutput> outputs;  // index = output bit k
  };
  void record_final(Final fin);

  /// Curve points rejected because the capacity was exhausted. Each
  /// rejection also adds 1 to the `qor_dropped_total` metric while metrics
  /// are armed.
  std::uint64_t dropped() const;

  /// Provenance stamped into the adsd-qor-v1 header ("run_id" /
  /// "parent_id"). Set once by RunContext at construction, before any
  /// concurrent recording; empty values are omitted.
  void set_run(std::string run_id, std::string parent_id) {
    run_id_ = std::move(run_id);
    parent_id_ = std::move(parent_id);
  }
  const std::string& run_id() const { return run_id_; }

  bool has_final() const;
  Final final_summary() const;  // last recorded Final; throws if none
  double counter(std::string_view name) const;  // 0 when never recorded
  std::size_t curve_count() const;
  std::size_t decision_count() const;

  /// The versioned qor.json document ("schema": "adsd-qor-v1").
  void write_json(std::ostream& out) const;
  std::string to_json() const;

 private:
  struct Dist {
    std::size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    ExactSum sum;
  };
  struct Curve {
    std::string name;
    std::vector<std::pair<std::uint64_t, double>> points;
  };

  std::size_t curve_capacity_;

  mutable std::mutex mutex_;
  std::string run_id_;
  std::string parent_id_;
  std::map<std::string, double, std::less<>> counters_;
  std::map<std::string, Dist, std::less<>> samples_;
  std::vector<OutputRecord> decisions_;
  std::vector<Curve> curves_;
  std::size_t curve_points_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Final> finals_;
};

/// Null-safe helpers mirroring trace_instant/trace_counter: sites record
/// unconditionally and a disarmed recorder costs one pointer test. Callers
/// that would pay to *build* the recorded value (string concatenation,
/// objective evaluation) should test the pointer themselves instead.
inline void qor_add(QorRecorder* qor, std::string_view name,
                    double delta = 1.0) {
  if (qor != nullptr) {
    qor->add(name, delta);
  }
}

inline void qor_sample(QorRecorder* qor, std::string_view name, double value) {
  if (qor != nullptr) {
    qor->sample(name, value);
  }
}

}  // namespace adsd
