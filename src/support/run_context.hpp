#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>

#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/qor.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace adsd {

class ThreadPool;

/// Shared execution context for one solve run, threaded through the whole
/// stack (run_dalta / run_dalta_nd -> partition screening -> core COP
/// solvers -> the Ising engines). It owns the three cross-cutting concerns
/// every layer used to wire up separately:
///
///  - the ThreadPool handle (process-wide shared pool by default, or a
///    private pool when an explicit thread count is requested),
///  - a counter-based deterministic RNG stream factory: stream(tag, k...)
///    yields the same stream for the same (seed, tag, indices) regardless
///    of call order or thread count, replacing ad-hoc `seed + offset`
///    arithmetic,
///  - a wall-clock deadline/budget for anytime solvers.
///
/// The context is handed around as `const RunContext&`; recorder and pool
/// access are const because both are internally synchronized.
class RunContext {
 public:
  struct Options {
    /// Root seed; every stream(tag, ...) derives from it.
    std::uint64_t seed = 42;

    /// kSharedPool uses the process-wide ThreadPool::shared(); any other
    /// value builds a private pool with that many workers (1 = serial
    /// participation-only execution, 0 = hardware concurrency).
    static constexpr std::size_t kSharedPool = static_cast<std::size_t>(-1);
    std::size_t threads = kSharedPool;

    /// Master parallelism switch; false keeps every layer on the calling
    /// thread regardless of pool size.
    bool parallel = true;

    /// Wall-clock budget in seconds, measured from context construction.
    /// Non-positive = unlimited.
    double time_budget_s = 0.0;

    /// Per-thread event tracing (spans / instants / counter samples with
    /// Chrome-trace and run-report export). Off by default: tracer()
    /// returns nullptr and every instrumentation site reduces to one
    /// pointer test. Tracing never perturbs results — recording only reads
    /// solver state, so a fixed-seed run is bit-identical either way.
    /// The recorder holds TraceRecorder::kDefaultCapacity events per
    /// thread; beyond that whole spans are dropped (and counted), never
    /// torn.
    bool trace = false;

    /// Quality-of-result recording (per-output error rates, partition
    /// accept/try counts, bSB convergence curves, LUT-bit totals, with
    /// qor.json export). Same discipline as trace: off by default, qor()
    /// returns nullptr, and recording never perturbs results — fixed-seed
    /// runs are bit-identical either way.
    /// Convergence curves hold QorRecorder::kDefaultCurveCapacity points;
    /// beyond that points are dropped (and counted).
    bool qor = false;

    /// Always-on aggregate metrics (counters / gauges / latency histograms
    /// with Prometheus exposition; see support/metrics.hpp). Arms the
    /// process-wide MetricsRegistry for this context's lifetime: metrics()
    /// returns &MetricsRegistry::global() and context-free sites see
    /// MetricsRegistry::armed() != nullptr. Same discipline as trace/qor:
    /// off by default, one pointer test per disarmed site, and recording
    /// never perturbs results — fixed-seed runs are bit-identical either
    /// way.
    bool metrics = false;

    /// Run provenance: the correlation ID stamped into every artifact this
    /// context produces — trace metadata, adsd-qor-v1 header, metrics
    /// exemplars, flight records, and every log line — so one request can
    /// be joined across all observability pillars. Empty =
    /// minted at construction (16 hex chars); a caller-supplied value (the
    /// future daemon's request ID) is taken verbatim.
    std::string run_id;

    /// Optional caller-side parent correlation ID, carried alongside
    /// run_id in every artifact that has one. Never minted.
    std::string parent_id;

    /// Structured leveled logging (support/log.hpp). Arms the process-wide
    /// Logger for this context's lifetime with the run provenance above.
    /// Same discipline as metrics: off by default, one relaxed load per
    /// disarmed site, and logging never perturbs results — fixed-seed runs
    /// are bit-identical either way.
    bool log = false;

    /// Minimum severity emitted while log is armed.
    LogLevel log_level = LogLevel::kInfo;

    /// JSONL destination for log records; empty = stderr.
    std::string log_path;
  };

  RunContext() : RunContext(Options{}) {}
  explicit RunContext(Options options);
  explicit RunContext(std::uint64_t seed) : RunContext(make_seeded(seed)) {}
  ~RunContext();

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  std::uint64_t seed() const { return options_.seed; }
  bool parallel() const { return options_.parallel; }

  /// This run's correlation ID (never empty — minted at construction when
  /// Options::run_id was). Stamped into every artifact; see
  /// Options::run_id.
  const std::string& run_id() const { return options_.run_id; }

  /// Caller-supplied parent correlation ID; empty when none was given.
  const std::string& parent_id() const { return options_.parent_id; }

  /// Deterministic stream seed for (tag, a, b, c): a keyed hash of the root
  /// seed, the tag string, and up to three counters. Streams with different
  /// tags or counters are statistically independent.
  std::uint64_t stream_seed(std::string_view tag, std::uint64_t a = 0,
                            std::uint64_t b = 0, std::uint64_t c = 0) const;

  /// Four-counter variant for call sites with an extra grid axis (e.g. the
  /// non-disjoint screener's (partition, slice) pairs). The d round is
  /// applied only when d != 0, so stream_seed(tag, a, b, c, 0) equals the
  /// three-counter value — existing streams keep their seeds and a new
  /// axis's slice 0 aliases the un-sliced stream by construction.
  std::uint64_t stream_seed(std::string_view tag, std::uint64_t a,
                            std::uint64_t b, std::uint64_t c,
                            std::uint64_t d) const;

  /// Ready-to-use generator over stream_seed().
  Rng stream(std::string_view tag, std::uint64_t a = 0, std::uint64_t b = 0,
             std::uint64_t c = 0) const {
    return Rng(stream_seed(tag, a, b, c));
  }

  /// Worker pool: the process-wide shared pool unless Options::threads
  /// selected a private one. Lazily resolved so serial contexts never spin
  /// up threads.
  ThreadPool& pool() const;

  const Deadline& deadline() const { return deadline_; }
  bool expired() const { return deadline_.expired(); }

  /// Event tracer, or nullptr when Options::trace was off. Pass the pointer
  /// straight to TraceSpan / trace_instant / trace_counter — all of them
  /// no-op on nullptr.
  TraceRecorder* tracer() const { return trace_.get(); }

  /// QoR recorder, or nullptr when Options::qor was off. qor_add/qor_sample
  /// no-op on nullptr; sites that must build the recorded value (strings,
  /// extra evaluations) should test the pointer themselves first.
  QorRecorder* qor() const { return qor_.get(); }

  /// The process-wide metrics registry, or nullptr when Options::metrics
  /// was off. Sites test the pointer and record through it directly.
  MetricsRegistry* metrics() const { return metrics_; }

  /// Process-wide fallback context used by convenience overloads that take
  /// no explicit context (seed 42, shared pool, no deadline).
  static const RunContext& fallback();

 private:
  static Options make_seeded(std::uint64_t seed) {
    Options o;
    o.seed = seed;
    return o;
  }

  Options options_;
  Deadline deadline_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<QorRecorder> qor_;
  MetricsRegistry* metrics_ = nullptr;
  bool log_armed_ = false;  // this context holds one Logger::arm reference
  mutable std::unique_ptr<ThreadPool> owned_pool_;
  mutable std::mutex pool_mutex_;
};

}  // namespace adsd
