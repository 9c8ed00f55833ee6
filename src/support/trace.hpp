#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace adsd {

/// Per-thread, lock-free event tracer for one solve run.
///
/// Complements the aggregating MetricsRegistry: where the registry answers
/// "how much / how many" with per-series totals, the recorder keeps the
/// *timeline* — which thread did what, when — so a whole run_dalta is one
/// navigable flame graph and bSB convergence (energy trajectory, stop
/// variance, Theorem-3 interventions) can be read off per sampling point.
///
/// Design:
///  - Every recording thread owns a private ThreadBuffer (events + interned
///    name table), registered once under a mutex on that thread's first
///    event and cached thread-locally afterwards, so the hot path is a
///    plain vector append with zero synchronization. No ordering exists
///    between buffers; per-thread order is program order, which is exactly
///    what span nesting needs.
///  - Buffers are bounded. Begin events reserve the slot for their matching
///    end, so a saturated buffer drops whole spans (counted in dropped()),
///    never half of one — exported traces always balance.
///  - Timestamps are nanoseconds on the steady clock since the recorder's
///    construction, shared across threads.
///
/// A null TraceRecorder* is the disabled state: TraceSpan and the free
/// helpers below no-op on nullptr, so instrumentation sites record
/// unconditionally and a run without --trace pays one pointer test.
///
/// Export:
///  - write_chrome_json(): Chrome trace_event JSON array format, loadable
///    in chrome://tracing and Perfetto (B/E duration events per thread,
///    C counter events, i instants, M thread-name metadata).
///  - write_report_json(): compact run report — per span path the count,
///    total/mean/min/max and p50/p95/p99 latencies (nearest-rank), counter
///    series summaries, per-thread event counts and utilization.
class TraceRecorder {
 public:
  enum class EventType : std::uint8_t {
    kBegin = 0,
    kEnd = 1,
    kInstant = 2,
    kCounter = 3,
  };

  struct Event {
    std::uint64_t ts_ns = 0;
    double value = 0.0;     // counter sample (kCounter only)
    std::uint32_t name = 0; // index into the owning buffer's name table
    EventType type = EventType::kInstant;
  };

  static constexpr std::size_t kDefaultCapacity = 1u << 18;  // events/thread

  explicit TraceRecorder(std::size_t capacity_per_thread = kDefaultCapacity);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Nanoseconds since recorder construction on the steady clock.
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Opaque handle of one open span; returned by begin() and consumed by
  /// end(). A default-constructed token is inert (dropped or disabled).
  struct SpanToken {
    void* buffer = nullptr;
    std::uint32_t name = 0;
  };

  /// Opens a span on the calling thread. Returns an inert token when the
  /// thread's buffer is saturated (the drop is counted).
  SpanToken begin(std::string_view name);

  /// Closes a span opened by begin() — must run on the same thread.
  void end(SpanToken token);

  /// Point event / counter sample on the calling thread's timeline.
  void instant(std::string_view name);
  void counter(std::string_view name, double value);

  /// Raw append with an explicit timestamp, on the calling thread's buffer.
  /// Used by the report tests to stage exactly-known durations; subject to
  /// the same capacity accounting as the clocked API.
  void emit(EventType type, std::string_view name, std::uint64_t ts_ns,
            double value = 0.0);

  /// Events recorded across all threads (export-time accounting, takes the
  /// registry lock; not for hot paths).
  std::size_t event_count() const;

  /// Events rejected because a thread buffer was full. Each rejection also
  /// adds 1 to the `trace_dropped_total` metric while metrics are armed.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Provenance stamped into both exports (Chrome "otherData" and the run
  /// report "meta"). Set once by RunContext at construction, before any
  /// concurrent recording; empty values are omitted.
  void set_run(std::string run_id, std::string parent_id) {
    run_id_ = std::move(run_id);
    parent_id_ = std::move(parent_id);
  }
  const std::string& run_id() const { return run_id_; }

  std::size_t thread_count() const;

  /// Chrome trace_event JSON: {"traceEvents": [...], ...}.
  void write_chrome_json(std::ostream& out) const;

  /// Compact run report (see the class comment).
  void write_report_json(std::ostream& out) const;

  std::string chrome_json() const;
  std::string report_json() const;

  /// Nearest-rank quantile of an ascending-sorted sample vector: the
  /// ceil(q*N)-th smallest value (q in (0,1]; N >= 1). Exposed so tests can
  /// pin the report's p50/p95/p99 definition.
  static double quantile_sorted(const std::vector<double>& sorted_ascending,
                                double q);

 private:
  struct ThreadBuffer;

  ThreadBuffer& local_buffer();

  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  std::uint64_t id_;  // process-unique, for the thread-local cache
  std::atomic<std::uint64_t> dropped_{0};
  std::string run_id_;
  std::string parent_id_;

  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; no-ops on a null recorder. Must be destroyed on the thread
/// that created it (stack scoping gives this for free).
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(TraceRecorder* recorder, std::string_view name)
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      token_ = recorder_->begin(name);
    }
  }
  TraceSpan(TraceSpan&& other) noexcept
      : recorder_(other.recorder_), token_(other.token_) {
    other.recorder_ = nullptr;
    other.token_ = {};
  }
  TraceSpan& operator=(TraceSpan&& other) noexcept {
    if (this != &other) {
      close();
      recorder_ = other.recorder_;
      token_ = other.token_;
      other.recorder_ = nullptr;
      other.token_ = {};
    }
    return *this;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { close(); }

 private:
  void close() {
    if (recorder_ != nullptr) {
      recorder_->end(token_);
      recorder_ = nullptr;
      token_ = {};
    }
  }

  TraceRecorder* recorder_ = nullptr;
  TraceRecorder::SpanToken token_{};
};

/// Null-safe free helpers for instrumentation sites.
inline void trace_instant(TraceRecorder* recorder, std::string_view name) {
  if (recorder != nullptr) {
    recorder->instant(name);
  }
}

inline void trace_counter(TraceRecorder* recorder, std::string_view name,
                          double value) {
  if (recorder != nullptr) {
    recorder->counter(name, value);
  }
}

}  // namespace adsd
