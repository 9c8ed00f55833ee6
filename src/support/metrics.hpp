#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace adsd {

/// One key="value" pair at a metric call site. Both views must point at
/// storage that outlives the call (string literals or owned strings).
struct MetricLabel {
  std::string_view key;
  std::string_view value;
};

/// Mergeable point-in-time copy of one histogram: the bucket counts plus
/// the exact aggregates. merge() is associative and commutative, so
/// per-thread histograms can be folded in any order and match a single
/// histogram fed all values (the property tests/test_metrics.cpp asserts).
struct HistogramData {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::uint64_t underflow = 0;  // values below the lowest bucket (and NaN)
  std::uint64_t overflow = 0;   // values at or above the highest bound
  std::vector<std::uint64_t> buckets;  // Histogram::kNumBuckets entries

  void merge(const HistogramData& other);

  /// Nearest-rank quantile estimate from the bucket counts: the upper bound
  /// of the bucket holding the rank-ceil(q * count) value, clamped to the
  /// exact [min, max] seen. Relative overestimate is bounded by the
  /// sub-bucket width (1 / Histogram::kSubBuckets) for in-range values.
  double quantile(double q) const;
};

/// Process-wide registry of lock-free counters, gauges, and log-bucketed
/// histograms with labeled families — the third observability axis next to
/// TraceRecorder (per-run timelines) and QorRecorder (per-run quality):
/// cheap aggregates that accumulate across every solve in the process and
/// export as Prometheus text (v0.0.4) or an `adsd-metrics-v1` JSON
/// snapshot.
///
/// Off path: sites reach the registry through RunContext::metrics() (a
/// cached pointer, nullptr when the context was built without metrics) or
/// MetricsRegistry::armed() (one relaxed atomic load), so a disarmed site
/// costs one pointer test — same discipline as trace/QoR, and recording
/// only ever *reads* solver state, so fixed-seed runs are bit-identical
/// with metrics on or off.
///
/// Hot path: metric slots live in a fixed open-addressed table of atomic
/// pointers — claimed once by CAS, never rehashed or removed, every update
/// a relaxed atomic op. Table saturation is counted in dropped() (and
/// self-exported as metrics_dropped_total); saturated lookups return a
/// process-wide sink metric so call sites never branch on failure.
class MetricsRegistry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  /// Monotonically increasing integer total.
  class Counter {
   public:
    void add(std::uint64_t delta = 1) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
    std::uint64_t value() const {
      return value_.load(std::memory_order_relaxed);
    }

   private:
    std::atomic<std::uint64_t> value_{0};
  };

  /// Last-write-wins double (set) with an optional accumulate (add).
  class Gauge {
   public:
    void set(double v) {
      bits_.store(std::bit_cast<std::uint64_t>(v),
                  std::memory_order_relaxed);
    }
    void add(double delta);
    double value() const {
      return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
    }

   private:
    std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
  };

  /// HDR-style log-linear histogram: kSubBuckets linear sub-buckets per
  /// power-of-two octave over [2^kMinExponent, 2^kMaxExponent), plus
  /// underflow/overflow buckets and exact count/sum/min/max. The bucket
  /// maps are static so the boundary tests can probe them directly.
  /// Recording is a relaxed fetch_add on one bucket plus CAS folds of the
  /// double aggregates — wait-free in practice, mergeable via snapshot().
  class Histogram {
   public:
    static constexpr int kSubBuckets = 8;     // per octave, relative
                                              // resolution 1/8 = 12.5%
    static constexpr int kMinExponent = -10;  // lowest bound 2^-10
    static constexpr int kMaxExponent = 44;   // overflow at >= 2^44 (~1.8e13)
    static constexpr std::size_t kNumBuckets =
        static_cast<std::size_t>(kMaxExponent - kMinExponent) * kSubBuckets;

    Histogram();

    static double min_value();  // lower bound of bucket 0
    static double max_value();  // upper bound of the last bucket

    /// Bucket for value v: -1 = underflow (v < min_value(), negatives,
    /// NaN), kNumBuckets = overflow, else the regular bucket index.
    static std::ptrdiff_t bucket_index(double v);
    static double bucket_lower(std::size_t index);
    static double bucket_upper(std::size_t index);

    void record(double v);

    /// record() plus an exemplar: the latest (value, run_id) pair is kept
    /// and exposed in both expositions, joining this series to the run
    /// that produced its most recent observation. An empty id records
    /// without touching the exemplar.
    void record(double v, std::string_view exemplar_run_id);

    /// Copies the latest exemplar; false when none was ever recorded.
    bool exemplar(double* value, std::string* run_id) const;

    HistogramData snapshot() const;

   private:
    mutable std::atomic_flag exemplar_lock_ = ATOMIC_FLAG_INIT;
    bool has_exemplar_ = false;        // guarded by exemplar_lock_
    double exemplar_value_ = 0.0;      // guarded by exemplar_lock_
    std::string exemplar_run_id_;      // guarded by exemplar_lock_
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_bits_{std::bit_cast<std::uint64_t>(0.0)};
    std::atomic<std::uint64_t> min_bits_{std::bit_cast<std::uint64_t>(
        std::numeric_limits<double>::infinity())};
    std::atomic<std::uint64_t> max_bits_{std::bit_cast<std::uint64_t>(
        -std::numeric_limits<double>::infinity())};
    std::atomic<std::uint64_t> underflow_{0};
    std::atomic<std::uint64_t> overflow_{0};
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  };

  MetricsRegistry() = default;
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve (creating on first use) a metric of the given kind. `name`
  /// and label keys must match [a-zA-Z_][a-zA-Z0-9_]* (throws
  /// std::invalid_argument otherwise); re-resolving an existing key with a
  /// different kind throws std::logic_error. On table saturation the
  /// update is redirected to a shared sink metric and counted in
  /// dropped(). The returned reference stays valid for the registry's
  /// lifetime and may be cached across calls.
  Counter& counter(std::string_view name,
                   std::initializer_list<MetricLabel> labels = {});
  Gauge& gauge(std::string_view name,
               std::initializer_list<MetricLabel> labels = {});
  Histogram& histogram(std::string_view name,
                       std::initializer_list<MetricLabel> labels = {});

  /// Lookups rejected because the slot table was full.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Distinct metric series currently registered.
  std::size_t size() const;

  /// Prometheus text exposition format v0.0.4: every family prefixed
  /// "adsd_", one # TYPE line per family, histogram series as cumulative
  /// _bucket{le=...} (non-empty buckets plus the mandatory +Inf), _sum and
  /// _count. Families and series are sorted, output is stable.
  void write_prometheus(std::ostream& out) const;

  /// Schema-versioned JSON snapshot ("adsd-metrics-v1"): sorted series
  /// array with per-kind payloads; histograms carry count/sum/min/max,
  /// underflow/overflow, p50/p95/p99, and the non-empty [lower, upper,
  /// count] buckets.
  void write_json(std::ostream& out) const;

  /// The process-wide registry every instrumentation site aggregates into.
  static MetricsRegistry& global();

  /// Arm/disarm refcount for the global registry (RunContext holds one
  /// reference per metrics-enabled context). armed() is the context-free
  /// off-path test — one relaxed atomic load, nullptr when no context has
  /// metrics enabled.
  static void arm();
  static void disarm();
  static MetricsRegistry* armed() {
    return armed_ptr().load(std::memory_order_relaxed);
  }

 private:
  struct Metric {
    std::string key;  // canonical "name{k=\"v\",...}" (labels sorted)
    std::string name;
    std::vector<std::pair<std::string, std::string>> labels;
    Kind kind = Kind::kCounter;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;  // kHistogram only
  };

  static constexpr std::size_t kSlots = 4096;

  static std::atomic<MetricsRegistry*>& armed_ptr();

  Metric* resolve(Kind kind, std::string_view name,
                  std::initializer_list<MetricLabel> labels);
  std::vector<const Metric*> sorted_metrics() const;

  std::array<std::atomic<Metric*>, kSlots> slots_{};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Bounded ring of recent solve summaries — the crash-time complement to
/// the live registry: every run_dalta / run_dalta_nd completion appends a
/// record (when metrics or a postmortem are armed), and the recorder dumps
/// the ring as a postmortem JSON ("adsd-flight-v1") on deadline overrun,
/// solver exception (the CLI catch block), or a fatal signal.
///
/// Fatal-signal path: while a postmortem is armed, every record() refreshes
/// a pre-serialized buffer, so the signal handler only open()/write()s
/// bytes that already exist — no allocation, no formatting, async-signal
/// safe. A crash racing a concurrent record() can at worst lose the
/// refresh (the handler then writes the previous consistent snapshot).
class FlightRecorder {
 public:
  struct SolveRecord {
    std::string spec;         // stage, e.g. "dalta" / "dalta_nd"
    std::string engine;       // core-COP solver name
    std::string stop_reason;  // "ok" | "deadline" | "exception"
    std::string run_id;       // provenance (RunContext::run_id), may be ""
    std::uint64_t n = 0;      // table inputs
    std::uint64_t rounds = 0;
    double final_energy = 0.0;  // total committed objective
    double med = 0.0;
    double duration_s = 0.0;
    std::uint64_t seq = 0;  // assigned by record(), monotone
  };

  static constexpr std::size_t kDefaultCapacity = 128;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Appends one summary (oldest evicted past capacity). While a
  /// postmortem is armed this refreshes the signal buffer and, for a
  /// "deadline" record, dumps the postmortem immediately.
  void record(SolveRecord rec);

  /// Oldest-to-newest copy of the ring.
  std::vector<SolveRecord> snapshot() const;

  /// Records ever seen (>= snapshot().size()).
  std::uint64_t total_recorded() const;

  /// Arms postmortem dumping to `path`. With install_handlers (global
  /// recorder only, POSIX), fatal signals (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/
  /// SIGILL) write the pre-serialized ring to `path` before re-raising.
  void arm_postmortem(std::string path, bool install_handlers = false);
  bool postmortem_armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Writes the ring to the armed path with the given reason. Returns
  /// false when no postmortem is armed or the file cannot be opened.
  bool dump_postmortem(std::string_view reason) const;

  /// The "adsd-flight-v1" document: schema, reason, total_recorded, and
  /// the ring oldest-to-newest.
  void write_json(std::ostream& out, std::string_view reason) const;

  static FlightRecorder& global();

 private:
  void refresh_signal_buffer_locked() const;
  std::string to_json_locked(std::string_view reason) const;

  mutable std::mutex mutex_;
  std::vector<SolveRecord> ring_;  // circular, head_ = oldest
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
  std::string postmortem_path_;
  std::atomic<bool> armed_{false};
  bool signal_buffer_ = false;  // this recorder feeds the signal buffer
};

}  // namespace adsd
