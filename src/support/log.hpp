#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace adsd {

/// Severity of one log record. Ordered: a logger armed at level L emits
/// records with level >= L. kOff is a threshold-only value ("log nothing")
/// and never appears on a record.
enum class LogLevel : std::uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

/// Lowercase wire name ("debug" / "info" / "warn" / "error" / "off").
const char* log_level_name(LogLevel level);

/// Parses a wire name; std::nullopt for anything unknown.
std::optional<LogLevel> parse_log_level(std::string_view name);

/// The accepted-level roster for error messages: "debug, info, warn, error,
/// off".
const char* log_level_roster();

/// Parse with the registry-style error contract: throws
/// std::invalid_argument("unknown log level '<name>' (accepted: ...)").
LogLevel parse_log_level_or_throw(std::string_view name);

/// One typed field value attached to a log record. Views must outlive the
/// ADSD_LOG_* call (the record is serialized inside it), which string
/// literals and in-scope locals trivially satisfy.
class LogValue {
 public:
  enum class Kind : std::uint8_t { kString, kInt, kUint, kDouble, kBool };

  LogValue(const char* s) : kind_(Kind::kString), s_(s) {}
  LogValue(std::string_view s) : kind_(Kind::kString), s_(s) {}
  LogValue(const std::string& s) : kind_(Kind::kString), s_(s) {}
  LogValue(double v) : kind_(Kind::kDouble), d_(v) {}
  LogValue(float v) : kind_(Kind::kDouble), d_(v) {}
  LogValue(bool v) : kind_(Kind::kBool), b_(v) {}
  LogValue(int v) : kind_(Kind::kInt), i_(v) {}
  LogValue(long v) : kind_(Kind::kInt), i_(v) {}
  LogValue(long long v) : kind_(Kind::kInt), i_(v) {}
  LogValue(unsigned v) : kind_(Kind::kUint), u_(v) {}
  LogValue(unsigned long v) : kind_(Kind::kUint), u_(v) {}
  LogValue(unsigned long long v) : kind_(Kind::kUint), u_(v) {}

  Kind kind() const { return kind_; }
  std::string_view string_value() const { return s_; }
  std::int64_t int_value() const { return i_; }
  std::uint64_t uint_value() const { return u_; }
  double double_value() const { return d_; }
  bool bool_value() const { return b_; }

 private:
  Kind kind_;
  std::string_view s_{};
  union {
    std::int64_t i_;
    std::uint64_t u_;
    double d_;
    bool b_;
  };
};

/// One key/value field at a log site: ADSD_LOG_INFO("c", "m", {"n", 64}).
struct LogField {
  std::string_view key;
  LogValue value;
};

/// Deterministic token bucket: `burst` tokens of headroom refilled at
/// `rate_per_s`, both passed per call so the bucket itself is pure state
/// (one spinlocked {tokens, last_ns} pair — log sites are never inner-loop
/// hot once armed, and the disarmed path never reaches the bucket). The
/// caller supplies the clock, which is what makes the unit tests exact.
class TokenBucket {
 public:
  TokenBucket() = default;

  /// True (and consumes one token) when the site may emit at `now_ns`.
  bool try_acquire(std::uint64_t now_ns, double rate_per_s, double burst);

 private:
  std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  bool primed_ = false;       // first acquire starts with a full bucket
  double tokens_ = 0.0;       // guarded by lock_
  std::uint64_t last_ns_ = 0;
};

/// Per-call-site static state for the ADSD_LOG_* macros: identity plus the
/// rate-limiter bucket and its suppression count. Constructed lazily (the
/// macro's `static`) only on the first armed-and-enabled pass.
struct LogSite {
  LogSite(const char* component_in, const char* file_in, int line_in)
      : component(component_in), file(file_in), line(line_in) {}

  const char* component;
  const char* file;
  int line;
  TokenBucket bucket;
  /// Records suppressed by the limiter since the site last emitted; folded
  /// into the next emitted record as "suppressed": N.
  std::atomic<std::uint64_t> suppressed{0};
};

/// Process-wide structured logger — the fourth observability pillar next to
/// TraceRecorder / QorRecorder / MetricsRegistry, and the run-provenance
/// spine joining all of them: every record carries the current run_id.
///
/// Off path: ADSD_LOG_* compiles to one relaxed armed() load (the
/// MetricsRegistry discipline); nullptr when no context armed logging, so a
/// disarmed site costs a load + branch and never constructs its LogSite.
/// Logging only *reads* call-site state, so fixed-seed runs are
/// bit-identical with logging off or on (tests/test_log.cpp asserts this at
/// 1 and 8 threads).
///
/// Armed: log() takes the logger's one mutex, applies the site's token
/// bucket, serializes the record to one `adsd-log-v1` JSON line, keeps the
/// line in the tail ring, and writes and flushes it to the sink (file or
/// stderr) before returning. Lines never interleave, and every record whose
/// log() call returned is in the file even if the process then crashes.
/// While metrics are armed, each written record adds 1 to
/// `log_records_total` and each suppressed one to `log_rate_limited_total`;
/// suppressions are also surfaced on the site's next record. The tail ring
/// (the last tail_capacity lines) outlives the disarm and is cleared by the
/// next first arm, so a FlightRecorder postmortem written after the run's
/// context is gone still replays it as "log_tail".
///
/// Line schema (`adsd-log-v1`, one JSON object per line):
///   {"schema":"adsd-log-v1","ts":<unix seconds>,"level":"info",
///    "thread":<ordinal>,"component":"core/dalta","run_id":"...",
///    "msg":"...","fields":{...}}          (+ optional "parent_id",
///                                          "suppressed")
class Logger {
 public:
  static constexpr std::size_t kDefaultTailCapacity = 64;
  static constexpr double kDefaultSiteRatePerS = 100.0;
  static constexpr double kDefaultSiteBurst = 20.0;

  struct Options {
    /// Minimum severity emitted; kOff arms the logger but emits nothing.
    LogLevel level = LogLevel::kInfo;
    /// JSONL destination; empty = stderr.
    std::string path;
    /// Last-N serialized lines kept for FlightRecorder postmortem replay.
    std::size_t tail_capacity = kDefaultTailCapacity;
    /// Per-site token bucket: burst tokens refilled at rate_per_s.
    double site_rate_per_s = kDefaultSiteRatePerS;
    double site_burst = kDefaultSiteBurst;
    /// Provenance stamped into every record (see RunContext).
    std::string run_id;
    std::string parent_id;
  };

  /// Arm/disarm refcount for the process-wide logger (RunContext holds one
  /// reference per log-enabled context; the CLI/bench flags arm through
  /// RunContext). The first arm (0 -> 1) applies `options`: it opens the
  /// sink and clears the tail ring. Nested arms join the open logger and
  /// only refresh run_id/parent_id. The last disarm closes the sink.
  static void arm(const Options& options);
  static void disarm();

  /// The context-free off-path test: one relaxed atomic load, nullptr when
  /// no context has logging armed.
  static Logger* armed() {
    return armed_ptr().load(std::memory_order_relaxed);
  }

  /// The singleton behind arm()/armed(); storage never dies, so a stale
  /// armed() pointer read racing a disarm stays dereferenceable.
  static Logger& global();

  /// Mints a fresh 16-hex-char correlation ID (process-unique, seeded from
  /// the OS entropy source; never affects solver RNG streams).
  static std::string mint_run_id();

  bool enabled(LogLevel level) const {
    return static_cast<std::uint8_t>(level) >=
           threshold_.load(std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(threshold_.load(std::memory_order_relaxed));
  }

  /// Serializes one record and writes it to the sink. Call through
  /// ADSD_LOG_* so the site carries its static LogSite; `fields` views need
  /// only outlive the call. A call that loaded armed() before the last
  /// disarm finds the sink closed and writes nothing.
  void log(LogSite& site, LogLevel level, std::string_view message,
           std::initializer_list<LogField> fields);

  /// Records written to the sink since the last first arm.
  std::uint64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }
  /// Records suppressed by per-site token buckets since the last first arm.
  std::uint64_t rate_limited() const {
    return rate_limited_.load(std::memory_order_relaxed);
  }

  /// Oldest-to-newest copy of the last-N serialized lines (each one a
  /// complete `adsd-log-v1` JSON object) for postmortem replay. Still
  /// readable after the last disarm, until the next first arm.
  std::vector<std::string> tail() const;

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

 private:
  Logger() = default;

  static std::atomic<Logger*>& armed_ptr();

  std::atomic<std::uint8_t> threshold_{
      static_cast<std::uint8_t>(LogLevel::kOff)};
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> rate_limited_{0};

  // The one mutex guards the arm count, the sink, the options log() stamps
  // and the tail ring. It lives in the never-freed singleton, so a stale
  // armed() pointer can always take it and find sink_ null.
  mutable std::mutex mutex_;
  int arm_count_ = 0;
  std::FILE* sink_ = nullptr;  // null while disarmed
  Options options_;
  std::vector<std::string> tail_;  // circular once full, tail_head_ = oldest
  std::size_t tail_head_ = 0;
};

}  // namespace adsd

// Severity-leveled structured log sites. Disarmed cost: one relaxed load +
// branch (<= 2 ns, benchmarked by BM_LogOffPath). Usage:
//   ADSD_LOG_WARN("ising/engine", "deadline at entry", {"sweeps", done});
#define ADSD_LOG_AT(level_, component_, message_, ...)                    \
  do {                                                                    \
    ::adsd::Logger* adsd_log_inst_ = ::adsd::Logger::armed();             \
    if (adsd_log_inst_ != nullptr && adsd_log_inst_->enabled(level_)) {   \
      static ::adsd::LogSite adsd_log_site_{component_, __FILE__,         \
                                            __LINE__};                    \
      adsd_log_inst_->log(adsd_log_site_, level_, (message_),             \
                          {__VA_ARGS__});                                 \
    }                                                                     \
  } while (false)

#define ADSD_LOG_DEBUG(component_, message_, ...)             \
  ADSD_LOG_AT(::adsd::LogLevel::kDebug, component_, message_  \
              __VA_OPT__(, ) __VA_ARGS__)
#define ADSD_LOG_INFO(component_, message_, ...)              \
  ADSD_LOG_AT(::adsd::LogLevel::kInfo, component_, message_   \
              __VA_OPT__(, ) __VA_ARGS__)
#define ADSD_LOG_WARN(component_, message_, ...)              \
  ADSD_LOG_AT(::adsd::LogLevel::kWarn, component_, message_   \
              __VA_OPT__(, ) __VA_ARGS__)
#define ADSD_LOG_ERROR(component_, message_, ...)             \
  ADSD_LOG_AT(::adsd::LogLevel::kError, component_, message_  \
              __VA_OPT__(, ) __VA_ARGS__)
