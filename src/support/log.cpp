#include "support/log.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <stdexcept>

#include "support/json.hpp"
#include "support/metrics.hpp"

namespace adsd {

namespace {

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; stringify like the qor writer does.
    json::append_json_string(out,
                             std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf"));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

// Process-stable small thread ordinal for the "thread" field (the raw
// std::thread::id is opaque and unstable across runs).
std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "info";
}

std::optional<LogLevel> parse_log_level(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return std::nullopt;
}

const char* log_level_roster() { return "debug, info, warn, error, off"; }

LogLevel parse_log_level_or_throw(std::string_view name) {
  const auto level = parse_log_level(name);
  if (!level.has_value()) {
    throw std::invalid_argument("unknown log level '" + std::string(name) +
                                "' (accepted: " + log_level_roster() + ")");
  }
  return *level;
}

bool TokenBucket::try_acquire(std::uint64_t now_ns, double rate_per_s,
                              double burst) {
  while (lock_.test_and_set(std::memory_order_acquire)) {
  }
  if (!primed_) {
    primed_ = true;
    tokens_ = burst;
    last_ns_ = now_ns;
  } else if (now_ns > last_ns_) {
    tokens_ += static_cast<double>(now_ns - last_ns_) * 1e-9 * rate_per_s;
    if (tokens_ > burst) {
      tokens_ = burst;
    }
    last_ns_ = now_ns;
  }
  const bool ok = tokens_ >= 1.0;
  if (ok) {
    tokens_ -= 1.0;
  }
  lock_.clear(std::memory_order_release);
  return ok;
}

std::atomic<Logger*>& Logger::armed_ptr() {
  static std::atomic<Logger*> ptr{nullptr};
  return ptr;
}

Logger& Logger::global() {
  // Leaked on purpose (like MetricsRegistry::global's static): a stale
  // armed() pointer loaded just before the last disarm must stay valid.
  static Logger* instance = new Logger();
  return *instance;
}

void Logger::arm(const Options& options) {
  Logger& logger = global();
  std::lock_guard<std::mutex> lock(logger.mutex_);
  if (logger.arm_count_ > 0) {
    // Nested contexts join the open sink; only provenance refreshes.
    if (!options.run_id.empty()) {
      logger.options_.run_id = options.run_id;
    }
    logger.options_.parent_id = options.parent_id;
    ++logger.arm_count_;
    return;
  }
  std::FILE* sink = stderr;
  if (!options.path.empty() && options.path != "-") {
    sink = std::fopen(options.path.c_str(), "w");
    if (sink == nullptr) {
      throw std::runtime_error("cannot open log file: " + options.path);
    }
  }
  logger.sink_ = sink;
  logger.options_ = options;
  logger.tail_.clear();
  logger.tail_.reserve(options.tail_capacity);
  logger.tail_head_ = 0;
  logger.emitted_.store(0, std::memory_order_relaxed);
  logger.rate_limited_.store(0, std::memory_order_relaxed);
  logger.threshold_.store(static_cast<std::uint8_t>(options.level),
                          std::memory_order_relaxed);
  logger.arm_count_ = 1;
  armed_ptr().store(&logger, std::memory_order_release);
}

void Logger::disarm() {
  Logger& logger = global();
  std::lock_guard<std::mutex> lock(logger.mutex_);
  if (logger.arm_count_ <= 0 || --logger.arm_count_ > 0) {
    return;
  }
  armed_ptr().store(nullptr, std::memory_order_release);
  logger.threshold_.store(static_cast<std::uint8_t>(LogLevel::kOff),
                          std::memory_order_relaxed);
  if (logger.sink_ == stderr) {
    std::fflush(stderr);
  } else {
    std::fclose(logger.sink_);
  }
  logger.sink_ = nullptr;
}

std::string Logger::mint_run_id() {
  // OS entropy + a process-local counter; independent of every solver RNG
  // stream, so minting can never perturb results.
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t x = std::random_device{}();
  x = (x << 32) ^ std::random_device{}();
  x ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  x ^= counter.fetch_add(1, std::memory_order_relaxed) * 0x9e3779b97f4a7c15ull;
  // One splitmix64 finalizer round so consecutive mints share no pattern.
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(x));
  return std::string(buf);
}

void Logger::log(LogSite& site, LogLevel level, std::string_view message,
                 std::initializer_list<LogField> fields) {
  if (level == LogLevel::kOff) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (sink_ == nullptr) {
    return;  // the last disarm closed the sink after this call's armed()
  }
  MetricsRegistry* metrics = MetricsRegistry::armed();

  const std::uint64_t now_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  if (!site.bucket.try_acquire(now_ns, options_.site_rate_per_s,
                               options_.site_burst)) {
    site.suppressed.fetch_add(1, std::memory_order_relaxed);
    rate_limited_.fetch_add(1, std::memory_order_relaxed);
    if (metrics != nullptr) {
      metrics->counter("log_rate_limited_total").add(1);
    }
    return;
  }
  const std::uint64_t suppressed =
      site.suppressed.exchange(0, std::memory_order_relaxed);

  const double ts =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();

  // Formatted directly rather than through a json::Value tree: log lines
  // are flat, and their strings go through the shared escaper.
  std::string line;
  line.reserve(192);
  line += "{\"schema\":\"adsd-log-v1\",\"ts\":";
  char ts_buf[40];
  std::snprintf(ts_buf, sizeof(ts_buf), "%.6f", ts);
  line += ts_buf;
  line += ",\"level\":\"";
  line += log_level_name(level);
  line += "\",\"thread\":";
  line += std::to_string(thread_ordinal());
  line += ",\"component\":";
  json::append_json_string(line, site.component);
  line += ",\"run_id\":";
  json::append_json_string(line, options_.run_id);
  if (!options_.parent_id.empty()) {
    line += ",\"parent_id\":";
    json::append_json_string(line, options_.parent_id);
  }
  line += ",\"msg\":";
  json::append_json_string(line, message);
  if (suppressed > 0) {
    line += ",\"suppressed\":";
    line += std::to_string(suppressed);
  }
  line += ",\"fields\":{";
  bool first = true;
  for (const LogField& field : fields) {
    if (!first) {
      line.push_back(',');
    }
    first = false;
    json::append_json_string(line, field.key);
    line.push_back(':');
    switch (field.value.kind()) {
      case LogValue::Kind::kString:
        json::append_json_string(line, field.value.string_value());
        break;
      case LogValue::Kind::kInt:
        line += std::to_string(field.value.int_value());
        break;
      case LogValue::Kind::kUint:
        line += std::to_string(field.value.uint_value());
        break;
      case LogValue::Kind::kDouble:
        append_double(line, field.value.double_value());
        break;
      case LogValue::Kind::kBool:
        line += field.value.bool_value() ? "true" : "false";
        break;
    }
  }
  line += "}}";

  if (options_.tail_capacity > 0) {
    if (tail_.size() < options_.tail_capacity) {
      tail_.push_back(line);
    } else {
      tail_[tail_head_] = line;
      tail_head_ = (tail_head_ + 1) % options_.tail_capacity;
    }
  }
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), sink_);
  std::fflush(sink_);
  emitted_.fetch_add(1, std::memory_order_relaxed);
  if (metrics != nullptr) {
    metrics->counter("log_records_total").add(1);
  }
}

std::vector<std::string> Logger::tail() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(tail_.size());
  for (std::size_t i = 0; i < tail_.size(); ++i) {
    out.push_back(tail_[(tail_head_ + i) % tail_.size()]);
  }
  return out;
}

}  // namespace adsd
