#include "support/log.hpp"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "support/metrics.hpp"

namespace adsd {

namespace {

// JSON string escaping for the hand-rolled line serializer (the json::Value
// path would allocate a tree per record; log lines are flat and hot enough
// to format directly, like trace.cpp does for Chrome events).
void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; stringify like the qor writer does.
    append_escaped(out, std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf"));
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

/// SPSC ring of pre-serialized lines: the owning thread produces, the drain
/// (writer thread or an explicit flush()) consumes. head_/tail_ are
/// monotone; slot content is published by the head_ release store.
struct Logger::ThreadBuffer {
  explicit ThreadBuffer(std::size_t capacity_in)
      : capacity(capacity_in), slots(capacity_in) {}

  const std::size_t capacity;
  std::vector<std::string> slots;
  std::atomic<std::uint64_t> head{0};  // next write (producer only)
  std::atomic<std::uint64_t> tail{0};  // next read (consumer only)
  std::uint32_t thread = 0;

  bool push(std::string&& line) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    if (h - tail.load(std::memory_order_acquire) >= capacity) {
      return false;
    }
    slots[h % capacity] = std::move(line);
    head.store(h + 1, std::memory_order_release);
    return true;
  }
};

struct Logger::Impl {
  Options options;
  std::ofstream file;
  std::ostream* out = nullptr;

  std::mutex buffers_mutex;
  // Owned forever (cleared only when fully drained and closed with no
  // producers left — i.e. never freed mid-flight); one entry per thread
  // that ever logged while this logger was open.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;

  std::mutex run_mutex;
  std::string run_id;
  std::string parent_id;

  std::mutex tail_mutex;
  std::vector<std::string> tail_ring;  // circular, tail_head = oldest
  std::size_t tail_head = 0;

  std::mutex drain_mutex;
  std::mutex wake_mutex;
  std::condition_variable wake;
  bool stop = false;
  std::thread writer;
};

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

namespace {
std::mutex g_arm_mutex;
int g_arm_count = 0;
}  // namespace

void Logger::arm(const Options& options) {
  std::lock_guard<std::mutex> lock(g_arm_mutex);
  Logger& logger = global();
  if (g_arm_count == 0) {
    logger.open(options);
    armed_ptr().store(&logger, std::memory_order_release);
  } else {
    // Nested contexts join the open sink; only provenance refreshes.
    logger.set_run(options.run_id, options.parent_id);
  }
  ++g_arm_count;
}

void Logger::disarm() {
  std::lock_guard<std::mutex> lock(g_arm_mutex);
  if (g_arm_count <= 0) {
    return;
  }
  if (--g_arm_count == 0) {
    armed_ptr().store(nullptr, std::memory_order_release);
    global().close();
  }
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

void Logger::open(const Options& options) {
  Impl* impl = new Impl();
  impl->options = options;
  if (!options.path.empty() && options.path != "-") {
    impl->file.open(options.path, std::ios::out | std::ios::trunc);
    if (!impl->file) {
      delete impl;
      throw std::runtime_error("cannot open log file: " + options.path);
    }
    impl->out = &impl->file;
  } else {
    impl->out = &std::clog;
  }
  impl->run_id = options.run_id;
  impl->parent_id = options.parent_id;
  impl->tail_ring.reserve(options.tail_capacity);
  impl_.store(impl, std::memory_order_release);
  exported_emitted_ = 0;
  exported_dropped_ = 0;
  exported_rate_limited_ = 0;
  emitted_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  rate_limited_.store(0, std::memory_order_relaxed);
  threshold_.store(static_cast<std::uint8_t>(options.level),
                   std::memory_order_relaxed);
  if (options.async) {
    impl->writer = std::thread([this, impl] {
      std::unique_lock<std::mutex> wake_lock(impl->wake_mutex);
      while (!impl->stop) {
        impl->wake.wait_for(wake_lock, std::chrono::milliseconds(50));
        wake_lock.unlock();
        drain_once();
        wake_lock.lock();
      }
    });
  }
}

void Logger::close() {
  Impl* impl = impl_.load(std::memory_order_acquire);
  if (impl == nullptr) {
    return;
  }
  threshold_.store(static_cast<std::uint8_t>(LogLevel::kOff),
                   std::memory_order_relaxed);
  if (impl->writer.joinable()) {
    {
      std::lock_guard<std::mutex> wake_lock(impl->wake_mutex);
      impl->stop = true;
    }
    impl->wake.notify_all();
    impl->writer.join();
  }
  drain_once();
  impl->out->flush();
  impl_.store(nullptr, std::memory_order_release);
  // The Impl (and its rings) is leaked on purpose: a producer that loaded
  // armed() just before the close may still be completing one log() call.
  // Bounded by arm cycles per process, each a few KiB.
  closed_.push_back(impl);
}

Logger::ThreadBuffer& Logger::buffer_for_thread(Impl& impl) {
  thread_local ThreadBuffer* cached = nullptr;
  thread_local Impl* cached_impl = nullptr;
  if (cached != nullptr && cached_impl == &impl) {
    return *cached;
  }
  std::lock_guard<std::mutex> lock(impl.buffers_mutex);
  impl.buffers.push_back(
      std::make_unique<ThreadBuffer>(impl.options.ring_capacity));
  cached = impl.buffers.back().get();
  cached->thread = thread_ordinal();
  cached_impl = &impl;
  return *cached;
}

void Logger::log(LogSite& site, LogLevel level, std::string_view message,
                 std::initializer_list<LogField> fields) {
  Impl* impl = impl_.load(std::memory_order_acquire);
  if (impl == nullptr || level == LogLevel::kOff) {
    return;
  }

  const std::uint64_t now_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  if (!site.bucket.try_acquire(now_ns, impl->options.site_rate_per_s,
                               impl->options.site_burst)) {
    site.suppressed.fetch_add(1, std::memory_order_relaxed);
    rate_limited_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t suppressed =
      site.suppressed.exchange(0, std::memory_order_relaxed);

  const double ts =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();

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
  append_escaped(line, site.component);
  line += ",\"run_id\":";
  {
    std::lock_guard<std::mutex> run_lock(impl->run_mutex);
    append_escaped(line, impl->run_id);
    if (!impl->parent_id.empty()) {
      line += ",\"parent_id\":";
      append_escaped(line, impl->parent_id);
    }
  }
  line += ",\"msg\":";
  append_escaped(line, message);
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
    append_escaped(line, field.key);
    line.push_back(':');
    switch (field.value.kind()) {
      case LogValue::Kind::kString:
        append_escaped(line, field.value.string_value());
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

  // Tail replay ring first: a record that reaches the postmortem tail but
  // is then ring-dropped is better than the reverse.
  if (impl->options.tail_capacity > 0) {
    std::lock_guard<std::mutex> tail_lock(impl->tail_mutex);
    if (impl->tail_ring.size() < impl->options.tail_capacity) {
      impl->tail_ring.push_back(line);
    } else {
      impl->tail_ring[impl->tail_head] = line;
      impl->tail_head = (impl->tail_head + 1) % impl->options.tail_capacity;
    }
  }

  if (!buffer_for_thread(*impl).push(std::move(line))) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (impl->options.async) {
    impl->wake.notify_one();
  }
}

void Logger::drain_once() {
  Impl* impl = impl_.load(std::memory_order_acquire);
  if (impl == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> drain_lock(impl->drain_mutex);
  std::size_t buffer_count = 0;
  {
    std::lock_guard<std::mutex> lock(impl->buffers_mutex);
    buffer_count = impl->buffers.size();
  }
  std::uint64_t written = 0;
  for (std::size_t i = 0; i < buffer_count; ++i) {
    ThreadBuffer* buffer = nullptr;
    {
      std::lock_guard<std::mutex> lock(impl->buffers_mutex);
      buffer = impl->buffers[i].get();
    }
    std::uint64_t t = buffer->tail.load(std::memory_order_relaxed);
    const std::uint64_t h = buffer->head.load(std::memory_order_acquire);
    for (; t < h; ++t) {
      std::string& slot = buffer->slots[t % buffer->capacity];
      (*impl->out) << slot << '\n';
      slot.clear();
      ++written;
      buffer->tail.store(t + 1, std::memory_order_release);
    }
  }
  if (written > 0) {
    emitted_.fetch_add(written, std::memory_order_relaxed);
    impl->out->flush();
  }
  // Re-export drop/suppression totals as process metrics (the
  // adsd_metrics_dropped_total discipline) so saturation shows up in a
  // scrape, not just in this logger's own counters.
  if (MetricsRegistry* m = MetricsRegistry::armed()) {
    const auto export_delta = [&](std::uint64_t now, std::uint64_t& exported,
                                  const char* name) {
      if (now > exported) {
        m->counter(name).add(now - exported);
        exported = now;
      }
    };
    export_delta(emitted_.load(std::memory_order_relaxed), exported_emitted_,
                 "log_records_total");
    export_delta(dropped_.load(std::memory_order_relaxed), exported_dropped_,
                 "log_dropped_total");
    export_delta(rate_limited_.load(std::memory_order_relaxed),
                 exported_rate_limited_, "log_rate_limited_total");
  }
}

void Logger::flush() {
  drain_once();
}

void Logger::set_run(std::string run_id, std::string parent_id) {
  Impl* impl = impl_.load(std::memory_order_acquire);
  if (impl == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> run_lock(impl->run_mutex);
  if (!run_id.empty()) {
    impl->run_id = std::move(run_id);
  }
  impl->parent_id = std::move(parent_id);
}

std::vector<std::string> Logger::tail() const {
  Impl* impl = impl_.load(std::memory_order_acquire);
  std::vector<std::string> out;
  if (impl == nullptr) {
    return out;
  }
  std::lock_guard<std::mutex> tail_lock(impl->tail_mutex);
  const std::size_t size = impl->tail_ring.size();
  out.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(impl->tail_ring[(impl->tail_head + i) % size]);
  }
  return out;
}

}  // namespace adsd
