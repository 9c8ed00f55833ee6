#include "support/trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "support/json.hpp"
#include "support/metrics.hpp"

namespace adsd {

namespace {

struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
  std::size_t operator()(const std::string& s) const {
    return std::hash<std::string_view>{}(s);
  }
};

// One rejected event: the recorder's own count, reported in both exports,
// and the process-wide trace_dropped_total while metrics are armed.
void count_drop(std::atomic<std::uint64_t>& dropped) {
  dropped.fetch_add(1, std::memory_order_relaxed);
  if (MetricsRegistry* m = MetricsRegistry::armed()) {
    m->counter("trace_dropped_total").add(1);
  }
}

double to_seconds(std::uint64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

std::atomic<std::uint64_t> next_recorder_id{1};

}  // namespace

struct TraceRecorder::ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<Event> events;
  std::vector<std::string> names;
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      name_ids;
  // Open begin events whose matching end slot is reserved; begin() refuses
  // new spans unless both the begin and its end fit, so a saturated buffer
  // drops whole spans and the exported trace always balances.
  std::size_t reserved_ends = 0;

  std::uint32_t intern(std::string_view name) {
    const auto it = name_ids.find(name);
    if (it != name_ids.end()) {
      return it->second;
    }
    const auto id = static_cast<std::uint32_t>(names.size());
    names.emplace_back(name);
    name_ids.emplace(names.back(), id);
    return id;
  }
};

TraceRecorder::TraceRecorder(std::size_t capacity_per_thread)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(std::max<std::size_t>(capacity_per_thread, 8)),
      id_(next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
  // Thread-local cache of (recorder id -> buffer). Ids are process-unique
  // and never reused, so entries for destroyed recorders can linger without
  // ever resolving; a linear scan wins for the 1-2 live recorders a thread
  // typically touches.
  struct CacheEntry {
    std::uint64_t recorder_id;
    ThreadBuffer* buffer;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& e : cache) {
    if (e.recorder_id == id_) {
      return *e.buffer;
    }
  }
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto fresh = std::make_unique<ThreadBuffer>();
  fresh->tid = static_cast<std::uint32_t>(buffers_.size());
  ThreadBuffer* buffer = fresh.get();
  buffers_.push_back(std::move(fresh));
  cache.push_back(CacheEntry{id_, buffer});
  return *buffer;
}

TraceRecorder::SpanToken TraceRecorder::begin(std::string_view name) {
  ThreadBuffer& buf = local_buffer();
  if (buf.events.size() + buf.reserved_ends + 2 > capacity_) {
    count_drop(dropped_);
    return SpanToken{};
  }
  const std::uint32_t id = buf.intern(name);
  buf.events.push_back(Event{now_ns(), 0.0, id, EventType::kBegin});
  ++buf.reserved_ends;
  return SpanToken{&buf, id};
}

void TraceRecorder::end(SpanToken token) {
  if (token.buffer == nullptr) {
    return;
  }
  auto& buf = *static_cast<ThreadBuffer*>(token.buffer);
  --buf.reserved_ends;
  buf.events.push_back(Event{now_ns(), 0.0, token.name, EventType::kEnd});
}

void TraceRecorder::instant(std::string_view name) {
  emit(EventType::kInstant, name, now_ns(), 0.0);
}

void TraceRecorder::counter(std::string_view name, double value) {
  emit(EventType::kCounter, name, now_ns(), value);
}

void TraceRecorder::emit(EventType type, std::string_view name,
                         std::uint64_t ts_ns, double value) {
  ThreadBuffer& buf = local_buffer();
  if (buf.events.size() + buf.reserved_ends + 1 > capacity_) {
    count_drop(dropped_);
    return;
  }
  buf.events.push_back(Event{ts_ns, value, buf.intern(name), type});
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::size_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->events.size();
  }
  return total;
}

std::size_t TraceRecorder::thread_count() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return buffers_.size();
}

void TraceRecorder::write_chrome_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  out.precision(9);
  out << "{\"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    out << (first ? "\n " : ",\n ");
    first = false;
  };
  for (const auto& buf : buffers_) {
    sep();
    out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << buf->tid
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \"thread-"
        << buf->tid << "\"}}";
  }
  for (const auto& buf : buffers_) {
    for (const Event& e : buf->events) {
      sep();
      const double ts_us = static_cast<double>(e.ts_ns) * 1e-3;
      out << "{\"ph\": \"";
      switch (e.type) {
        case EventType::kBegin:
          out << 'B';
          break;
        case EventType::kEnd:
          out << 'E';
          break;
        case EventType::kInstant:
          out << 'i';
          break;
        case EventType::kCounter:
          out << 'C';
          break;
      }
      out << "\", \"pid\": 1, \"tid\": " << buf->tid << ", \"ts\": " << ts_us
          << ", \"name\": ";
      json::write_json_string(out, buf->names[e.name]);
      if (e.type == EventType::kInstant) {
        out << ", \"s\": \"t\"";
      } else if (e.type == EventType::kCounter) {
        out << ", \"args\": {\"value\": " << e.value << "}";
      }
      out << "}";
    }
  }
  out << (first ? "]" : "\n]") << ",\n\"displayTimeUnit\": \"ms\",\n"
      << "\"otherData\": {";
  if (!run_id_.empty()) {
    out << "\"run_id\": ";
    json::write_json_string(out, run_id_);
    out << ", ";
  }
  if (!parent_id_.empty()) {
    out << "\"parent_id\": ";
    json::write_json_string(out, parent_id_);
    out << ", ";
  }
  out << "\"dropped\": " << dropped_.load(std::memory_order_relaxed)
      << "}}\n";
}

double TraceRecorder::quantile_sorted(
    const std::vector<double>& sorted_ascending, double q) {
  if (sorted_ascending.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(sorted_ascending.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted_ascending.size());
  return sorted_ascending[rank - 1];
}

void TraceRecorder::write_report_json(std::ostream& out) const {
  struct CounterStats {
    std::size_t samples = 0;
    double first = 0.0;
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
  };
  struct ThreadStats {
    std::uint32_t tid = 0;
    std::size_t events = 0;
    std::uint64_t busy_ns = 0;  // total duration of depth-0 spans
  };

  std::map<std::string, std::vector<double>> span_durations_s;
  std::map<std::string, CounterStats> counters;
  std::map<std::string, std::size_t> instants;
  std::vector<ThreadStats> threads;
  std::size_t total_events = 0;
  std::size_t unmatched_begins = 0;
  std::size_t unmatched_ends = 0;
  std::uint64_t min_ts = ~std::uint64_t{0};
  std::uint64_t max_ts = 0;

  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    struct Open {
      std::uint32_t name;
      std::uint64_t ts;
    };
    for (const auto& buf : buffers_) {
      ThreadStats ts;
      ts.tid = buf->tid;
      ts.events = buf->events.size();
      total_events += buf->events.size();
      std::vector<Open> stack;
      for (const Event& e : buf->events) {
        min_ts = std::min(min_ts, e.ts_ns);
        max_ts = std::max(max_ts, e.ts_ns);
        switch (e.type) {
          case EventType::kBegin:
            stack.push_back(Open{e.name, e.ts_ns});
            break;
          case EventType::kEnd: {
            if (stack.empty()) {
              ++unmatched_ends;
              break;
            }
            const Open open = stack.back();
            stack.pop_back();
            const std::uint64_t dur =
                e.ts_ns >= open.ts ? e.ts_ns - open.ts : 0;
            span_durations_s[buf->names[open.name]].push_back(
                to_seconds(dur));
            if (stack.empty()) {
              ts.busy_ns += dur;
            }
            break;
          }
          case EventType::kInstant:
            ++instants[buf->names[e.name]];
            break;
          case EventType::kCounter: {
            CounterStats& c = counters[buf->names[e.name]];
            if (c.samples == 0) {
              c.first = c.min = c.max = e.value;
            }
            c.last = e.value;
            c.min = std::min(c.min, e.value);
            c.max = std::max(c.max, e.value);
            c.sum += e.value;
            ++c.samples;
            break;
          }
        }
      }
      unmatched_begins += stack.size();
      threads.push_back(ts);
    }
  }

  const std::uint64_t span_ns = total_events > 0 ? max_ts - min_ts : 0;
  const double duration_s = to_seconds(span_ns);

  out.precision(9);
  out << "{\n\"meta\": {";
  if (!run_id_.empty()) {
    out << "\"run_id\": ";
    json::write_json_string(out, run_id_);
    out << ", ";
  }
  if (!parent_id_.empty()) {
    out << "\"parent_id\": ";
    json::write_json_string(out, parent_id_);
    out << ", ";
  }
  out << "\"threads\": " << threads.size()
      << ", \"events\": " << total_events
      << ", \"dropped\": " << dropped_.load(std::memory_order_relaxed)
      << ", \"duration_s\": " << duration_s
      << ", \"unmatched_begins\": " << unmatched_begins
      << ", \"unmatched_ends\": " << unmatched_ends << "},\n";

  out << "\"spans\": {";
  bool first = true;
  for (auto& [path, durations] : span_durations_s) {
    std::sort(durations.begin(), durations.end());
    double total = 0.0;
    for (const double d : durations) {
      total += d;
    }
    out << (first ? "\n " : ",\n ");
    first = false;
    json::write_json_string(out, path);
    out << ": {\"count\": " << durations.size() << ", \"total_s\": " << total
        << ", \"mean_s\": " << total / static_cast<double>(durations.size())
        << ", \"min_s\": " << durations.front()
        << ", \"max_s\": " << durations.back()
        << ", \"p50_s\": " << quantile_sorted(durations, 0.50)
        << ", \"p95_s\": " << quantile_sorted(durations, 0.95)
        << ", \"p99_s\": " << quantile_sorted(durations, 0.99) << "}";
  }
  out << (first ? "},\n" : "\n},\n");

  out << "\"counters\": {";
  first = true;
  for (const auto& [name, c] : counters) {
    out << (first ? "\n " : ",\n ");
    first = false;
    json::write_json_string(out, name);
    out << ": {\"samples\": " << c.samples << ", \"first\": " << c.first
        << ", \"last\": " << c.last << ", \"min\": " << c.min
        << ", \"max\": " << c.max
        << ", \"mean\": " << c.sum / static_cast<double>(c.samples) << "}";
  }
  out << (first ? "},\n" : "\n},\n");

  out << "\"instants\": {";
  first = true;
  for (const auto& [name, count] : instants) {
    out << (first ? "\n " : ",\n ");
    first = false;
    json::write_json_string(out, name);
    out << ": " << count;
  }
  out << (first ? "},\n" : "\n},\n");

  out << "\"threads\": [";
  first = true;
  for (const ThreadStats& t : threads) {
    out << (first ? "\n " : ",\n ");
    first = false;
    out << "{\"tid\": " << t.tid << ", \"events\": " << t.events
        << ", \"busy_s\": " << to_seconds(t.busy_ns) << ", \"utilization\": "
        << (span_ns > 0 ? to_seconds(t.busy_ns) / duration_s : 0.0) << "}";
  }
  out << (first ? "]" : "\n]") << "\n}\n";
}

std::string TraceRecorder::chrome_json() const {
  std::ostringstream out;
  write_chrome_json(out);
  return out.str();
}

std::string TraceRecorder::report_json() const {
  std::ostringstream out;
  write_report_json(out);
  return out.str();
}

}  // namespace adsd
