#include "support/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "support/json.hpp"
#include "support/log.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ADSD_METRICS_POSIX 1
#include <csignal>
#include <fcntl.h>
#include <unistd.h>
#endif

namespace adsd {

namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) {
    return false;
  }
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    if (!(alpha || (i > 0 && c >= '0' && c <= '9'))) {
      return false;
    }
  }
  return true;
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Shorter form for bucket bounds: the boundaries are exact small binary
/// fractions, so %.9g round-trips them while staying readable.
std::string format_bound(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

const char* kind_name(MetricsRegistry::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Kind::kCounter:
      return "counter";
    case MetricsRegistry::Kind::kGauge:
      return "gauge";
    case MetricsRegistry::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

/// Relaxed CAS fold of a double stored as uint64 bits. `fold` must be
/// idempotent under retries (min/max/add all are, given the reload).
template <typename Fold>
void fold_double_bits(std::atomic<std::uint64_t>& bits, double v, Fold fold) {
  std::uint64_t expected = bits.load(std::memory_order_relaxed);
  for (;;) {
    const double current = std::bit_cast<double>(expected);
    const double next = fold(current, v);
    if (next == current &&
        std::bit_cast<std::uint64_t>(next) == expected) {
      return;
    }
    if (bits.compare_exchange_weak(expected,
                                   std::bit_cast<std::uint64_t>(next),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Gauge

void MetricsRegistry::Gauge::add(double delta) {
  fold_double_bits(bits_, delta,
                   [](double current, double d) { return current + d; });
}

// ---------------------------------------------------------------------------
// Histogram

MetricsRegistry::Histogram::Histogram() = default;

double MetricsRegistry::Histogram::min_value() {
  return std::ldexp(1.0, kMinExponent);
}

double MetricsRegistry::Histogram::max_value() {
  return std::ldexp(1.0, kMaxExponent);
}

std::ptrdiff_t MetricsRegistry::Histogram::bucket_index(double v) {
  // NaN and anything below the lowest bound (including all negatives and
  // zero) fall into the underflow bucket; the comparison is written so NaN
  // fails it.
  if (!(v >= min_value())) {
    return -1;
  }
  if (v >= max_value()) {
    return static_cast<std::ptrdiff_t>(kNumBuckets);
  }
  int exp = 0;
  const double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac in [.5,1)
  const int octave = exp - 1 - kMinExponent;
  // Linear sub-bucket inside the octave: (2*frac - 1) in [0, 1) scaled by
  // kSubBuckets is exact at every bucket boundary (binary fractions).
  auto sub = static_cast<std::size_t>((2.0 * frac - 1.0) *
                                      static_cast<double>(kSubBuckets));
  if (sub >= static_cast<std::size_t>(kSubBuckets)) {
    sub = kSubBuckets - 1;
  }
  return static_cast<std::ptrdiff_t>(octave) * kSubBuckets +
         static_cast<std::ptrdiff_t>(sub);
}

double MetricsRegistry::Histogram::bucket_lower(std::size_t index) {
  const std::size_t octave = index / kSubBuckets;
  const std::size_t sub = index % kSubBuckets;
  return std::ldexp(
      1.0 + static_cast<double>(sub) / static_cast<double>(kSubBuckets),
      kMinExponent + static_cast<int>(octave));
}

double MetricsRegistry::Histogram::bucket_upper(std::size_t index) {
  return index + 1 >= kNumBuckets ? max_value() : bucket_lower(index + 1);
}

void MetricsRegistry::Histogram::record(double v) {
  const std::ptrdiff_t index = bucket_index(v);
  if (index < 0) {
    underflow_.fetch_add(1, std::memory_order_relaxed);
  } else if (index >= static_cast<std::ptrdiff_t>(kNumBuckets)) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
  } else {
    buckets_[static_cast<std::size_t>(index)].fetch_add(
        1, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  if (!std::isnan(v)) {
    fold_double_bits(sum_bits_, v,
                     [](double current, double x) { return current + x; });
    fold_double_bits(min_bits_, v, [](double current, double x) {
      return x < current ? x : current;
    });
    fold_double_bits(max_bits_, v, [](double current, double x) {
      return x > current ? x : current;
    });
  }
}

void MetricsRegistry::Histogram::record(double v,
                                        std::string_view exemplar_run_id) {
  record(v);
  if (exemplar_run_id.empty()) {
    return;
  }
  while (exemplar_lock_.test_and_set(std::memory_order_acquire)) {
  }
  has_exemplar_ = true;
  exemplar_value_ = v;
  exemplar_run_id_ = exemplar_run_id;
  exemplar_lock_.clear(std::memory_order_release);
}

bool MetricsRegistry::Histogram::exemplar(double* value,
                                         std::string* run_id) const {
  while (exemplar_lock_.test_and_set(std::memory_order_acquire)) {
  }
  const bool has = has_exemplar_;
  if (has) {
    *value = exemplar_value_;
    *run_id = exemplar_run_id_;
  }
  exemplar_lock_.clear(std::memory_order_release);
  return has;
}

HistogramData MetricsRegistry::Histogram::snapshot() const {
  HistogramData data;
  data.count = count_.load(std::memory_order_relaxed);
  data.sum = std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  data.min = std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
  data.max = std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
  data.underflow = underflow_.load(std::memory_order_relaxed);
  data.overflow = overflow_.load(std::memory_order_relaxed);
  data.buckets.resize(kNumBuckets);
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    data.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return data;
}

void HistogramData::merge(const HistogramData& other) {
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  underflow += other.underflow;
  overflow += other.overflow;
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

double HistogramData::quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  const double clamped_q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(clamped_q * static_cast<double>(count))));
  std::uint64_t cumulative = underflow;
  if (cumulative >= rank) {
    // Everything this far lies below the first bucket; the tracked min is
    // the tightest statement available.
    return min;
  }
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      const double upper = MetricsRegistry::Histogram::bucket_upper(i);
      return std::clamp(upper, min, max);
    }
  }
  return max;  // rank lives in the overflow bucket
}

// ---------------------------------------------------------------------------
// Registry

MetricsRegistry::~MetricsRegistry() {
  for (auto& slot : slots_) {
    delete slot.load(std::memory_order_acquire);
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::atomic<MetricsRegistry*>& MetricsRegistry::armed_ptr() {
  static std::atomic<MetricsRegistry*> armed{nullptr};
  return armed;
}

namespace {
std::atomic<int> g_arm_count{0};
}  // namespace

void MetricsRegistry::arm() {
  if (g_arm_count.fetch_add(1, std::memory_order_acq_rel) == 0) {
    armed_ptr().store(&global(), std::memory_order_release);
  }
}

void MetricsRegistry::disarm() {
  if (g_arm_count.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    armed_ptr().store(nullptr, std::memory_order_release);
  }
}

MetricsRegistry::Metric* MetricsRegistry::resolve(
    Kind kind, std::string_view name,
    std::initializer_list<MetricLabel> labels) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("metrics: invalid metric name '" +
                                std::string(name) + "'");
  }
  std::vector<std::pair<std::string, std::string>> sorted_labels;
  sorted_labels.reserve(labels.size());
  for (const MetricLabel& label : labels) {
    if (!valid_metric_name(label.key)) {
      throw std::invalid_argument("metrics: invalid label name '" +
                                  std::string(label.key) + "' on '" +
                                  std::string(name) + "'");
    }
    sorted_labels.emplace_back(std::string(label.key),
                               std::string(label.value));
  }
  std::sort(sorted_labels.begin(), sorted_labels.end());

  // Canonical series key: name{k="v",...} with sorted, escaped labels —
  // exactly the Prometheus series identity, so exposition needs no
  // re-canonicalization.
  std::string key(name);
  if (!sorted_labels.empty()) {
    key += '{';
    for (std::size_t i = 0; i < sorted_labels.size(); ++i) {
      if (i > 0) {
        key += ',';
      }
      key += sorted_labels[i].first;
      key += "=\"";
      key += escape_label_value(sorted_labels[i].second);
      key += '"';
    }
    key += '}';
  }

  const std::size_t start = fnv1a(key) % kSlots;
  for (std::size_t probe = 0; probe < kSlots; ++probe) {
    auto& slot = slots_[(start + probe) % kSlots];
    Metric* existing = slot.load(std::memory_order_acquire);
    if (existing == nullptr) {
      auto fresh = std::make_unique<Metric>();
      fresh->key = std::move(key);
      fresh->name = std::string(name);
      fresh->labels = std::move(sorted_labels);
      fresh->kind = kind;
      if (kind == Kind::kHistogram) {
        fresh->histogram = std::make_unique<Histogram>();
      }
      Metric* expected = nullptr;
      if (slot.compare_exchange_strong(expected, fresh.get(),
                                       std::memory_order_acq_rel)) {
        return fresh.release();
      }
      // Lost the claim race; re-examine whoever won, restoring the key the
      // loser moved into its candidate.
      key = std::move(fresh->key);
      sorted_labels = std::move(fresh->labels);
      existing = expected;
    }
    if (existing->key == key) {
      if (existing->kind != kind) {
        throw std::logic_error("metrics: series '" + key +
                               "' already registered as " +
                               kind_name(existing->kind) + ", requested " +
                               kind_name(kind));
      }
      return existing;
    }
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

MetricsRegistry::Counter& MetricsRegistry::counter(
    std::string_view name, std::initializer_list<MetricLabel> labels) {
  static Counter sink;
  Metric* m = resolve(Kind::kCounter, name, labels);
  return m != nullptr ? m->counter : sink;
}

MetricsRegistry::Gauge& MetricsRegistry::gauge(
    std::string_view name, std::initializer_list<MetricLabel> labels) {
  static Gauge sink;
  Metric* m = resolve(Kind::kGauge, name, labels);
  return m != nullptr ? m->gauge : sink;
}

MetricsRegistry::Histogram& MetricsRegistry::histogram(
    std::string_view name, std::initializer_list<MetricLabel> labels) {
  static Histogram sink;
  Metric* m = resolve(Kind::kHistogram, name, labels);
  return m != nullptr && m->histogram != nullptr ? *m->histogram : sink;
}

std::size_t MetricsRegistry::size() const {
  std::size_t n = 0;
  for (const auto& slot : slots_) {
    n += slot.load(std::memory_order_acquire) != nullptr;
  }
  return n;
}

std::vector<const MetricsRegistry::Metric*> MetricsRegistry::sorted_metrics()
    const {
  std::vector<const Metric*> out;
  for (const auto& slot : slots_) {
    if (const Metric* m = slot.load(std::memory_order_acquire)) {
      out.push_back(m);
    }
  }
  std::sort(out.begin(), out.end(), [](const Metric* a, const Metric* b) {
    return a->key < b->key;
  });
  return out;
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  const std::vector<const Metric*> metrics = sorted_metrics();
  // sorted_metrics() orders by key, which groups a family's series
  // contiguously (the key starts with the name); one TYPE line per family.
  std::string last_family;
  auto emit_type = [&](const std::string& family, Kind kind) {
    if (family != last_family) {
      out << "# TYPE adsd_" << family << ' ' << kind_name(kind) << '\n';
      last_family = family;
    }
  };
  auto labels_text = [](const Metric& m, const std::string& extra_key = "",
                        const std::string& extra_value = "") {
    std::string text;
    for (const auto& [k, v] : m.labels) {
      text += text.empty() ? "" : ",";
      text += k + "=\"" + escape_label_value(v) + '"';
    }
    if (!extra_key.empty()) {
      text += text.empty() ? "" : ",";
      text += extra_key + "=\"" + extra_value + '"';
    }
    return text.empty() ? std::string() : '{' + text + '}';
  };

  for (const Metric* m : metrics) {
    switch (m->kind) {
      case Kind::kCounter:
        emit_type(m->name, m->kind);
        out << "adsd_" << m->name << labels_text(*m) << ' '
            << m->counter.value() << '\n';
        break;
      case Kind::kGauge:
        emit_type(m->name, m->kind);
        out << "adsd_" << m->name << labels_text(*m) << ' '
            << format_double(m->gauge.value()) << '\n';
        break;
      case Kind::kHistogram: {
        emit_type(m->name, m->kind);
        const HistogramData data = m->histogram->snapshot();
        std::uint64_t cumulative = data.underflow;
        if (cumulative > 0) {
          // Underflow values all lie below the first bound, so the first
          // cumulative point at le=min_value() absorbs them exactly.
          out << "adsd_" << m->name << "_bucket"
              << labels_text(*m, "le",
                             format_bound(Histogram::min_value()))
              << ' ' << cumulative << '\n';
        }
        for (std::size_t i = 0; i < data.buckets.size(); ++i) {
          if (data.buckets[i] == 0) {
            continue;  // cumulative points at non-empty buckets only
          }
          cumulative += data.buckets[i];
          out << "adsd_" << m->name << "_bucket"
              << labels_text(*m, "le",
                             format_bound(Histogram::bucket_upper(i)))
              << ' ' << cumulative << '\n';
        }
        out << "adsd_" << m->name << "_bucket"
            << labels_text(*m, "le", "+Inf") << ' ' << data.count << '\n';
        out << "adsd_" << m->name << "_sum" << labels_text(*m) << ' '
            << format_double(data.sum) << '\n';
        out << "adsd_" << m->name << "_count" << labels_text(*m) << ' '
            << data.count << '\n';
        // Exemplar as a comment line so the text stays valid v0.0.4 (the
        // OpenMetrics " # {...}" suffix would break v0.0.4 parsers); joins
        // the series to the run_id of its latest observation.
        double exemplar_value = 0.0;
        std::string exemplar_run_id;
        if (m->histogram->exemplar(&exemplar_value, &exemplar_run_id)) {
          out << "# EXEMPLAR adsd_" << m->name << labels_text(*m)
              << " run_id=\"" << escape_label_value(exemplar_run_id)
              << "\" value=" << format_double(exemplar_value) << '\n';
        }
        break;
      }
    }
  }
  out << "# TYPE adsd_metrics_dropped_total counter\n"
      << "adsd_metrics_dropped_total " << dropped() << '\n';
}

void MetricsRegistry::write_json(std::ostream& out) const {
  using json::Value;
  std::vector<Value> series;
  for (const Metric* m : sorted_metrics()) {
    std::map<std::string, Value> rec;
    rec.emplace("name", Value::make_string(m->name));
    rec.emplace("kind", Value::make_string(kind_name(m->kind)));
    std::map<std::string, Value> labels;
    for (const auto& [k, v] : m->labels) {
      labels.emplace(k, Value::make_string(v));
    }
    rec.emplace("labels", Value::make_object(std::move(labels)));
    switch (m->kind) {
      case Kind::kCounter:
        rec.emplace("value", Value::make_number(
                                 static_cast<double>(m->counter.value())));
        break;
      case Kind::kGauge:
        rec.emplace("value", Value::make_number(m->gauge.value()));
        break;
      case Kind::kHistogram: {
        const HistogramData data = m->histogram->snapshot();
        rec.emplace("count", Value::make_number(
                                 static_cast<double>(data.count)));
        rec.emplace("sum", Value::make_number(data.sum));
        rec.emplace("min",
                    Value::make_number(data.count > 0 ? data.min : 0.0));
        rec.emplace("max",
                    Value::make_number(data.count > 0 ? data.max : 0.0));
        rec.emplace("underflow", Value::make_number(
                                     static_cast<double>(data.underflow)));
        rec.emplace("overflow", Value::make_number(
                                    static_cast<double>(data.overflow)));
        rec.emplace("p50", Value::make_number(data.quantile(0.50)));
        rec.emplace("p95", Value::make_number(data.quantile(0.95)));
        rec.emplace("p99", Value::make_number(data.quantile(0.99)));
        std::vector<Value> buckets;
        for (std::size_t i = 0; i < data.buckets.size(); ++i) {
          if (data.buckets[i] == 0) {
            continue;
          }
          std::vector<Value> triple;
          triple.push_back(
              Value::make_number(Histogram::bucket_lower(i)));
          triple.push_back(
              Value::make_number(Histogram::bucket_upper(i)));
          triple.push_back(Value::make_number(
              static_cast<double>(data.buckets[i])));
          buckets.push_back(Value::make_array(std::move(triple)));
        }
        rec.emplace("buckets", Value::make_array(std::move(buckets)));
        double exemplar_value = 0.0;
        std::string exemplar_run_id;
        if (m->histogram->exemplar(&exemplar_value, &exemplar_run_id)) {
          std::map<std::string, Value> exemplar;
          exemplar.emplace("run_id", Value::make_string(exemplar_run_id));
          exemplar.emplace("value", Value::make_number(exemplar_value));
          rec.emplace("exemplar", Value::make_object(std::move(exemplar)));
        }
        break;
      }
    }
    series.push_back(Value::make_object(std::move(rec)));
  }
  std::map<std::string, Value> root;
  root.emplace("schema", Value::make_string("adsd-metrics-v1"));
  root.emplace("dropped",
               Value::make_number(static_cast<double>(dropped())));
  root.emplace("metrics", Value::make_array(std::move(series)));
  json::write(out, Value::make_object(std::move(root)));
  out << '\n';
}

// ---------------------------------------------------------------------------
// FlightRecorder

namespace {

#if ADSD_METRICS_POSIX
// Pre-serialized postmortem for the fatal-signal path: the handler may only
// open()/write() bytes that already exist. The length is zeroed before the
// buffer copy and republished after, so a crash landing inside the refresh
// window makes the handler skip the dump rather than write a torn document.
constexpr std::size_t kSignalBufferSize = 1 << 16;
char g_signal_buffer[kSignalBufferSize];
std::atomic<std::size_t> g_signal_length{0};
char g_signal_path[512] = {0};
std::atomic<bool> g_handlers_installed{false};

void fatal_signal_handler(int sig) {
  const std::size_t length =
      g_signal_length.load(std::memory_order_acquire);
  if (length > 0 && g_signal_path[0] != '\0') {
    const int fd =
        ::open(g_signal_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      std::size_t written = 0;
      while (written < length) {
        const ssize_t n =
            ::write(fd, g_signal_buffer + written, length - written);
        if (n <= 0) {
          break;
        }
        written += static_cast<std::size_t>(n);
      }
      ::close(fd);
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void install_fatal_handlers() {
  bool expected = false;
  if (!g_handlers_installed.compare_exchange_strong(expected, true)) {
    return;
  }
  struct sigaction action {};
  action.sa_handler = fatal_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESETHAND;
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    sigaction(sig, &action, nullptr);
  }
}
#endif  // ADSD_METRICS_POSIX

json::Value record_to_value(const FlightRecorder::SolveRecord& rec) {
  using json::Value;
  std::map<std::string, Value> obj;
  obj.emplace("seq", Value::make_number(static_cast<double>(rec.seq)));
  obj.emplace("spec", Value::make_string(rec.spec));
  obj.emplace("engine", Value::make_string(rec.engine));
  obj.emplace("stop_reason", Value::make_string(rec.stop_reason));
  if (!rec.run_id.empty()) {
    obj.emplace("run_id", Value::make_string(rec.run_id));
  }
  obj.emplace("n", Value::make_number(static_cast<double>(rec.n)));
  obj.emplace("rounds",
              Value::make_number(static_cast<double>(rec.rounds)));
  obj.emplace("final_energy", Value::make_number(rec.final_energy));
  obj.emplace("med", Value::make_number(rec.med));
  obj.emplace("duration_s", Value::make_number(rec.duration_s));
  return Value::make_object(std::move(obj));
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::record(SolveRecord rec) {
  const bool deadline = rec.stop_reason == "deadline";
  bool deadline_dump = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rec.seq = total_++;
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(rec));
    } else {
      ring_[head_] = std::move(rec);
      head_ = (head_ + 1) % capacity_;
    }
    if (armed_.load(std::memory_order_relaxed)) {
      refresh_signal_buffer_locked();
      deadline_dump = deadline;
    }
  }
  if (deadline_dump) {
    dump_postmortem("deadline_overrun");
  }
}

std::vector<FlightRecorder::SolveRecord> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SolveRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

void FlightRecorder::arm_postmortem(std::string path,
                                    bool install_handlers) {
  std::lock_guard<std::mutex> lock(mutex_);
  postmortem_path_ = std::move(path);
  armed_.store(true, std::memory_order_relaxed);
#if ADSD_METRICS_POSIX
  if (install_handlers) {
    signal_buffer_ = true;
    std::snprintf(g_signal_path, sizeof(g_signal_path), "%s",
                  postmortem_path_.c_str());
    install_fatal_handlers();
    refresh_signal_buffer_locked();
  }
#else
  (void)install_handlers;
#endif
}

std::string FlightRecorder::to_json_locked(std::string_view reason) const {
  using json::Value;
  std::vector<Value> solves;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    solves.push_back(record_to_value(ring_[(head_ + i) % ring_.size()]));
  }
  std::map<std::string, Value> root;
  root.emplace("schema", Value::make_string("adsd-flight-v1"));
  root.emplace("reason", Value::make_string(std::string(reason)));
  root.emplace("total_recorded",
               Value::make_number(static_cast<double>(total_)));
  root.emplace("solves", Value::make_array(std::move(solves)));
  // The logger's last-N records: each tail line is a complete adsd-log-v1
  // object the logger serialized, re-parsed here so the postmortem embeds
  // them as objects, not strings. The tail outlives the last disarm, so a
  // dump written after the run's context unwound (the CLI's exception
  // path) still carries it. Lock order is flight mutex_ -> logger mutex;
  // no logger path takes mutex_.
  std::vector<Value> tail;
  for (const std::string& line : Logger::global().tail()) {
    try {
      tail.push_back(json::parse(line));
    } catch (const std::exception&) {
      // A malformed line would mean a logger bug; drop it rather than
      // losing the whole postmortem.
    }
  }
  if (!tail.empty()) {
    root.emplace("log_tail", Value::make_array(std::move(tail)));
  }
  std::ostringstream out;
  json::write(out, Value::make_object(std::move(root)));
  out << '\n';
  return out.str();
}

void FlightRecorder::refresh_signal_buffer_locked() const {
#if ADSD_METRICS_POSIX
  if (!signal_buffer_) {
    return;
  }
  const std::string text = to_json_locked("fatal_signal");
  if (text.size() > kSignalBufferSize) {
    return;  // keep the previous (smaller) consistent snapshot
  }
  g_signal_length.store(0, std::memory_order_release);
  std::memcpy(g_signal_buffer, text.data(), text.size());
  g_signal_length.store(text.size(), std::memory_order_release);
#endif
}

void FlightRecorder::write_json(std::ostream& out,
                                std::string_view reason) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out << to_json_locked(reason);
}

bool FlightRecorder::dump_postmortem(std::string_view reason) const {
  std::string path;
  std::string text;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!armed_.load(std::memory_order_relaxed) ||
        postmortem_path_.empty()) {
      return false;
    }
    path = postmortem_path_;
    text = to_json_locked(reason);
  }
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  f << text;
  return static_cast<bool>(f);
}

}  // namespace adsd
