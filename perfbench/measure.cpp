#include "measure.hpp"

#include <algorithm>
#include <ctime>
#include <sstream>

#include "support/json.hpp"

namespace perfbench {

std::size_t SpanLog::thread_index_locked() {
  const std::thread::id self = std::this_thread::get_id();
  const auto it = std::find(threads_.begin(), threads_.end(), self);
  if (it != threads_.end()) {
    return static_cast<std::size_t>(it - threads_.begin());
  }
  threads_.push_back(self);
  return threads_.size() - 1;
}

std::size_t SpanLog::open(std::string name) {
  const double start = now();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::move(name);
  span.start_s = start;
  span.end_s = start;
  span.parent = current_;
  span.thread = thread_index_locked();
  spans_.push_back(std::move(span));
  current_ = spans_.size() - 1;
  return current_;
}

void SpanLog::close(std::size_t index) {
  const double end = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].end_s = end;
  if (index == current_) {
    current_ = spans_[index].parent;
  }
}

std::size_t SpanLog::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  span.parent = current_;
  span.thread = thread_index_locked();
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanLog::write_json(std::ostream& out) const {
  const std::vector<Span> all = spans();
  std::ostringstream buf;
  buf.precision(9);
  buf << "{\"spans\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::string name = adsd::json::dump(adsd::json::Value::make_string(s.name));
    name.pop_back();  // dump() ends the document with a newline
    buf << (i == 0 ? "\n" : ",\n") << "{\"name\": " << name
        << ", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
        << ", \"parent\": "
        << (s.parent == kNoParent ? std::string("null")
                                  : std::to_string(s.parent))
        << ", \"thread\": " << s.thread;
    if (s.members > 0) {
      buf << ", \"members\": " << s.members
          << ", \"iterations\": " << s.iterations
          << ", \"early_stops\": " << s.early_stops;
    }
    buf << "}";
  }
  buf << "\n]}\n";
  out << buf.str();
}

adsd::ColumnSetting TimedSolver::do_solve(const adsd::ColumnCop& cop,
                                          const adsd::RunContext& ctx,
                                          std::uint64_t seed,
                                          adsd::CoreSolveStats* stats) const {
  adsd::CoreSolveStats local;
  adsd::CoreSolveStats* out = stats != nullptr ? stats : &local;
  Span span;
  span.name = "solve";
  span.start_s = log_.now();
  adsd::ColumnSetting setting = inner_.solve(cop, ctx, seed, out);
  span.end_s = log_.now();
  span.members = 1;
  span.iterations = out->iterations;
  span.early_stops = out->stopped_early ? 1 : 0;
  log_.record(std::move(span));
  return setting;
}

void TimedSolver::do_solve_batch(std::span<const adsd::ColumnCop> cops,
                                 const adsd::RunContext& ctx,
                                 std::span<const std::uint64_t> seeds,
                                 std::span<adsd::ColumnSetting> out,
                                 std::span<adsd::CoreSolveStats> stats) const {
  std::vector<adsd::CoreSolveStats> inner_stats;
  Span span;
  span.name = "solve_batch";
  span.start_s = log_.now();
  std::vector<adsd::ColumnSetting> settings =
      inner_.solve_batch(cops, ctx, seeds, &inner_stats);
  span.end_s = log_.now();
  span.members = cops.size();
  for (std::size_t i = 0; i < cops.size(); ++i) {
    out[i] = std::move(settings[i]);
    stats[i] = inner_stats[i];
    span.iterations += inner_stats[i].iterations;
    span.early_stops += inner_stats[i].stopped_early ? 1 : 0;
  }
  log_.record(std::move(span));
}

double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  bool open = false;
  double lo = 0.0;
  double hi = 0.0;
  for (const auto& [start, end] : intervals) {
    if (!(end > start)) {
      continue;
    }
    if (open && start <= hi) {
      hi = std::max(hi, end);
      continue;
    }
    if (open) {
      total += hi - lo;
    }
    lo = start;
    hi = end;
    open = true;
  }
  if (open) {
    total += hi - lo;
  }
  return total;
}

Tail tail_percentile(std::vector<double> samples, std::size_t min_beyond) {
  Tail tail;
  if (samples.empty()) {
    return tail;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n <= min_beyond) {
    tail.value = samples.back();
    tail.percentile = 100.0;
    tail.beyond = 0;
    return tail;
  }
  const std::size_t rank = n - min_beyond;  // 1-based
  tail.value = samples[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.beyond = min_beyond;
  return tail;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string result_difference(const adsd::DaltaResult& a,
                              const adsd::DaltaResult& b) {
  if (a.approx != b.approx) {
    return "approximations differ";
  }
  if (a.med != b.med || a.error_rate != b.error_rate) {
    std::ostringstream msg;
    msg.precision(17);
    msg << "MED/error rate differ (" << a.med << " vs " << b.med << ")";
    return msg.str();
  }
  if (a.outputs.size() != b.outputs.size()) {
    return "output counts differ";
  }
  for (std::size_t k = 0; k < a.outputs.size(); ++k) {
    const adsd::OutputDecomposition& x = a.outputs[k];
    const adsd::OutputDecomposition& y = b.outputs[k];
    if (!(x.partition == y.partition) || !(x.setting.v1 == y.setting.v1) ||
        !(x.setting.v2 == y.setting.v2) || !(x.setting.t == y.setting.t) ||
        x.objective != y.objective) {
      return "output " + std::to_string(k) + " decomposition differs";
    }
  }
  if (a.cop_solves != b.cop_solves ||
      a.solver_iterations != b.solver_iterations ||
      a.early_stops != b.early_stops) {
    return "solve counters differ";
  }
  return "";
}

}  // namespace perfbench
