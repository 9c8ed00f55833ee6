#include "support/qor.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "support/json.hpp"
#include "support/metrics.hpp"

namespace adsd {
namespace {

json::Value num(double v) { return json::Value::make_number(v); }
json::Value num(std::uint64_t v) {
  return json::Value::make_number(static_cast<double>(v));
}
json::Value str(std::string s) {
  return json::Value::make_string(std::move(s));
}

}  // namespace

QorRecorder::QorRecorder(std::size_t curve_capacity)
    : curve_capacity_(curve_capacity) {}

void QorRecorder::add(std::string_view name, double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void QorRecorder::sample(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = samples_.find(name);
  if (it == samples_.end()) {
    it = samples_.emplace(std::string(name), Dist{}).first;
  }
  Dist& d = it->second;
  if (d.count == 0 || value < d.min) {
    d.min = value;
  }
  if (d.count == 0 || value > d.max) {
    d.max = value;
  }
  d.sum.add(value);
  ++d.count;
}

void QorRecorder::record_output(OutputRecord rec) {
  std::lock_guard<std::mutex> lock(mutex_);
  decisions_.push_back(std::move(rec));
}

std::uint64_t QorRecorder::begin_curve(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  curves_.push_back(Curve{std::string(name), {}});
  return static_cast<std::uint64_t>(curves_.size() - 1);
}

void QorRecorder::curve_point(std::uint64_t id, std::uint64_t iteration,
                              double best_energy) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= curves_.size()) {
    return;
  }
  if (curve_points_ >= curve_capacity_) {
    ++dropped_;
    if (MetricsRegistry* m = MetricsRegistry::armed()) {
      m->counter("qor_dropped_total").add(1);
    }
    return;
  }
  curves_[id].points.emplace_back(iteration, best_energy);
  ++curve_points_;
}

void QorRecorder::record_final(Final fin) {
  std::lock_guard<std::mutex> lock(mutex_);
  finals_.push_back(std::move(fin));
}

std::uint64_t QorRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool QorRecorder::has_final() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !finals_.empty();
}

QorRecorder::Final QorRecorder::final_summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finals_.empty()) {
    throw std::runtime_error("QorRecorder: no final summary recorded");
  }
  return finals_.back();
}

double QorRecorder::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::size_t QorRecorder::curve_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return curves_.size();
}

std::size_t QorRecorder::decision_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return decisions_.size();
}

void QorRecorder::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);

  std::map<std::string, json::Value> root;
  root.emplace("schema", str("adsd-qor-v1"));
  if (!run_id_.empty()) {
    root.emplace("run_id", str(run_id_));
  }
  if (!parent_id_.empty()) {
    root.emplace("parent_id", str(parent_id_));
  }

  std::map<std::string, json::Value> counters;
  for (const auto& [name, value] : counters_) {
    counters.emplace(name, num(value));
  }
  root.emplace("counters", json::Value::make_object(std::move(counters)));

  std::map<std::string, json::Value> samples;
  for (const auto& [name, d] : samples_) {
    std::map<std::string, json::Value> obj;
    obj.emplace("count", num(d.count));
    obj.emplace("min", num(d.min));
    obj.emplace("max", num(d.max));
    const double sum = d.sum.value();
    obj.emplace("sum", num(sum));
    obj.emplace("mean", num(d.count > 0
                                ? sum / static_cast<double>(d.count)
                                : 0.0));
    samples.emplace(name, json::Value::make_object(std::move(obj)));
  }
  root.emplace("samples", json::Value::make_object(std::move(samples)));

  std::vector<json::Value> decisions;
  decisions.reserve(decisions_.size());
  for (const OutputRecord& rec : decisions_) {
    std::map<std::string, json::Value> obj;
    obj.emplace("stage", str(rec.stage));
    obj.emplace("round", num(rec.round));
    obj.emplace("output", num(rec.output));
    obj.emplace("tried", num(rec.tried));
    obj.emplace("best_objective", num(rec.best_objective));
    obj.emplace("worst_objective", num(rec.worst_objective));
    obj.emplace("error_rate", num(rec.error_rate));
    decisions.push_back(json::Value::make_object(std::move(obj)));
  }
  root.emplace("decisions", json::Value::make_array(std::move(decisions)));

  std::vector<json::Value> curves;
  curves.reserve(curves_.size());
  for (const Curve& curve : curves_) {
    std::map<std::string, json::Value> obj;
    obj.emplace("name", str(curve.name));
    std::vector<json::Value> iters;
    std::vector<json::Value> energies;
    iters.reserve(curve.points.size());
    energies.reserve(curve.points.size());
    for (const auto& [iteration, energy] : curve.points) {
      iters.push_back(num(iteration));
      energies.push_back(num(energy));
    }
    obj.emplace("iterations", json::Value::make_array(std::move(iters)));
    obj.emplace("best_energy", json::Value::make_array(std::move(energies)));
    curves.push_back(json::Value::make_object(std::move(obj)));
  }
  root.emplace("curves", json::Value::make_array(std::move(curves)));

  std::vector<json::Value> finals;
  finals.reserve(finals_.size());
  for (const Final& fin : finals_) {
    std::map<std::string, json::Value> obj;
    obj.emplace("stage", str(fin.stage));
    obj.emplace("med", num(fin.med));
    obj.emplace("error_rate", num(fin.error_rate));
    obj.emplace("lut_bits", num(fin.lut_bits));
    obj.emplace("flat_bits", num(fin.flat_bits));
    std::vector<json::Value> outputs;
    outputs.reserve(fin.outputs.size());
    for (const FinalOutput& o : fin.outputs) {
      std::map<std::string, json::Value> oobj;
      oobj.emplace("error_rate", num(o.error_rate));
      oobj.emplace("lut_bits", num(o.lut_bits));
      oobj.emplace("flat_bits", num(o.flat_bits));
      outputs.push_back(json::Value::make_object(std::move(oobj)));
    }
    obj.emplace("outputs", json::Value::make_array(std::move(outputs)));
    finals.push_back(json::Value::make_object(std::move(obj)));
  }
  root.emplace("finals", json::Value::make_array(std::move(finals)));

  root.emplace("dropped", num(dropped_));

  json::write(out, json::Value::make_object(std::move(root)));
  out << '\n';
}

std::string QorRecorder::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

}  // namespace adsd
