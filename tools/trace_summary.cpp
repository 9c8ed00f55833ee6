// trace_summary: reader and schema validator for the observability
// artifacts the solve stack emits (see DESIGN.md "Observability"):
//
//   trace_summary <file> [--check] [--expect-run-id <id>]
//
// The file kind is autodetected from its top-level keys:
//   - Chrome trace (adsd_cli --trace / bench --trace): "traceEvents".
//     Validates event fields and per-thread B/E balance and nesting, then
//     prints per-span totals and per-thread event counts.
//   - Run report (adsd_cli --report): "meta" + "spans". Validates the
//     schema (quantile fields present, counts consistent) and prints the
//     latency and counter tables.
//   - QoR record (adsd_cli --qor, schema "adsd-qor-v1"): validates the
//     counters/samples/decisions/curves/finals sections and prints the
//     final quality summary.
//
// --check suppresses the tables (validation only); --expect-run-id <id>
// additionally requires the artifact's provenance stamp to match (the CI
// obs-bundle join check). Exit status: 0 valid, 1 invalid or unreadable —
// CI uses this as the trace smoke check. Empty/whitespace-only files fail
// with a clear message (no parser throw); structurally valid artifacts
// with zero events/spans are reported and fail only under --check.

#include <cstdint>
#include <iostream>
#include <map>
#include <vector>

#include "support/json.hpp"
#include "support/table.hpp"
#include "summary_common.hpp"

namespace {

using adsd::Table;
using adsd::json::Value;
using adsd::tools::check_run_id;
using adsd::tools::invalid;
using adsd::tools::require;
using adsd::tools::SummaryOptions;

/// The run_id an artifact carries at `obj[key]`, or "" when absent.
std::string optional_run_id(const Value& obj, const char* key = "run_id") {
  const Value* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

struct SpanAgg {
  std::size_t count = 0;
  double total_us = 0.0;
};

int summarize_chrome_trace(const Value& doc, const SummaryOptions& opts) {
  const bool check_only = opts.check_only;
  if (const Value* other = doc.find("otherData");
      other != nullptr && other->is_object()) {
    check_run_id(opts, optional_run_id(*other), "otherData.run_id");
  } else {
    check_run_id(opts, "", "otherData.run_id");
  }
  const Value& events = doc.at("traceEvents");
  require(events.is_array(), "traceEvents must be an array");
  if (events.as_array().empty()) {
    // Structurally valid but useless — a recorder that dropped everything
    // or a run that never entered the solve stack. Informational on a
    // plain read; a failure for the CI smoke check.
    std::cout << "trace has zero events (nothing was recorded)\n";
    return check_only ? 1 : 0;
  }

  // Per-tid begin stacks (name sequence) for balance/nesting validation,
  // plus span aggregates keyed by name.
  std::map<double, std::vector<std::pair<std::string, double>>> stacks;
  std::map<double, std::size_t> events_per_tid;
  std::map<std::string, SpanAgg> spans;
  std::size_t counters = 0;
  std::size_t instants = 0;

  for (const Value& e : events.as_array()) {
    require(e.is_object(), "trace event must be an object");
    const std::string& ph = e.at("ph").as_string();
    require(e.at("pid").is_number(), "event missing pid");
    const double tid = e.at("tid").as_number();
    require(e.at("name").is_string(), "event missing name");
    if (ph == "M") {
      continue;  // metadata carries no timestamp
    }
    require(e.at("ts").is_number(), "event missing ts");
    const double ts = e.at("ts").as_number();
    ++events_per_tid[tid];
    const std::string& name = e.at("name").as_string();
    if (ph == "B") {
      stacks[tid].emplace_back(name, ts);
    } else if (ph == "E") {
      auto& stack = stacks[tid];
      require(!stack.empty(), "unbalanced E event (tid " +
                                  std::to_string(tid) + ", name " + name +
                                  ")");
      require(stack.back().first == name,
              "mis-nested span: E '" + name + "' closes B '" +
                  stack.back().first + "'");
      SpanAgg& agg = spans[name];
      agg.count += 1;
      agg.total_us += ts - stack.back().second;
      stack.pop_back();
    } else if (ph == "C") {
      require(e.at("args").is_object(), "counter event missing args");
      ++counters;
    } else if (ph == "i") {
      ++instants;
    } else {
      invalid("unknown event phase '" + ph + "'");
    }
  }
  for (const auto& [tid, stack] : stacks) {
    require(stack.empty(), "unclosed B events on tid " + std::to_string(tid));
  }

  if (check_only) {
    std::cout << "trace OK: " << events.as_array().size() << " events, "
              << events_per_tid.size() << " threads, balanced spans\n";
    return 0;
  }

  std::cout << "Chrome trace: " << events.as_array().size() << " events on "
            << events_per_tid.size() << " threads (" << counters
            << " counter samples, " << instants << " instants)\n\n";
  Table span_table({"span", "count", "total ms", "mean us"});
  for (const auto& [name, agg] : spans) {
    span_table.add_row(
        {name, std::to_string(agg.count), Table::num(agg.total_us / 1e3, 3),
         Table::num(agg.total_us / static_cast<double>(agg.count), 1)});
  }
  span_table.print(std::cout);
  std::cout << "\n";
  Table thread_table({"tid", "events"});
  for (const auto& [tid, count] : events_per_tid) {
    thread_table.add_row({std::to_string(static_cast<long long>(tid)),
                          std::to_string(count)});
  }
  thread_table.print(std::cout);
  return 0;
}

int summarize_report(const Value& doc, const SummaryOptions& opts) {
  const bool check_only = opts.check_only;
  const Value& meta = doc.at("meta");
  check_run_id(opts, optional_run_id(meta), "meta.run_id");
  for (const char* key :
       {"threads", "events", "dropped", "duration_s", "unmatched_begins",
        "unmatched_ends"}) {
    require(meta.at(key).is_number(), std::string("meta.") + key);
  }
  require(meta.at("unmatched_begins").as_number() == 0.0,
          "report has unmatched begin events");
  require(meta.at("unmatched_ends").as_number() == 0.0,
          "report has unmatched end events");

  const Value& spans = doc.at("spans");
  require(spans.is_object(), "spans must be an object");
  if (spans.as_object().empty()) {
    std::cout << "report has zero spans (nothing was recorded)\n";
    return check_only ? 1 : 0;
  }
  for (const auto& [path, span] : spans.as_object()) {
    for (const char* key : {"count", "total_s", "mean_s", "min_s", "max_s",
                            "p50_s", "p95_s", "p99_s"}) {
      require(span.find(key) != nullptr && span.at(key).is_number(),
              "span '" + path + "' missing " + key);
    }
    require(span.at("min_s").as_number() <= span.at("p50_s").as_number() &&
                span.at("p50_s").as_number() <=
                    span.at("p95_s").as_number() &&
                span.at("p95_s").as_number() <=
                    span.at("p99_s").as_number() &&
                span.at("p99_s").as_number() <= span.at("max_s").as_number(),
            "span '" + path + "' quantiles not monotone");
  }
  const Value& counters = doc.at("counters");
  require(counters.is_object(), "counters must be an object");
  for (const auto& [name, c] : counters.as_object()) {
    for (const char* key : {"samples", "first", "last", "min", "max",
                            "mean"}) {
      require(c.find(key) != nullptr && c.at(key).is_number(),
              "counter '" + name + "' missing " + key);
    }
  }
  require(doc.at("threads").is_array(), "threads must be an array");

  if (check_only) {
    std::cout << "report OK: " << spans.as_object().size() << " span paths, "
              << counters.as_object().size() << " counters, "
              << doc.at("threads").as_array().size() << " threads\n";
    return 0;
  }

  std::cout << "Run report: "
            << static_cast<std::size_t>(meta.at("events").as_number())
            << " events, "
            << static_cast<std::size_t>(meta.at("threads").as_number())
            << " threads, duration "
            << Table::num(meta.at("duration_s").as_number(), 3)
            << " s, dropped "
            << static_cast<std::size_t>(meta.at("dropped").as_number())
            << "\n\n";
  Table span_table({"span path", "count", "mean ms", "p50 ms", "p95 ms",
                    "p99 ms", "max ms"});
  for (const auto& [path, s] : spans.as_object()) {
    auto ms = [&](const char* key) {
      return Table::num(s.at(key).as_number() * 1e3, 3);
    };
    span_table.add_row(
        {path,
         std::to_string(static_cast<std::size_t>(s.at("count").as_number())),
         ms("mean_s"), ms("p50_s"), ms("p95_s"), ms("p99_s"), ms("max_s")});
  }
  span_table.print(std::cout);
  if (!counters.as_object().empty()) {
    std::cout << "\n";
    Table counter_table({"counter", "samples", "first", "last", "min",
                         "max"});
    for (const auto& [name, c] : counters.as_object()) {
      counter_table.add_row(
          {name,
           std::to_string(
               static_cast<std::size_t>(c.at("samples").as_number())),
           Table::num(c.at("first").as_number(), 4),
           Table::num(c.at("last").as_number(), 4),
           Table::num(c.at("min").as_number(), 4),
           Table::num(c.at("max").as_number(), 4)});
    }
    counter_table.print(std::cout);
  }
  std::cout << "\n";
  Table thread_table({"tid", "events", "busy s", "utilization"});
  for (const Value& t : doc.at("threads").as_array()) {
    thread_table.add_row(
        {std::to_string(static_cast<long long>(t.at("tid").as_number())),
         std::to_string(
             static_cast<std::size_t>(t.at("events").as_number())),
         Table::num(t.at("busy_s").as_number(), 3),
         Table::num(t.at("utilization").as_number(), 3)});
  }
  thread_table.print(std::cout);
  return 0;
}

int summarize_qor(const Value& doc, const SummaryOptions& opts) {
  check_run_id(opts, optional_run_id(doc), "qor run_id");
  require(doc.at("counters").is_object(), "qor counters must be an object");
  require(doc.at("samples").is_object(), "qor samples must be an object");
  require(doc.at("decisions").is_array(), "qor decisions must be an array");
  require(doc.at("curves").is_array(), "qor curves must be an array");
  require(doc.at("dropped").is_number(), "qor missing dropped");
  const Value& finals = doc.at("finals");
  require(finals.is_array(), "qor finals must be an array");
  for (const Value& fin : finals.as_array()) {
    require(fin.is_object() && fin.find("stage") != nullptr &&
                fin.at("stage").is_string(),
            "qor final missing stage");
    for (const char* key : {"med", "error_rate", "lut_bits", "flat_bits"}) {
      require(fin.find(key) != nullptr && fin.at(key).is_number(),
              std::string("qor final missing ") + key);
    }
  }
  if (opts.check_only) {
    std::cout << "qor OK: " << doc.at("counters").as_object().size()
              << " counters, " << doc.at("decisions").as_array().size()
              << " decisions, " << finals.as_array().size() << " finals\n";
    return 0;
  }
  std::cout << "adsd-qor-v1 record: "
            << doc.at("decisions").as_array().size() << " decisions, "
            << doc.at("curves").as_array().size() << " curves\n\n";
  Table final_table({"stage", "MED", "error rate", "LUT bits", "flat bits"});
  for (const Value& fin : finals.as_array()) {
    final_table.add_row(
        {fin.at("stage").as_string(), Table::num(fin.at("med").as_number(), 6),
         Table::num(fin.at("error_rate").as_number(), 6),
         std::to_string(
             static_cast<std::uint64_t>(fin.at("lut_bits").as_number())),
         std::to_string(
             static_cast<std::uint64_t>(fin.at("flat_bits").as_number()))});
  }
  final_table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return adsd::tools::run_summary_tool(
      argc, argv, "trace_summary",
      [](const std::string& text, const SummaryOptions& opts) {
        const Value doc = adsd::json::parse(text);
        if (doc.contains("traceEvents")) {
          return summarize_chrome_trace(doc, opts);
        }
        if (const Value* schema = doc.find("schema");
            schema != nullptr && schema->is_string() &&
            schema->as_string() == "adsd-qor-v1") {
          return summarize_qor(doc, opts);
        }
        if (doc.contains("meta") && doc.contains("spans")) {
          return summarize_report(doc, opts);
        }
        throw std::runtime_error(
            "unrecognized JSON document (expected a Chrome trace, run "
            "report, or adsd-qor-v1 record)");
      });
}
