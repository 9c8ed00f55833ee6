// obs_summary: reader and schema validator for every observability
// artifact the solve stack emits (see DESIGN.md "Observability"):
//
//   obs_summary <file> [--check] [--expect-run-id <id>]
//
// The artifact kind is detected from the content:
//   - A file whose first non-blank byte is '{' or '[' is tried as one JSON
//     document. "traceEvents" marks a Chrome trace (adsd_cli --trace) and
//     "meta" plus "spans" a run report (--report); otherwise "schema"
//     decides: adsd-qor-v1 (--qor), adsd-metrics-v1 (--metrics-format
//     json), adsd-flight-v1 (--postmortem) or adsd-log-v1 (a one-record
//     log).
//   - Content that is not one JSON document is read as JSONL, one
//     adsd-log-v1 record per line (--log-file), when its first line is a
//     JSON document on its own; otherwise the document's parse error is
//     the verdict.
//   - Anything else is Prometheus text exposition v0.0.4 (--metrics).
//
// What each kind must satisfy:
//   - Chrome trace: event fields, and per-thread B/E balance and nesting.
//     Prints per-span totals and per-thread event counts.
//   - Run report: quantile fields present and monotone, no unmatched
//     begin or end events. Prints the latency, counter and thread tables.
//   - adsd-qor-v1: the counters/samples/decisions/curves/finals sections.
//     Prints the final quality summary.
//   - Prometheus text: every sample line parses and belongs to a
//     # TYPE-declared family; histogram families are consistent
//     (cumulative buckets non-decreasing, le bounds strictly increasing,
//     the mandatory +Inf bucket equal to _count). `# EXEMPLAR` comment
//     lines must parse as `# EXEMPLAR <series> run_id="..." value=<num>`.
//     Prints the counter/gauge and histogram tables.
//   - adsd-metrics-v1: per-kind payloads, bucket sums equal to count,
//     p50 <= p95 <= p99, optional per-histogram exemplar {run_id, value}.
//   - adsd-flight-v1: record fields and strictly increasing sequence
//     numbers; records may carry run_id and the document a log_tail.
//     Prints the solve ring.
//   - adsd-log-v1: every line a complete record with schema / ts / level /
//     thread / component / run_id / msg and typed optionals (parent_id,
//     suppressed, fields); levels from the level roster. Prints
//     per-level and per-component counts and the suppression total.
//
// --check suppresses the tables (validation only). --expect-run-id <id> is
// the provenance join check: a log record, trace, report or QoR record
// must carry exactly that run_id; the process-wide carriers (metrics
// exemplars, flight records) need at least one that matches. Empty or
// whitespace-only files fail with a plain message, and a structurally
// valid trace or report with zero events or spans fails only under
// --check. Exit status: 0 valid, 1 invalid or unreadable, 2 usage.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

namespace {

using adsd::Table;
using adsd::json::Value;

[[noreturn]] void invalid(const std::string& what) {
  throw std::runtime_error(what);
}

void require(bool ok, const std::string& what) {
  if (!ok) {
    invalid(what);
  }
}

/// The command line's options.
struct SummaryOptions {
  bool check_only = false;
  /// Non-empty = the artifact must carry this run_id (provenance join).
  std::string expect_run_id;
};

/// Asserts the artifact's correlation ID against --expect-run-id: a no-op
/// when no expectation was given, otherwise the artifact must carry a
/// run_id and it must match. `where` names the artifact location in the
/// failure message ("meta.run_id", "log record 7", ...).
void check_run_id(const SummaryOptions& opts, const std::string& actual,
                  const std::string& where) {
  if (opts.expect_run_id.empty()) {
    return;
  }
  require(!actual.empty(), where + ": missing run_id (expected '" +
                               opts.expect_run_id + "')");
  require(actual == opts.expect_run_id,
          where + ": run_id '" + actual + "' does not match expected '" +
              opts.expect_run_id + "'");
}

/// Asserts the --expect-run-id join against the run_ids an exposition
/// actually carried (exemplars / flight records): at least one must match.
void check_expected_run_id(const SummaryOptions& opts,
                           const std::vector<std::string>& seen,
                           const char* carrier) {
  if (opts.expect_run_id.empty()) {
    return;
  }
  require(!seen.empty(), std::string("no ") + carrier +
                             " carry a run_id (expected '" +
                             opts.expect_run_id + "')");
  for (const std::string& id : seen) {
    if (id == opts.expect_run_id) {
      return;
    }
  }
  invalid(std::string(carrier) + " run_id '" + seen.front() +
          "' does not match expected '" + opts.expect_run_id + "'");
}

// ---------------------------------------------------------------------------
// Chrome trace, run report and adsd-qor-v1.

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

// ---------------------------------------------------------------------------
// Prometheus text exposition (v0.0.4).

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

bool valid_prom_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) {
    return false;
  }
  for (const char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) {
      return false;
    }
  }
  return true;
}

double parse_prom_value(const std::string& text, const std::string& where) {
  if (text == "+Inf" || text == "Inf") {
    return std::numeric_limits<double>::infinity();
  }
  if (text == "-Inf") {
    return -std::numeric_limits<double>::infinity();
  }
  if (text == "NaN") {
    return std::numeric_limits<double>::quiet_NaN();
  }
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  require(end != nullptr && *end == '\0' && end != text.c_str(),
          where + ": bad sample value '" + text + "'");
  return v;
}

/// Parses one `name{k="v",...} value` sample line (labels optional).
PromSample parse_prom_sample(const std::string& line, std::size_t lineno) {
  const std::string where = "line " + std::to_string(lineno);
  PromSample sample;
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') {
    ++i;
  }
  sample.name = line.substr(0, i);
  require(valid_prom_name(sample.name),
          where + ": bad metric name '" + sample.name + "'");
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      std::size_t eq = line.find('=', i);
      require(eq != std::string::npos, where + ": label missing '='");
      const std::string key = line.substr(i, eq - i);
      require(valid_prom_name(key), where + ": bad label key '" + key + "'");
      require(eq + 1 < line.size() && line[eq + 1] == '"',
              where + ": label value must be quoted");
      std::string value;
      std::size_t j = eq + 2;
      for (; j < line.size() && line[j] != '"'; ++j) {
        if (line[j] == '\\') {
          require(j + 1 < line.size(), where + ": dangling escape");
          ++j;
          if (line[j] == 'n') {
            value += '\n';
          } else if (line[j] == '\\' || line[j] == '"') {
            value += line[j];
          } else {
            invalid(where + ": unknown escape '\\" + line[j] + "'");
          }
        } else {
          value += line[j];
        }
      }
      require(j < line.size(), where + ": unterminated label value");
      require(sample.labels.emplace(key, value).second,
              where + ": duplicate label '" + key + "'");
      i = j + 1;
      if (i < line.size() && line[i] == ',') {
        ++i;
      }
    }
    require(i < line.size(), where + ": unterminated label set");
    ++i;  // consume '}'
  }
  require(i < line.size() && line[i] == ' ',
          where + ": missing value after metric name");
  sample.value = parse_prom_value(line.substr(i + 1), where);
  return sample;
}

/// Serializes the labels minus `drop` — the series identity used to group
/// one histogram's _bucket/_sum/_count samples.
std::string label_key(const std::map<std::string, std::string>& labels,
                      const std::string& drop = "") {
  std::string key;
  for (const auto& [k, v] : labels) {
    if (k == drop) {
      continue;
    }
    key += k + "=" + v + ";";
  }
  return key;
}

struct PromHistogram {
  std::vector<std::pair<double, double>> cumulative;  // (le, count)
  bool has_sum = false;
  bool has_count = false;
  double sum = 0.0;
  double count = 0.0;
  std::map<std::string, std::string> labels;  // minus le
};

int summarize_prometheus(const std::string& text,
                         const SummaryOptions& opts) {
  const bool check_only = opts.check_only;
  std::map<std::string, std::string> family_type;  // name -> counter|gauge|…
  std::vector<PromSample> scalars;  // counter and gauge samples
  std::map<std::string, std::map<std::string, PromHistogram>> histograms;
  std::set<std::string> series_seen;
  std::vector<std::string> exemplar_run_ids;
  std::size_t samples = 0;

  // Maps a sample name to its declared family: exact match, or the
  // histogram suffixes on a histogram-typed family.
  auto family_of = [&](const std::string& name,
                       std::string* suffix) -> std::string {
    if (family_type.count(name) != 0) {
      *suffix = "";
      return name;
    }
    for (const char* s : {"_bucket", "_sum", "_count"}) {
      const std::string tail(s);
      if (name.size() > tail.size() &&
          name.compare(name.size() - tail.size(), tail.size(), tail) == 0) {
        const std::string base = name.substr(0, name.size() - tail.size());
        auto it = family_type.find(base);
        if (it != family_type.end() && it->second == "histogram") {
          *suffix = tail;
          return base;
        }
      }
    }
    return "";
  };

  std::size_t lineno = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    std::string line = text.substr(
        start, nl == std::string::npos ? std::string::npos : nl - start);
    start = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++lineno;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    const std::string where = "line " + std::to_string(lineno);
    if (line[0] == '#') {
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::size_t sp = line.find(' ', 7);
        require(sp != std::string::npos, where + ": malformed # TYPE");
        const std::string name = line.substr(7, sp - 7);
        const std::string kind = line.substr(sp + 1);
        require(valid_prom_name(name),
                where + ": bad family name '" + name + "'");
        require(kind == "counter" || kind == "gauge" || kind == "histogram" ||
                    kind == "summary" || kind == "untyped",
                where + ": unknown family type '" + kind + "'");
        require(family_type.emplace(name, kind).second,
                where + ": duplicate # TYPE for '" + name + "'");
      } else if (line.rfind("# EXEMPLAR ", 0) == 0) {
        // `# EXEMPLAR <series> run_id="..." value=<num>` — the provenance
        // join emitted next to a histogram's _count (a comment line, so
        // plain v0.0.4 consumers skip it).
        const std::string body = line.substr(11);
        const std::size_t rid = body.find(" run_id=\"");
        require(rid != std::string::npos && rid > 0,
                where + ": EXEMPLAR missing series or run_id");
        const std::size_t id_begin = rid + 9;
        const std::size_t id_end = body.find('"', id_begin);
        require(id_end != std::string::npos,
                where + ": EXEMPLAR unterminated run_id");
        const std::size_t val = body.find(" value=", id_end);
        require(val != std::string::npos, where + ": EXEMPLAR missing value");
        (void)parse_prom_value(body.substr(val + 7), where);
        exemplar_run_ids.push_back(body.substr(id_begin, id_end - id_begin));
      }
      continue;  // HELP and other comments pass through
    }
    const PromSample sample = parse_prom_sample(line, lineno);
    ++samples;
    require(series_seen.insert(sample.name + "|" + label_key(sample.labels))
                .second,
            where + ": duplicate series '" + sample.name + "'");
    std::string suffix;
    const std::string family = family_of(sample.name, &suffix);
    require(!family.empty(),
            where + ": sample '" + sample.name + "' has no # TYPE family");
    const std::string& kind = family_type.at(family);
    if (kind == "histogram") {
      PromHistogram& h = histograms[family][label_key(sample.labels, "le")];
      if (suffix == "_bucket") {
        auto le = sample.labels.find("le");
        require(le != sample.labels.end(),
                where + ": _bucket sample missing le label");
        h.cumulative.emplace_back(parse_prom_value(le->second, where),
                                  sample.value);
        if (h.labels.empty()) {
          h.labels = sample.labels;
          h.labels.erase("le");
        }
      } else if (suffix == "_sum") {
        h.has_sum = true;
        h.sum = sample.value;
      } else if (suffix == "_count") {
        h.has_count = true;
        h.count = sample.value;
      } else {
        invalid(where + ": bare sample for histogram family '" + family +
                "'");
      }
    } else {
      require(suffix.empty(), where + ": suffixed sample '" + sample.name +
                                  "' on non-histogram family");
      if (kind == "counter") {
        require(sample.value >= 0.0 && std::isfinite(sample.value),
                where + ": counter '" + sample.name + "' must be a finite "
                        "non-negative value");
      }
      scalars.push_back(sample);
    }
  }
  require(samples > 0, "no samples in exposition");
  check_expected_run_id(opts, exemplar_run_ids, "exemplars");

  for (const auto& [family, series] : histograms) {
    for (const auto& [key, h] : series) {
      require(!h.cumulative.empty(),
              "histogram '" + family + "' series has no buckets");
      require(h.has_sum && h.has_count,
              "histogram '" + family + "' series missing _sum or _count");
      for (std::size_t i = 0; i < h.cumulative.size(); ++i) {
        if (i > 0) {
          require(h.cumulative[i].first > h.cumulative[i - 1].first,
                  "histogram '" + family + "' le bounds not increasing");
          require(h.cumulative[i].second >= h.cumulative[i - 1].second,
                  "histogram '" + family + "' cumulative counts decrease");
        }
      }
      require(std::isinf(h.cumulative.back().first),
              "histogram '" + family + "' missing the +Inf bucket");
      require(h.cumulative.back().second == h.count,
              "histogram '" + family + "' +Inf bucket != _count");
    }
  }

  if (check_only) {
    std::cout << "metrics OK: " << samples << " samples, "
              << family_type.size() << " families (" << histograms.size()
              << " histogram)\n";
    return 0;
  }

  std::cout << "Prometheus exposition: " << samples << " samples, "
            << family_type.size() << " families\n\n";
  Table scalar_table({"metric", "type", "value"});
  for (const PromSample& s : scalars) {
    std::string name = s.name;
    const std::string labels = label_key(s.labels);
    if (!labels.empty()) {
      name += "{" + labels.substr(0, labels.size() - 1) + "}";
    }
    scalar_table.add_row({name, family_type.at(s.name),
                          Table::num(s.value, 6)});
  }
  scalar_table.print(std::cout);
  if (!histograms.empty()) {
    std::cout << "\n";
    Table hist_table({"histogram", "count", "sum", "mean", "buckets"});
    for (const auto& [family, series] : histograms) {
      for (const auto& [key, h] : series) {
        std::string name = family;
        if (!key.empty()) {
          name += "{" + key.substr(0, key.size() - 1) + "}";
        }
        hist_table.add_row(
            {name, std::to_string(static_cast<std::uint64_t>(h.count)),
             Table::num(h.sum, 3),
             Table::num(h.count > 0 ? h.sum / h.count : 0.0, 3),
             std::to_string(h.cumulative.size())});
      }
    }
    hist_table.print(std::cout);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// adsd-metrics-v1 JSON snapshot.

int summarize_metrics_json(const Value& doc, const SummaryOptions& opts) {
  const bool check_only = opts.check_only;
  require(doc.at("dropped").is_number(), "missing dropped");
  const Value& metrics = doc.at("metrics");
  require(metrics.is_array(), "metrics must be an array");
  std::vector<std::string> exemplar_run_ids;
  std::size_t counters = 0;
  std::size_t gauges = 0;
  std::size_t hists = 0;
  Table scalar_table({"metric", "kind", "value"});
  Table hist_table({"histogram", "count", "mean", "p50", "p95", "p99",
                    "max"});
  for (const Value& m : metrics.as_array()) {
    require(m.is_object(), "metric entry must be an object");
    require(m.find("name") != nullptr && m.at("name").is_string(),
            "metric missing name");
    const std::string& name = m.at("name").as_string();
    require(m.find("labels") != nullptr && m.at("labels").is_object(),
            "metric '" + name + "' missing labels");
    require(m.find("kind") != nullptr && m.at("kind").is_string(),
            "metric '" + name + "' missing kind");
    const std::string& kind = m.at("kind").as_string();
    std::string display = name;
    {
      std::string labels;
      for (const auto& [k, v] : m.at("labels").as_object()) {
        labels += (labels.empty() ? "" : ",") + k + "=" + v.as_string();
      }
      if (!labels.empty()) {
        display += "{" + labels + "}";
      }
    }
    if (kind == "counter" || kind == "gauge") {
      require(m.find("value") != nullptr && m.at("value").is_number(),
              "metric '" + name + "' missing value");
      if (kind == "counter") {
        require(m.at("value").as_number() >= 0.0,
                "counter '" + name + "' negative");
        ++counters;
      } else {
        ++gauges;
      }
      scalar_table.add_row({display, kind,
                            Table::num(m.at("value").as_number(), 6)});
    } else if (kind == "histogram") {
      ++hists;
      for (const char* key : {"count", "sum", "min", "max", "underflow",
                              "overflow", "p50", "p95", "p99"}) {
        require(m.find(key) != nullptr && m.at(key).is_number(),
                "histogram '" + name + "' missing " + key);
      }
      require(m.find("buckets") != nullptr && m.at("buckets").is_array(),
              "histogram '" + name + "' missing buckets");
      const double count = m.at("count").as_number();
      double bucketed = m.at("underflow").as_number() +
                        m.at("overflow").as_number();
      double last_upper = -std::numeric_limits<double>::infinity();
      for (const Value& b : m.at("buckets").as_array()) {
        require(b.is_array() && b.as_array().size() == 3,
                "histogram '" + name + "' bucket must be [lower, upper, "
                "count]");
        const double lower = b.as_array()[0].as_number();
        const double upper = b.as_array()[1].as_number();
        require(lower < upper && lower >= last_upper,
                "histogram '" + name + "' bucket bounds out of order");
        last_upper = upper;
        bucketed += b.as_array()[2].as_number();
      }
      require(bucketed == count,
              "histogram '" + name + "' bucket counts do not sum to count");
      if (const Value* ex = m.find("exemplar")) {
        require(ex->is_object() && ex->find("run_id") != nullptr &&
                    ex->at("run_id").is_string() &&
                    ex->find("value") != nullptr &&
                    ex->at("value").is_number(),
                "histogram '" + name + "' exemplar must carry run_id and "
                "value");
        exemplar_run_ids.push_back(ex->at("run_id").as_string());
      }
      if (count > 0) {
        const double p50 = m.at("p50").as_number();
        const double p95 = m.at("p95").as_number();
        const double p99 = m.at("p99").as_number();
        require(p50 <= p95 && p95 <= p99,
                "histogram '" + name + "' quantiles not monotone");
        require(m.at("min").as_number() <= m.at("max").as_number(),
                "histogram '" + name + "' min > max");
      }
      hist_table.add_row(
          {display, std::to_string(static_cast<std::uint64_t>(count)),
           Table::num(count > 0 ? m.at("sum").as_number() / count : 0.0, 3),
           Table::num(m.at("p50").as_number(), 3),
           Table::num(m.at("p95").as_number(), 3),
           Table::num(m.at("p99").as_number(), 3),
           Table::num(m.at("max").as_number(), 3)});
    } else {
      invalid("metric '" + name + "' has unknown kind '" + kind + "'");
    }
  }
  check_expected_run_id(opts, exemplar_run_ids, "exemplars");

  if (check_only) {
    std::cout << "metrics OK: " << counters << " counters, " << gauges
              << " gauges, " << hists << " histograms, dropped "
              << static_cast<std::uint64_t>(doc.at("dropped").as_number())
              << "\n";
    return 0;
  }
  std::cout << "adsd-metrics-v1 snapshot: "
            << metrics.as_array().size() << " series, dropped "
            << static_cast<std::uint64_t>(doc.at("dropped").as_number())
            << "\n\n";
  scalar_table.print(std::cout);
  if (hists > 0) {
    std::cout << "\n";
    hist_table.print(std::cout);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// adsd-flight-v1 JSON postmortem.

int summarize_flight_json(const Value& doc, const SummaryOptions& opts) {
  const bool check_only = opts.check_only;
  require(doc.at("reason").is_string(), "missing reason");
  require(doc.at("total_recorded").is_number(), "missing total_recorded");
  const Value& solves = doc.at("solves");
  require(solves.is_array(), "solves must be an array");
  std::vector<std::string> record_run_ids;
  double last_seq = -1.0;
  for (const Value& rec : solves.as_array()) {
    require(rec.is_object(), "solve record must be an object");
    for (const char* key : {"spec", "engine", "stop_reason"}) {
      require(rec.find(key) != nullptr && rec.at(key).is_string(),
              std::string("solve record missing ") + key);
    }
    for (const char* key :
         {"seq", "n", "rounds", "final_energy", "med", "duration_s"}) {
      require(rec.find(key) != nullptr && rec.at(key).is_number(),
              std::string("solve record missing ") + key);
    }
    if (const Value* rid = rec.find("run_id")) {
      require(rid->is_string(), "solve record run_id must be a string");
      record_run_ids.push_back(rid->as_string());
    }
    require(rec.at("seq").as_number() > last_seq,
            "solve record sequence numbers not increasing");
    last_seq = rec.at("seq").as_number();
  }
  if (const Value* tail = doc.find("log_tail")) {
    // Last-N structured-log replay embedded by the recorder when the
    // logger was armed at dump time; each entry is one parsed adsd-log-v1
    // record.
    require(tail->is_array(), "log_tail must be an array");
    for (const Value& entry : tail->as_array()) {
      require(entry.is_object(), "log_tail entry must be an object");
    }
  }
  check_expected_run_id(opts, record_run_ids, "flight records");

  if (check_only) {
    std::cout << "flight OK: " << solves.as_array().size()
              << " solve records, reason " << doc.at("reason").as_string()
              << "\n";
    return 0;
  }
  std::cout << "adsd-flight-v1 postmortem: reason "
            << doc.at("reason").as_string() << ", "
            << solves.as_array().size() << " of "
            << static_cast<std::uint64_t>(
                   doc.at("total_recorded").as_number())
            << " records retained\n\n";
  Table solve_table({"seq", "spec", "engine", "stop", "n", "rounds",
                     "energy", "MED", "duration s"});
  for (const Value& rec : solves.as_array()) {
    solve_table.add_row(
        {std::to_string(
             static_cast<std::uint64_t>(rec.at("seq").as_number())),
         rec.at("spec").as_string(), rec.at("engine").as_string(),
         rec.at("stop_reason").as_string(),
         std::to_string(static_cast<std::uint64_t>(rec.at("n").as_number())),
         std::to_string(
             static_cast<std::uint64_t>(rec.at("rounds").as_number())),
         Table::num(rec.at("final_energy").as_number(), 4),
         Table::num(rec.at("med").as_number(), 6),
         Table::num(rec.at("duration_s").as_number(), 3)});
  }
  solve_table.print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// adsd-log-v1 JSONL.

struct ComponentAgg {
  std::map<std::string, std::size_t> per_level;
  std::size_t count = 0;
};

int summarize_log(const std::string& text, const SummaryOptions& opts) {
  std::map<std::string, ComponentAgg> components;
  std::map<std::string, std::size_t> per_level;
  std::uint64_t suppressed = 0;
  std::size_t records = 0;

  std::size_t lineno = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    std::string line = text.substr(
        start, nl == std::string::npos ? std::string::npos : nl - start);
    start = nl == std::string::npos ? text.size() : nl + 1;
    ++lineno;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.find_first_not_of(" \t") == std::string::npos) {
      continue;
    }
    const std::string where = "line " + std::to_string(lineno);
    Value rec = [&] {
      try {
        return adsd::json::parse(line);
      } catch (const std::exception& e) {
        throw std::runtime_error(where + ": not a JSON object (" + e.what() +
                                 ")");
      }
    }();
    require(rec.is_object(), where + ": record must be a JSON object");
    require(rec.find("schema") != nullptr && rec.at("schema").is_string() &&
                rec.at("schema").as_string() == "adsd-log-v1",
            where + ": schema must be \"adsd-log-v1\"");
    require(rec.find("ts") != nullptr && rec.at("ts").is_number(),
            where + ": missing numeric ts");
    require(rec.find("thread") != nullptr && rec.at("thread").is_number(),
            where + ": missing numeric thread");
    for (const char* key : {"level", "component", "run_id", "msg"}) {
      require(rec.find(key) != nullptr && rec.at(key).is_string(),
              where + ": missing string " + key);
    }
    const std::string& level = rec.at("level").as_string();
    require(adsd::parse_log_level(level).has_value() && level != "off",
            where + ": unknown level '" + level + "'");
    if (const Value* pid = rec.find("parent_id")) {
      require(pid->is_string(), where + ": parent_id must be a string");
    }
    if (const Value* sup = rec.find("suppressed")) {
      require(sup->is_number() && sup->as_number() > 0.0,
              where + ": suppressed must be a positive count");
      suppressed += static_cast<std::uint64_t>(sup->as_number());
    }
    if (const Value* fields = rec.find("fields")) {
      require(fields->is_object(), where + ": fields must be an object");
    }
    check_run_id(opts, rec.at("run_id").as_string(), where);

    ++records;
    ++per_level[level];
    ComponentAgg& agg = components[rec.at("component").as_string()];
    ++agg.count;
    ++agg.per_level[level];
  }
  require(records > 0, "no log records (every line blank)");

  if (opts.check_only) {
    std::cout << "log OK: " << records << " records, " << components.size()
              << " components, " << suppressed << " suppressed\n";
    return 0;
  }

  std::cout << "adsd-log-v1 stream: " << records << " records across "
            << components.size() << " components";
  if (suppressed > 0) {
    std::cout << " (" << suppressed << " suppressed by rate limits)";
  }
  std::cout << "\n\n";
  Table level_table({"level", "records"});
  for (const char* level : {"debug", "info", "warn", "error"}) {
    const auto it = per_level.find(level);
    if (it != per_level.end()) {
      level_table.add_row({level, std::to_string(it->second)});
    }
  }
  level_table.print(std::cout);
  std::cout << "\n";
  Table component_table({"component", "records", "debug", "info", "warn",
                         "error"});
  for (const auto& [component, agg] : components) {
    auto count = [&](const char* level) {
      const auto it = agg.per_level.find(level);
      return std::to_string(it == agg.per_level.end() ? 0 : it->second);
    };
    component_table.add_row({component, std::to_string(agg.count),
                             count("debug"), count("info"), count("warn"),
                             count("error")});
  }
  component_table.print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// Kind detection.

/// True when the first non-blank line of `text` parses as a JSON document
/// by itself: the mark of a JSONL stream rather than a broken document.
bool first_line_is_document(const std::string& text) {
  const std::size_t begin = text.find_first_not_of(" \t\r\n");
  const std::size_t end = text.find('\n', begin);
  try {
    adsd::json::parse(std::string_view(text).substr(
        begin, end == std::string::npos ? std::string::npos : end - begin));
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

int summarize(const std::string& text, const SummaryOptions& opts) {
  const char first = text[text.find_first_not_of(" \t\r\n")];
  if (first != '{' && first != '[') {
    return summarize_prometheus(text, opts);
  }
  Value doc;
  try {
    doc = adsd::json::parse(text);
  } catch (const std::runtime_error&) {
    if (!first_line_is_document(text)) {
      throw;
    }
    return summarize_log(text, opts);
  }
  if (doc.contains("traceEvents")) {
    return summarize_chrome_trace(doc, opts);
  }
  if (doc.contains("meta") && doc.contains("spans")) {
    return summarize_report(doc, opts);
  }
  const Value* schema = doc.find("schema");
  require(schema != nullptr && schema->is_string(),
          "unrecognized JSON document (expected a Chrome trace, run report, "
          "or a document with a schema)");
  const std::string& name = schema->as_string();
  if (name == "adsd-qor-v1") {
    return summarize_qor(doc, opts);
  }
  if (name == "adsd-metrics-v1") {
    return summarize_metrics_json(doc, opts);
  }
  if (name == "adsd-flight-v1") {
    return summarize_flight_json(doc, opts);
  }
  if (name == "adsd-log-v1") {
    return summarize_log(text, opts);
  }
  invalid("unknown schema '" + name +
          "' (expected adsd-qor-v1, adsd-metrics-v1, adsd-flight-v1 or "
          "adsd-log-v1)");
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  SummaryOptions opts;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      opts.check_only = true;
    } else if (arg == "--expect-run-id") {
      if (i + 1 >= argc) {
        usage_error = true;
        break;
      }
      opts.expect_run_id = argv[++i];
    } else if (path.empty()) {
      path = arg;
    } else {
      usage_error = true;
    }
  }
  if (path.empty() || usage_error) {
    std::cerr << "usage: obs_summary <file> [--check] [--expect-run-id <id>]\n";
    return 2;
  }
  try {
    std::ifstream f(path);
    if (!f) {
      throw std::runtime_error("cannot open '" + path + "'");
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    const std::string text = buf.str();
    if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
      // A truncated or never-written artifact; say so plainly instead of
      // surfacing the parser's "unexpected end of input at offset 0".
      std::cerr << "obs_summary: " << path << ": file is empty (no document)\n";
      return 1;
    }
    return summarize(text, opts);
  } catch (const std::exception& e) {
    std::cerr << "obs_summary: " << path << ": " << e.what() << "\n";
    return 1;
  }
}
