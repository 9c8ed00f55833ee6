#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "boolean/error_metrics.hpp"
#include "core/cop_solvers.hpp"
#include "core/dalta.hpp"
#include "core/solver_registry.hpp"
#include "funcs/registry.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/run_context.hpp"
#include "support/table.hpp"

namespace adsd::bench {

/// Builds a core-COP solver through the registry from a spec string
/// ("prop", "ilp,budget=1.5", ...; see `adsd_cli info` for the full
/// table). The harness-level knobs — instance width and ILP budget — are
/// overlaid onto the spec for the solvers that take them, with explicit
/// spec keys winning.
inline std::unique_ptr<CoreCopSolver> make_solver(const std::string& spec,
                                                  unsigned num_inputs,
                                                  double ilp_budget_s) {
  const SolverRegistry& registry = SolverRegistry::global();
  auto [name, config] = SolverRegistry::parse_spec(spec);
  const SolverRegistry::Entry* entry = registry.find(name);
  auto overlay = [&](const std::string& key, const std::string& value) {
    if (entry != nullptr && !config.has(key) &&
        std::find(entry->keys.begin(), entry->keys.end(), key) !=
            entry->keys.end()) {
      config.set(key, value);
    }
  };
  overlay("n", std::to_string(num_inputs));
  overlay("budget", std::to_string(ilp_budget_s));
  return registry.make(name, config);
}

/// Prints the standard bench header: what experiment, what scale, and how
/// the run differs from the paper's full configuration.
inline void print_header(const std::string& experiment,
                         const std::string& paper_config,
                         const DaltaParams& params) {
  std::cout << "== " << experiment << " ==\n"
            << "paper configuration: " << paper_config << "\n"
            << "this run: P=" << params.num_partitions
            << " R=" << params.rounds << " free=" << params.free_size
            << " seed=" << params.seed
            << "  (override with --p/--rounds/--seed; paper-scale runs take "
               "much longer)\n\n";
}

/// The obs-bundle directory for this invocation: <obs-dir>/<run_id>, or ""
/// when --obs-dir was not given. The run_id segment comes from the context
/// so every artifact written there shares the directory's key.
inline std::string obs_bundle_dir(const CliArgs& args,
                                  const RunContext& ctx) {
  if (!args.has("obs-dir")) {
    return "";
  }
  return (std::filesystem::path(args.get_string("obs-dir", "")) /
          ctx.run_id())
      .string();
}

/// RunContext options from the observability flags every harness shares:
/// --seed, --threads, the recording switches, the structured-log knobs
/// (--log-level, --log-file), and --obs-dir. Each recorder is armed iff
/// its artifact was requested, so a plain run keeps the null-recorder
/// zero-overhead path; --obs-dir arms everything and mints the run_id that
/// keys the bundle directory.
inline RunContext::Options context_options(const CliArgs& args) {
  RunContext::Options opts;
  opts.seed = args.get_size("seed", 42);
  if (args.has("threads")) {
    opts.threads = args.get_positive_size("threads", 1);
  }
  opts.trace = args.has("trace") || args.has("report");
  opts.qor = args.has("qor");
  opts.metrics = args.has("metrics");
  if (args.has("log-level") || args.has("log-file")) {
    opts.log = true;
    opts.log_level =
        parse_log_level_or_throw(args.get_string("log-level", "info"));
    opts.log_path = args.get_string("log-file", "");
  }
  if (args.has("obs-dir")) {
    // Unified bundle: one directory keyed by a freshly minted run_id with
    // every recorder armed; write_run_artifacts drops all artifacts there.
    // Explicit --log-level / --log-file still win over the defaults.
    opts.run_id = Logger::mint_run_id();
    opts.trace = true;
    opts.qor = true;
    opts.metrics = true;
    opts.log = true;
    const std::filesystem::path dir =
        std::filesystem::path(args.get_string("obs-dir", "")) / opts.run_id;
    std::filesystem::create_directories(dir);
    if (opts.log_path.empty()) {
      opts.log_path = (dir / "log.jsonl").string();
    }
  }
  return opts;
}

/// The flags the bench harness custom mains consume themselves. They must
/// be stripped from argv before benchmark::Initialize sees it
/// (google-benchmark rejects unknown options); unit-tested directly in
/// tests/test_bench_common.cpp so a newly added flag can't silently break
/// the stripping.
inline constexpr std::string_view kHarnessFlags[] = {
    "trace",   "report",         "threads",   "seed",     "qor",    "json",
    "metrics", "metrics-format", "log-level", "log-file", "obs-dir"};

inline bool is_harness_flag(std::string_view token) {
  if (token.rfind("--", 0) != 0) {
    return false;
  }
  const std::string_view name =
      token.substr(2, token.find('=') == std::string_view::npos
                          ? std::string_view::npos
                          : token.find('=') - 2);
  return std::find(std::begin(kHarnessFlags), std::end(kHarnessFlags),
                   name) != std::end(kHarnessFlags);
}

/// Checks a harness's command line before it runs anything: a flag that is
/// neither one of `own` nor a harness flag prints "error: unknown flag
/// '--name'" and returns false, so a stale or misspelled flag cannot run
/// the experiment with defaults.
inline bool known_flags_only(const CliArgs& args,
                             std::initializer_list<std::string_view> own) {
  std::vector<std::string_view> known(own);
  known.insert(known.end(), std::begin(kHarnessFlags), std::end(kHarnessFlags));
  try {
    args.reject_unknown(known);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return false;
  }
  return true;
}

/// Removes the harness flags (both "--flag=value" and detached
/// "--flag value" forms) from argv, returning what google-benchmark should
/// parse. Non-flag tokens and unknown flags pass through untouched.
inline std::vector<char*> strip_harness_flags(int argc, char** argv) {
  std::vector<char*> out;
  out.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (is_harness_flag(argv[i])) {
      const std::string_view token(argv[i]);
      if (token.find('=') == std::string_view::npos && i + 1 < argc &&
          argv[i + 1][0] != '-') {
        ++i;  // detached "--flag value" form: drop the value too
      }
      continue;
    }
    out.push_back(argv[i]);
  }
  return out;
}

/// The 1-CPU caveat: derived speedup records (thread sharding, ensemble
/// parallelism) are meaningless on a single-hardware-thread host, so the
/// schema-v2 writer flags them invalid there and bench_diff skips them.
inline bool multi_core_host() {
  return std::thread::hardware_concurrency() > 1;
}

/// Schema-v2 bench report writer: the one serialization path for every
/// BENCH_*.json and harness --json output. Each record carries the metric
/// kind ("time" | "qor" | "derived"), its improvement direction ("min" =
/// smaller is better, "max" = larger is better), and a per-record `valid`
/// flag (false = environment caveat, e.g. a speedup measured on a 1-CPU
/// host); tools/bench_diff compares two such files and skips invalid
/// records.
class BenchReport {
 public:
  explicit BenchReport(std::string generator)
      : generator_(std::move(generator)) {}

  /// Stamps the run's correlation ID into the host block, joining this
  /// report to the run's log/trace/QoR/metrics artifacts. Empty = omitted.
  void set_run_id(std::string run_id) { run_id_ = std::move(run_id); }

  /// Wall-clock metric, direction "min".
  void add_time(const std::string& name, double seconds, bool valid = true,
                const std::string& note = "") {
    add(name, "time", seconds, "s", "min", valid, note);
  }

  /// Quality metric where smaller is better (MED, error rate, LUT bits).
  void add_qor(const std::string& name, double value,
               const std::string& unit = "", bool valid = true,
               const std::string& note = "") {
    add(name, "qor", value, unit, "min", valid, note);
  }

  /// Derived ratio (speedups etc.); direction is explicit.
  void add_derived(const std::string& name, double value,
                   const std::string& direction, bool valid = true,
                   const std::string& note = "") {
    add(name, "derived", value, "ratio", direction, valid, note);
  }

  void add(const std::string& name, const std::string& kind, double value,
           const std::string& unit, const std::string& direction, bool valid,
           const std::string& note = "") {
    std::map<std::string, json::Value> rec;
    rec.emplace("name", json::Value::make_string(name));
    rec.emplace("kind", json::Value::make_string(kind));
    rec.emplace("value", json::Value::make_number(value));
    rec.emplace("unit", json::Value::make_string(unit));
    rec.emplace("direction", json::Value::make_string(direction));
    rec.emplace("valid", json::Value::make_bool(valid));
    if (!note.empty()) {
      rec.emplace("note", json::Value::make_string(note));
    }
    records_.push_back(json::Value::make_object(std::move(rec)));
  }

  std::size_t size() const { return records_.size(); }

  json::Value to_value() const {
    std::map<std::string, json::Value> generated;
    generated.emplace("date", json::Value::make_string(today_utc()));
    generated.emplace("generator", json::Value::make_string(generator_));
    const char* commit = std::getenv("ADSD_COMMIT");
    generated.emplace("commit", json::Value::make_string(
                                    commit != nullptr ? commit : "unknown"));

    std::map<std::string, json::Value> host;
    host.emplace("hardware_concurrency",
                 json::Value::make_number(static_cast<double>(
                     std::thread::hardware_concurrency())));
    host.emplace("multi_core", json::Value::make_bool(multi_core_host()));
    if (!run_id_.empty()) {
      host.emplace("run_id", json::Value::make_string(run_id_));
    }

    std::map<std::string, json::Value> root;
    root.emplace("schema", json::Value::make_string("adsd-bench-v2"));
    root.emplace("generated", json::Value::make_object(std::move(generated)));
    root.emplace("host", json::Value::make_object(std::move(host)));
    root.emplace("records", json::Value::make_array(records_));
    return json::Value::make_object(std::move(root));
  }

  void write(std::ostream& out) const {
    json::write(out, to_value());
    out << '\n';
  }

 private:
  static std::string today_utc() {
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", tm.tm_year + 1900,
                  tm.tm_mon + 1, tm.tm_mday);
    return buf;
  }

  std::string generator_;
  std::string run_id_;
  std::vector<json::Value> records_;
};

/// Writes the artifacts requested via --trace / --report / --qor /
/// --metrics to the given files, in exactly the formats adsd_cli emits
/// (Chrome trace_event timeline, run report, qor.json, Prometheus text or
/// adsd-metrics-v1 JSON per --metrics-format) — tools/trace_summary reads
/// and validates the first two, tools/bench_diff compares qor.json files,
/// tools/metrics_summary validates the metrics exposition. With --obs-dir,
/// the full bundle (trace.json, report.json, qor.json, metrics.prom,
/// metrics.json, flight.json — next to the logger's log.jsonl) lands under
/// <obs-dir>/<run_id>/ regardless of the per-artifact flags, each artifact
/// stamped with the same run_id.
inline void write_run_artifacts(const CliArgs& args, const RunContext& ctx) {
  auto open = [&](const char* flag) {
    const std::string path = args.get_string(flag, "");
    std::ofstream f(path);
    if (!f) {
      throw std::runtime_error(std::string("cannot open --") + flag +
                               " file '" + path + "'");
    }
    std::cout << "wrote " << path << "\n";
    return f;
  };
  if (args.has("trace")) {
    auto f = open("trace");
    ctx.tracer()->write_chrome_json(f);
  }
  if (args.has("report")) {
    auto f = open("report");
    ctx.tracer()->write_report_json(f);
  }
  if (args.has("qor")) {
    auto f = open("qor");
    ctx.qor()->write_json(f);
  }
  if (args.has("metrics")) {
    const std::string fmt = args.get_string("metrics-format", "prom");
    if (fmt != "prom" && fmt != "json") {
      throw std::invalid_argument("--metrics-format must be prom or json");
    }
    ctx.flush_drop_metrics();
    auto f = open("metrics");
    if (fmt == "json") {
      MetricsRegistry::global().write_json(f);
    } else {
      MetricsRegistry::global().write_prometheus(f);
    }
  }

  const std::string bundle = obs_bundle_dir(args, ctx);
  if (bundle.empty()) {
    return;
  }
  // Drain pending log records first so the log_* self-metrics in the
  // snapshot below cover everything emitted up to this point.
  if (Logger* log = Logger::armed()) {
    log->flush();
  }
  ctx.flush_drop_metrics();
  const std::filesystem::path dir(bundle);
  auto open_in = [&](const char* file) {
    const std::string path = (dir / file).string();
    std::ofstream f(path);
    if (!f) {
      throw std::runtime_error("cannot open obs-bundle file '" + path + "'");
    }
    std::cout << "wrote " << path << "\n";
    return f;
  };
  {
    auto f = open_in("trace.json");
    ctx.tracer()->write_chrome_json(f);
  }
  {
    auto f = open_in("report.json");
    ctx.tracer()->write_report_json(f);
  }
  {
    auto f = open_in("qor.json");
    ctx.qor()->write_json(f);
  }
  {
    auto f = open_in("metrics.prom");
    MetricsRegistry::global().write_prometheus(f);
  }
  {
    auto f = open_in("metrics.json");
    MetricsRegistry::global().write_json(f);
  }
  {
    auto f = open_in("flight.json");
    FlightRecorder::global().write_json(f, "bundle");
  }
}

}  // namespace adsd::bench
