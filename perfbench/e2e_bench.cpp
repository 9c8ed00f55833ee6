// End-to-end benchmark of the DALTA flow on the paper's Fig. 4 and Table 1
// shapes. One invocation runs one workload:
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--spans-out <file>] [--span-check]
//
// --trace 0 runs the three solver variants with every recorder off and
// reports the end-to-end metrics; --trace 1 runs them again through the
// TimedSolver decorator and reports the per-layer metrics. --span-check
// additionally arms the library's own TraceRecorder on the traced run and
// compares the decorator's solve p50 with the run report's
// "core/solve/ising-bsb" p50. The last line of standard output is the
// result object {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>
#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "boolean/boolean_matrix.hpp"
#include "core/column_cop.hpp"
#include "core/partition_screen.hpp"
#include "flow.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "measure.hpp"
#include "support/cpu_features.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace {

using namespace perfbench;

constexpr std::size_t kSetupReps = 25;
// More set-ups after every function of every timed pass: a host's speed
// shifts within seconds, so setup_s is a median over the whole run rather
// than over the moment before it.
constexpr std::size_t kSetupRepsPerFunction = 2;
// The greedy pass is short enough that one run per function is mostly
// timer noise; its times are the medians of this many back-to-back runs.
constexpr std::size_t kGreedyRepeats = 5;
constexpr std::size_t kScreenFactor = 4;  // screen.ms replays 4P -> P

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  std::string spans_out;
  bool span_check = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--span-check") {
      a.span_check = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(a.seconds >= 0.0)) {
    throw std::invalid_argument("--seconds must be >= 0");
  }
  return a;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = adsd::json::dump(adsd::json::Value::make_string(s));
  out.pop_back();  // dump() ends the document with a newline
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

void print_result(bool correct, const OpCount& ops,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << ops.attempted << ", \"failed\": " << ops.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << quoted(metrics[i].name)
        << ": {\"value\": " << number(metrics[i].value)
        << ", \"unit\": " << quoted(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << std::left << std::setw(28) << m.name << " "
              << std::setprecision(6) << m.value << " " << m.unit << "\n";
  }
}

/// Re-runs the per-output layers of one committed result outside the
/// framework: COP build (indexer, Boolean matrix, cell probabilities, the
/// joint D scatter, ColumnCop), Ising build, and BDD screening of 4P random
/// partitions down to P. Each call is one span under the current scope.
void replay_layers(const Workload& w, const adsd::TruthTable& exact,
                   const adsd::InputDistribution& dist,
                   const adsd::DaltaResult& r, std::uint64_t seed,
                   SpanLog& log) {
  const unsigned n = exact.num_inputs();
  const unsigned m = exact.num_outputs();
  const std::uint64_t patterns = exact.num_patterns();
  const bool joint = w.mode == adsd::DecompMode::kJoint;
  std::vector<std::int64_t> exact_words(patterns);
  std::vector<std::int64_t> approx_words(patterns);
  for (std::uint64_t x = 0; x < patterns; ++x) {
    exact_words[x] = static_cast<std::int64_t>(exact.word(x));
    approx_words[x] = static_cast<std::int64_t>(r.approx.word(x));
  }
  std::optional<adsd::BooleanMatrix> matrix;
  std::vector<double> probs;
  std::vector<double> d;
  std::vector<double> d_by_input(joint ? patterns : 0);
  adsd::Rng rng(subseed(seed, 0x5c7ee7));
  std::size_t sink = 0;
  for (unsigned kk = 0; kk < m; ++kk) {
    const unsigned k = m - 1 - kk;
    const adsd::InputPartition& part = r.outputs[k].partition;
    const std::int64_t weight = std::int64_t{1} << k;
    if (joint) {
      const adsd::BitVec& gk = r.approx.output(k);
      for (std::uint64_t x = 0; x < patterns; ++x) {
        d_by_input[x] = static_cast<double>(
            approx_words[x] - (gk.get(x) ? weight : 0) - exact_words[x]);
      }
    }

    Span build;
    build.name = "replay/cop_build";
    build.start_s = log.now();
    const adsd::PartitionIndexer idx(part);
    if (!matrix) {
      matrix.emplace(part.num_rows(), part.num_cols());
    }
    adsd::BooleanMatrix::from_function_into(exact, k, part, idx, *matrix);
    adsd::matrix_probs_into(dist, part, idx, probs);
    std::optional<adsd::ColumnCop> cop;
    if (joint) {
      const std::size_t c = part.num_cols();
      d.resize(part.num_rows() * c);
      for (std::uint64_t x = 0; x < patterns; ++x) {
        d[idx.row_of(x) * c + idx.col_of(x)] = d_by_input[x];
      }
      cop.emplace(adsd::ColumnCop::joint(*matrix, probs, d,
                                         static_cast<double>(weight)));
    } else {
      cop.emplace(adsd::ColumnCop::separate(*matrix, probs));
    }
    build.end_s = log.now();
    log.record(std::move(build));

    Span ising;
    ising.name = "replay/ising_build";
    ising.start_s = log.now();
    const adsd::IsingModel model = cop->to_ising();
    ising.end_s = log.now();
    log.record(std::move(ising));
    sink += model.num_spins();

    std::vector<adsd::InputPartition> candidates;
    for (std::size_t i = 0; i < kScreenFactor * w.partitions; ++i) {
      candidates.push_back(adsd::InputPartition::random(n, w.free_size, rng));
    }
    Span screen;
    screen.name = "replay/screen";
    screen.start_s = log.now();
    const adsd::PartitionScreener screener(exact.output(k), n);
    sink += screener.screen(std::move(candidates), w.partitions).size();
    screen.end_s = log.now();
    log.record(std::move(screen));
  }
  if (sink == 0) {
    throw std::logic_error("replay produced no work");
  }
}

/// Solve statistics of one variant in a traced run.
struct VariantLayers {
  std::size_t calls = 0;
  std::size_t members = 0;
  std::size_t iterations = 0;
  std::size_t early_stops = 0;
  double busy_s = 0.0;
  double cover_s = 0.0;
  double run_s = 0.0;  // summed traced run_dalta wall
  std::vector<double> solve_ms;
};

std::array<VariantLayers, kVariants> variant_layers(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != kNoParent) {
      children[spans[i].parent].push_back(i);
    }
  }
  std::array<VariantLayers, kVariants> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::size_t v = kVariants;
    for (std::size_t c = 0; c < kVariants; ++c) {
      if (spans[i].name == std::string("variant:") + variant_name(c)) {
        v = c;
      }
    }
    if (v == kVariants) {
      continue;
    }
    VariantLayers& layer = out[v];
    for (const std::size_t run : children[i]) {
      if (spans[run].name != "run_dalta") {
        continue;
      }
      std::vector<std::pair<double, double>> intervals;
      for (const std::size_t s : children[run]) {
        const Span& solve = spans[s];
        if (solve.members == 0) {
          continue;
        }
        ++layer.calls;
        layer.members += solve.members;
        layer.iterations += solve.iterations;
        layer.early_stops += solve.early_stops;
        layer.busy_s += solve.duration_s();
        layer.solve_ms.push_back(1e3 * solve.duration_s());
        intervals.emplace_back(solve.start_s, solve.end_s);
      }
      layer.cover_s += union_length(std::move(intervals));
      layer.run_s += spans[run].duration_s();
    }
  }
  return out;
}

double median_ms(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> ms;
  for (const Span& s : spans) {
    if (s.name == name) {
      ms.push_back(1e3 * s.duration_s());
    }
  }
  return median(std::move(ms));
}

std::vector<Metric> layer_metrics(const Workload& w,
                                  const std::vector<Span>& spans,
                                  double trace_overhead, double table_s) {
  const std::array<VariantLayers, kVariants> layers = variant_layers(spans);
  std::vector<Metric> out;
  for (std::size_t v = 0; v < kVariants; ++v) {
    const VariantLayers& l = layers[v];
    const std::string p = variant_name(v);
    const Tail tail = tail_percentile(l.solve_ms);
    out.push_back({p + ".solve.calls", static_cast<double>(l.calls), "count"});
    out.push_back({p + ".solve.busy_s", l.busy_s, "s"});
    out.push_back({p + ".solve.ms_p50", median(l.solve_ms), "ms"});
    out.push_back({p + ".solve.ms_tail", tail.value, "ms"});
    out.push_back({p + ".solve.iters", static_cast<double>(l.iterations),
                   "count"});
    if (v != kGreedy) {  // the greedy core has no dynamic stop
      out.push_back({p + ".solve.early_stop_frac",
                     l.members > 0 ? static_cast<double>(l.early_stops) /
                                         static_cast<double>(l.members)
                                   : 0.0,
                     "ratio"});
    }
    out.push_back({p + ".solve.cover_s", l.cover_s, "s"});
    out.push_back({p + ".pool.busy_frac",
                   l.run_s > 0.0 ? l.busy_s / (static_cast<double>(w.workers) *
                                               l.run_s)
                                 : 0.0,
                   "ratio"});
    out.push_back({p + ".dalta.self_s", l.run_s - l.cover_s, "s"});
    std::cout << p << ".solve.ms_tail is p" << std::setprecision(4)
              << tail.percentile << " over " << l.solve_ms.size()
              << " calls, " << tail.beyond << " beyond it\n";
  }
  const VariantLayers& pack = layers[kPack];
  out.push_back({"pack.batch.members",
                 pack.calls > 0 ? static_cast<double>(pack.members) /
                                      static_cast<double>(pack.calls)
                                : 0.0,
                 "count"});
  out.push_back({"pack.ms_per_member",
                 pack.members > 0
                     ? 1e3 * pack.busy_s / static_cast<double>(pack.members)
                     : 0.0,
                 "ms"});
  out.push_back({"cop.build_ms", median_ms(spans, "replay/cop_build"), "ms"});
  out.push_back(
      {"ising.build_ms", median_ms(spans, "replay/ising_build"), "ms"});
  out.push_back({"screen.ms", median_ms(spans, "replay/screen"), "ms"});
  out.push_back({"med.eval_ms", median_ms(spans, "verify/med"), "ms"});
  out.push_back({"lut.verify_ms", median_ms(spans, "verify/lut"), "ms"});
  out.push_back({"funcs.table_s", table_s, "s"});
  out.push_back({"trace.overhead_frac", trace_overhead, "ratio"});
  return out;
}

/// The run report's p50 of the inner solver's own "core/solve/<name>"
/// spans, in ms; negative when the report has no such span.
double report_p50_ms(const adsd::RunContext& ctx, const std::string& path) {
  const adsd::json::Value report =
      adsd::json::parse(ctx.tracer()->report_json());
  const adsd::json::Value* span = report.at("spans").find(path);
  return span != nullptr ? 1e3 * span->at("p50_s").as_number() : -1.0;
}

/// CPUs this process may run on: its affinity mask, which reflects taskset
/// and container cpusets, else the core count.
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

/// Pins the calling thread to the `turn`-th CPU of `mask` (mod the number
/// of CPUs in it); a negative `turn` restores the whole mask.
void pin_caller(const cpu_set_t& mask, int turn) {
  cpu_set_t set = mask;
  if (turn >= 0) {
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) {
        cpus.push_back(c);
      }
    }
    CPU_ZERO(&set);
    CPU_SET(cpus[static_cast<std::size_t>(turn) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

/// What both modes of one invocation share.
struct Invocation {
  const Args& args;
  const Workload& w;
  const Setup& setup;
  const adsd::InputDistribution& dist;
  const std::vector<std::unique_ptr<adsd::RunContext>>& ctxs;
  std::array<const adsd::CoreCopSolver*, kVariants> solvers;
  OpCount& ops;
};

/// --trace 0: warm-up, then cycles of one pass per sub-seed with every
/// recorder off; returns the end-to-end metrics. `setup_s` holds the set-up
/// times taken before the run; more are added between functions.
std::vector<Metric> run_untraced(const Invocation& in,
                                 std::vector<double> setup_s) {
  const Workload& w = in.w;
  // Warm-up on the first function, checked and counted like any run but
  // not timed: the first calls pay for lazily built scratch buffers.
  {
    Workload first_function = w;
    first_function.functions.resize(1);
    PassOptions opts;
    opts.solvers = in.solvers;
    run_pass(first_function, {in.setup.tables[0]}, in.dist, opts, *in.ctxs[0],
             in.ops);
  }
  // Later cycles repeat the first one's inputs and must reproduce its
  // results; another cycle starts only while it still fits in --seconds.
  std::vector<Pass> first;
  std::vector<std::array<double, kVariants>> cycle_wall;
  std::vector<std::array<double, kVariants>> cycle_cpu;
  const auto start = std::chrono::steady_clock::now();
  double cycle_s = 0.0;
  // A serial workload's one busy thread would stay on one CPU for the whole
  // run; on a shared host each CPU's speed drifts on its own, so it moves to
  // the next usable CPU after every function instead.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  const bool rotate =
      w.workers == 1 && sched_getaffinity(0, sizeof(mask), &mask) == 0;
  int turn = 0;
  if (rotate) {
    pin_caller(mask, turn);
  }
  const auto between_functions = [&] {
    for (std::size_t rep = 0; rep < kSetupRepsPerFunction; ++rep) {
      setup_s.push_back(make_setup(w, in.args.seed).total_s);
    }
    if (rotate) {
      pin_caller(mask, ++turn);
    }
  };
  do {
    const auto cycle_start = std::chrono::steady_clock::now();
    std::array<double, kVariants> wall{};
    std::array<double, kVariants> cpu{};
    for (std::size_t j = 0; j < w.subseeds; ++j) {
      PassOptions opts;
      opts.solvers = in.solvers;
      opts.repeats[kGreedy] = kGreedyRepeats;
      opts.reference = first.size() == w.subseeds ? &first[j] : nullptr;
      opts.after_function = between_functions;
      Pass pass = run_pass(w, in.setup.tables, in.dist, opts, *in.ctxs[j],
                           in.ops);
      for (std::size_t v = 0; v < kVariants; ++v) {
        wall[v] += pass.wall_s[v] / static_cast<double>(w.subseeds);
        cpu[v] += pass.cpu_s[v] / static_cast<double>(w.subseeds);
      }
      if (first.size() < w.subseeds) {
        first.push_back(std::move(pass));
      }
    }
    cycle_wall.push_back(wall);
    cycle_cpu.push_back(cpu);
    cycle_s = seconds_since(cycle_start);
    std::cout << "cycle " << cycle_wall.size() << " per pass, wall / CPU: prop "
              << wall[kProp] << " / " << cpu[kProp] << " s, pack "
              << wall[kPack] << " / " << cpu[kPack] << " s, greedy "
              << wall[kGreedy] << " / " << cpu[kGreedy] << " s\n";
  } while (seconds_since(start) + cycle_s <= in.args.seconds);
  if (rotate) {
    pin_caller(mask, -1);
  }

  const auto median_over_cycles =
      [](const std::vector<std::array<double, kVariants>>& cycles) {
        std::array<double, kVariants> out{};
        for (std::size_t v = 0; v < kVariants; ++v) {
          std::vector<double> per_cycle;
          for (const auto& c : cycles) {
            per_cycle.push_back(c[v]);
          }
          out[v] = median(std::move(per_cycle));
        }
        return out;
      };
  const std::array<double, kVariants> wall = median_over_cycles(cycle_wall);
  const std::array<double, kVariants> cpu = median_over_cycles(cycle_cpu);
  double med_sum = 0.0;
  std::size_t med_count = 0;
  double ratio_sum = 0.0;
  std::size_t ratio_count = 0;
  for (std::size_t j = 0; j < first.size(); ++j) {
    for (std::size_t f = 0; f < w.functions.size(); ++f) {
      const auto& prop = first[j].results[f][kProp];
      const auto& greedy = first[j].results[f][kGreedy];
      const auto& fwall = first[j].function_wall_s[f];
      const auto& fcpu = first[j].function_cpu_s[f];
      std::cout << "seed " << subseed(in.args.seed, j) << " " << w.functions[f]
                << ", wall / CPU: prop " << fwall[kProp] << " / " << fcpu[kProp]
                << " s, pack " << fwall[kPack] << " / " << fcpu[kPack]
                << " s, greedy " << fwall[kGreedy] << " / " << fcpu[kGreedy]
                << " s";
      if (prop.has_value()) {
        med_sum += prop->med;
        ++med_count;
        std::cout << "; MED prop " << prop->med;
        if (greedy.has_value()) {
          std::cout << ", greedy " << greedy->med;
          if (greedy->med > 0.0) {
            ratio_sum += prop->med / greedy->med;
            ++ratio_count;
          }
        }
      }
      std::cout << "\n";
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::cout << "setup_s is the median of " << setup_s.size() << " set-ups\n";
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"prop_cpu_s", cpu[kProp], "s"},
      {"pack_cpu_s", cpu[kPack], "s"},
      {"greedy_cpu_s", cpu[kGreedy], "s"},
      {"prop_med", med_count > 0 ? med_sum / med_count : 0.0, "MED"},
      {"med_ratio", ratio_count > 0 ? ratio_sum / ratio_count : 0.0, "ratio"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
  };
  print_metrics(metrics);
  // Wall times follow whatever else the host runs, so they are printed but
  // not part of the result object.
  print_metrics({{"prop_wall_s", wall[kProp], "s"},
                 {"pack_wall_s", wall[kPack], "s"},
                 {"greedy_wall_s", wall[kGreedy], "s"},
                 {"fail_frac", in.ops.fail_frac(), "ratio"}});
  std::cout << std::left << std::setw(28) << "time_ratio" << " "
            << (wall[kGreedy] > 0.0 ? wall[kProp] / wall[kGreedy] : 0.0)
            << " ratio (prop / greedy wall; printed, not gated)\n";
  return metrics;
}

/// --trace 1: untraced references of the looped variants, then all three
/// variants through TimedSolver, then the layer replays; returns the
/// per-layer metrics and writes the spans to --spans-out.
std::vector<Metric> run_traced(const Invocation& in, double table_s) {
  const Workload& w = in.w;
  // The packed traced run is checked against looped prop, which it must
  // match bit for bit, so it needs no untraced run of its own.
  std::vector<Pass> reference;
  double untraced_prop_cpu_s = 0.0;
  for (std::size_t j = 0; j < w.subseeds; ++j) {
    PassOptions opts;
    opts.solvers = {in.solvers[kProp], nullptr, in.solvers[kGreedy]};
    reference.push_back(
        run_pass(w, in.setup.tables, in.dist, opts, *in.ctxs[j], in.ops));
    untraced_prop_cpu_s += reference.back().cpu_s[kProp];
  }
  double traced_prop_cpu_s = 0.0;

  std::unique_ptr<adsd::RunContext> armed;
  if (in.args.span_check) {
    armed = make_context(w, subseed(in.args.seed, 0), /*trace=*/true);
  }
  SpanLog log;
  const TimedSolver timed_prop(*in.solvers[kProp], log);
  const TimedSolver timed_pack(*in.solvers[kPack], log);
  const TimedSolver timed_greedy(*in.solvers[kGreedy], log);
  {
    const SpanLog::Scope workload_scope(&log, "workload:" + w.name);
    std::vector<Pass> traced;
    for (std::size_t j = 0; j < w.subseeds; ++j) {
      const SpanLog::Scope pass_scope(&log, "pass:" + std::to_string(j));
      PassOptions opts;
      opts.solvers = {&timed_prop, &timed_pack, &timed_greedy};
      opts.reference = &reference[j];
      opts.log = &log;
      const adsd::RunContext& ctx = armed ? *armed : *in.ctxs[j];
      traced.push_back(
          run_pass(w, in.setup.tables, in.dist, opts, ctx, in.ops));
      traced_prop_cpu_s += traced.back().cpu_s[kProp];
    }
    const SpanLog::Scope replay_scope(&log, "replay");
    for (std::size_t f = 0; f < w.functions.size(); ++f) {
      const auto& prop = traced[0].results[f][kProp];
      if (prop.has_value()) {
        const SpanLog::Scope function_scope(&log, "function:" + w.functions[f]);
        replay_layers(w, in.setup.tables[f], in.dist, *prop, in.args.seed,
                      log);
      }
    }
  }
  const std::vector<Span> spans = log.spans();
  const double trace_overhead =
      untraced_prop_cpu_s > 0.0 ? traced_prop_cpu_s / untraced_prop_cpu_s - 1.0
                                : 0.0;
  std::vector<Metric> metrics =
      layer_metrics(w, spans, trace_overhead, table_s);
  print_metrics(metrics);
  if (armed) {
    const std::string path = "core/solve/" + in.solvers[kProp]->name();
    const double ours = median(variant_layers(spans)[kProp].solve_ms);
    const double theirs = report_p50_ms(*armed, path);
    std::cout << "span check: decorator prop.solve.ms_p50 " << ours
              << " ms, report " << path << " p50 " << theirs << " ms, gap "
              << ours - theirs << " ms (" << 100.0 * (ours - theirs) / theirs
              << "%)\n";
  }
  if (!in.args.spans_out.empty()) {
    std::ofstream f(in.args.spans_out);
    if (!f) {
      throw std::runtime_error("cannot write spans to '" +
                               in.args.spans_out + "'");
    }
    log.write_json(f);
    std::cout << "wrote " << spans.size() << " spans to "
              << in.args.spans_out << "\n";
  }
  return metrics;
}

int run(const Args& args) {
  const Workload* found = find_workload(args.workload);
  if (found == nullptr) {
    std::string names;
    for (const Workload& w : workloads()) {
      names += " " + w.name;
    }
    std::cerr << "unknown workload '" << args.workload << "'; known:" << names
              << "\n";
    return 2;
  }
  Workload w = *found;
  if (args.span_check) {
    w.subseeds = 1;  // the report is compared against one context
  } else if (args.trace == 1) {
    // Per-layer numbers need fewer passes than the gated end-to-end ones;
    // half keeps a traced run (which also runs untraced references) about
    // as long as an untraced one.
    w.subseeds = (w.subseeds + 1) / 2;
  }
  const unsigned cpus = usable_cpus();
  if (cpus > 0 && w.workers > cpus) {
    std::cerr << "refusing to run " << w.name << ": it asks for " << w.workers
              << " pool workers but only " << cpus
              << " CPUs are available; the numbers would be oversubscribed\n";
    return 3;
  }

  std::cout << "== perfbench " << w.name << " seed=" << args.seed
            << " trace=" << args.trace << " seconds=" << args.seconds
            << " ==\n";
  std::cout << "workload n=" << w.n << " free=" << w.free_size << " mode="
            << (w.mode == adsd::DecompMode::kJoint ? "joint" : "separate")
            << " P=" << w.partitions << " R=" << w.rounds
            << " screen_factor=" << w.screen_factor
            << " workers=" << w.workers << " subseeds=" << w.subseeds
            << " functions=";
  for (std::size_t f = 0; f < w.functions.size(); ++f) {
    std::cout << (f == 0 ? "" : ",") << w.functions[f];
  }
  std::cout << "\n";

  // Set-up, several times; the last one is kept for the runs.
  std::vector<double> setup_s;
  std::vector<double> table_s;
  Setup setup;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    setup = Setup{};  // tear the previous pool down before timing anew
    setup = make_setup(w, args.seed);
    setup_s.push_back(setup.total_s);
    table_s.push_back(setup.table_s);
  }
  const adsd::InputDistribution dist = adsd::InputDistribution::uniform(w.n);
  std::vector<std::unique_ptr<adsd::RunContext>> ctxs;
  ctxs.push_back(std::move(setup.ctx));
  for (std::size_t j = 1; j < w.subseeds; ++j) {
    ctxs.push_back(make_context(w, subseed(args.seed, j)));
  }

  const adsd::kernels::SelectedForceKernel kernel =
      adsd::kernels::select_force_kernel(adsd::kernels::ForceKernel::kAuto,
                                         adsd::cpu_features(), false);
  std::cout << "provenance {\"cpus\": " << cpus
            << ", \"cpu_model\": " << quoted(cpu_model())
            << ", \"force_kernel\": " << quoted(kernel.name)
            << ", \"pool_workers\": " << w.workers
            << ", \"seed\": " << args.seed
            << ", \"commit\": " << quoted(args.commit) << ", \"run_ids\": [";
  for (std::size_t j = 0; j < ctxs.size(); ++j) {
    std::cout << (j == 0 ? "" : ", ") << quoted(ctxs[j]->run_id());
  }
  std::cout << "]}\n";

  OpCount ops;
  const Invocation in{args, w, setup, dist, ctxs,
                      {setup.solvers[kProp].get(), setup.solvers[kPack].get(),
                       setup.solvers[kGreedy].get()},
                      ops};
  const std::vector<Metric> metrics = args.trace == 0
                                          ? run_untraced(in, setup_s)
                                          : run_traced(in, median(table_s));
  for (const std::string& e : ops.errors) {
    std::cerr << "FAILED " << e << "\n";
  }
  bool finite = true;
  for (const Metric& m : metrics) {
    finite = finite && std::isfinite(m.value);
  }
  const bool correct = ops.failed == 0 && ops.attempted > 0 && finite;
  print_result(correct, ops, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
}
