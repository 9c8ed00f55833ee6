#include "flow.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "core/solver_registry.hpp"
#include "funcs/registry.hpp"

namespace perfbench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

const std::vector<std::string> kTable1Functions = {"cos", "tan", "exp",
                                                   "ln",  "erf", "denoise"};

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w(3);
    // Fig. 4 shape: 128x512 matrices, 768-spin COPs. P = 4 is the smallest
    // P that gives each of the 4 workers a candidate; one pass already
    // takes about a minute on a 4-CPU host.
    w[0].name = "fig4_n16";
    w[0].n = 16;
    w[0].free_size = 7;
    w[0].functions = {"cos", "multiplier", "brent-kung"};
    w[0].partitions = 4;
    // Table 1 shape: 16x32 matrices, 64-spin COPs; P = 64 fills one pack
    // per output-round, the regime where packing wins.
    w[1].name = "table1_n9";
    w[1].n = 9;
    w[1].m = 9;
    w[1].free_size = 4;
    w[1].functions = kTable1Functions;
    w[1].partitions = 64;
    w[1].subseeds = 6;
    // The same COP and engine layers under the separate-mode objective,
    // with BDD screening of 4P candidates, on the serial path. Its passes
    // take about three times as long, so it draws fewer sub-seeds.
    w[2] = w[1];
    w[2].name = "sep_screen_n9";
    w[2].mode = adsd::DecompMode::kSeparate;
    w[2].screen_factor = 4;
    w[2].workers = 1;
    w[2].subseeds = 2;
    return w;
  }();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

const char* variant_name(std::size_t variant) {
  static const char* const kNames[kVariants] = {"prop", "pack", "greedy"};
  return kNames[variant];
}

std::string variant_spec(const Workload& w, std::size_t variant) {
  switch (variant) {
    case kProp:
      return "prop";
    case kPack:
      return "prop,pack=" + std::to_string(w.partitions);
    default:
      return "dalta";
  }
}

std::unique_ptr<adsd::CoreCopSolver> make_solver(const std::string& spec,
                                                 unsigned n) {
  const adsd::SolverRegistry& registry = adsd::SolverRegistry::global();
  auto [name, config] = adsd::SolverRegistry::parse_spec(spec);
  const adsd::SolverRegistry::Entry* entry = registry.find(name);
  if (entry != nullptr && !config.has("n") &&
      std::find(entry->keys.begin(), entry->keys.end(), "n") !=
          entry->keys.end()) {
    config.set("n", std::to_string(n));
  }
  return registry.make(name, config);
}

adsd::DaltaParams dalta_params(const Workload& w) {
  adsd::DaltaParams params;
  params.free_size = w.free_size;
  params.num_partitions = w.partitions;
  params.rounds = w.rounds;
  params.mode = w.mode;
  params.screen_factor = w.screen_factor;
  return params;
}

std::uint64_t subseed(std::uint64_t seed, std::size_t j) {
  if (j == 0) {
    return seed;  // sub-seed 0 is the seed itself, as `adsd_cli --seed` runs
  }
  // splitmix64 finalizer over (seed, j)
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(j);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::unique_ptr<adsd::RunContext> make_context(const Workload& w,
                                               std::uint64_t dalta_seed,
                                               bool trace) {
  adsd::RunContext::Options opts;
  opts.seed = dalta_seed;
  opts.threads = w.workers;
  opts.trace = trace;
  auto ctx = std::make_unique<adsd::RunContext>(opts);
  ctx->pool();  // the pool is built lazily; start it here
  return ctx;
}

Setup make_setup(const Workload& w, std::uint64_t seed) {
  Setup s;
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::string& fn : w.functions) {
    const unsigned m = w.m > 0 ? w.m : adsd::paper_output_bits(fn, w.n);
    s.tables.push_back(adsd::make_benchmark_table(fn, w.n, m));
  }
  s.table_s = seconds_since(t0);
  for (std::size_t v = 0; v < kVariants; ++v) {
    s.solvers[v] = make_solver(variant_spec(w, v), w.n);
  }
  s.ctx = make_context(w, subseed(seed, 0));
  s.total_s = seconds_since(t0);
  return s;
}

void OpCount::fail(std::string what) {
  ++failed;
  if (errors.size() < 8) {
    errors.push_back(std::move(what));
  }
}

std::string verify_result(const adsd::TruthTable& exact,
                          const adsd::InputDistribution& dist,
                          const adsd::DaltaResult& r, SpanLog* log) {
  Span lut;
  lut.name = "verify/lut";
  lut.start_s = log != nullptr ? log->now() : 0.0;
  const bool lut_ok = r.to_lut_network().to_truth_table() == r.approx;
  Span med;
  med.name = "verify/med";
  med.start_s = log != nullptr ? log->now() : 0.0;
  const double recomputed_med = adsd::mean_error_distance(exact, r.approx, dist);
  const double recomputed_er = adsd::error_rate(exact, r.approx, dist);
  if (log != nullptr) {
    med.end_s = log->now();
    lut.end_s = med.start_s;
    log->record(std::move(lut));
    log->record(std::move(med));
  }
  if (!lut_ok) {
    return "LUT network does not reproduce the approximation";
  }
  if (recomputed_med != r.med || recomputed_er != r.error_rate) {
    return "recomputed MED or error rate differs from the reported one";
  }
  return "";
}

Pass run_pass(const Workload& w, const std::vector<adsd::TruthTable>& tables,
              const adsd::InputDistribution& dist, const PassOptions& opts,
              const adsd::RunContext& ctx, OpCount& ops) {
  Pass pass;
  pass.results.resize(w.functions.size());
  pass.function_wall_s.resize(w.functions.size());
  pass.function_cpu_s.resize(w.functions.size());
  const adsd::DaltaParams params = dalta_params(w);
  for (std::size_t f = 0; f < w.functions.size(); ++f) {
    const SpanLog::Scope function_scope(opts.log, "function:" + w.functions[f]);
    for (std::size_t v = 0; v < kVariants; ++v) {
      const adsd::CoreCopSolver* solver = opts.solvers[v];
      if (solver == nullptr) {
        continue;
      }
      const SpanLog::Scope variant_scope(
          opts.log, std::string("variant:") + variant_name(v));
      const std::string label = w.functions[f] + "/" + variant_name(v);
      // Results this variant must reproduce: its own reference, looped
      // prop's for the packed variant, and its own first repeat.
      std::vector<std::pair<const adsd::DaltaResult*, const char*>> expected;
      if (v == kPack && pass.results[f][kProp].has_value()) {
        expected.emplace_back(&*pass.results[f][kProp], "looped prop");
      }
      if (opts.reference != nullptr) {
        const auto& ref = opts.reference->results[f][v == kPack ? kProp : v];
        if (ref.has_value()) {
          expected.emplace_back(&*ref, "the reference run");
        }
      }
      std::vector<double> walls;
      std::vector<double> cpus;
      for (std::size_t rep = 0; rep < std::max<std::size_t>(1, opts.repeats[v]);
           ++rep) {
        ++ops.attempted;
        try {
          std::optional<adsd::DaltaResult> res;
          const auto t0 = std::chrono::steady_clock::now();
          const double cpu0 = process_cpu_s();
          {
            const SpanLog::Scope run_scope(opts.log, "run_dalta");
            res = adsd::run_dalta(tables[f], dist, params, *solver, ctx);
          }
          cpus.push_back(process_cpu_s() - cpu0);
          walls.push_back(seconds_since(t0));

          std::string error = verify_result(tables[f], dist, *res, opts.log);
          for (const auto& [want, what] : expected) {
            if (!error.empty()) {
              break;
            }
            const std::string diff = result_difference(*res, *want);
            if (!diff.empty()) {
              error = std::string("differs from ") + what + ": " + diff;
            }
          }
          if (!error.empty()) {
            ops.fail(label + ": " + error);
          } else if (!pass.results[f][v].has_value()) {
            pass.results[f][v] = std::move(res);
            expected.emplace_back(&*pass.results[f][v], "its first run");
          }
        } catch (const std::exception& e) {
          ops.fail(label + ": threw: " + e.what());
        }
      }
      pass.function_wall_s[f][v] = median(std::move(walls));
      pass.function_cpu_s[f][v] = median(std::move(cpus));
      pass.wall_s[v] += pass.function_wall_s[f][v];
      pass.cpu_s[v] += pass.function_cpu_s[f][v];
    }
    if (opts.after_function) {
      opts.after_function();
    }
  }
  return pass;
}

}  // namespace perfbench
