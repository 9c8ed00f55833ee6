#include "core/cop_solvers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "ising/exhaustive.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace adsd {

namespace {

ColumnSetting random_setting(std::size_t rows, std::size_t cols, Rng& rng) {
  ColumnSetting s;
  s.v1 = BitVec(rows);
  s.v2 = BitVec(rows);
  s.t = BitVec(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    s.v1.set(i, rng.next_bool());
    s.v2.set(i, rng.next_bool());
  }
  for (std::size_t j = 0; j < cols; ++j) {
    s.t.set(j, rng.next_bool());
  }
  return s;
}

/// Scalar anti-collapse intervention after a Theorem-3 reset that landed
/// in a degenerate state (Sec. 3.3.2): re-derives the setting from the
/// oscillator signs, re-seeds the unused pattern's oscillators with the
/// exact column worst served by the current solution, recomputes the
/// optimal T, and writes the T oscillators back. Only degenerate resets
/// take this O(rows * cols) path; the common case is handled by
/// ColumnCop::reset_optimal_t_planes().
void anti_collapse_intervene(const ColumnCop& cop, std::span<double> x,
                             std::span<double> y) {
  const std::size_t r = cop.rows();
  const std::size_t c = cop.cols();
  ColumnSetting s;
  s.v1 = BitVec(r);
  s.v2 = BitVec(r);
  s.t = BitVec(c);
  for (std::size_t i = 0; i < r; ++i) {
    s.v1.set(i, x[cop.v1_spin(i)] >= 0.0);
    s.v2.set(i, x[cop.v2_spin(i)] >= 0.0);
  }
  cop.reset_optimal_t(s);

  const std::size_t on_pattern2 = s.t.count();
  const BooleanMatrix& m = cop.exact_matrix();
  double worst = -1.0;
  std::size_t worst_col = 0;
  for (std::size_t j = 0; j < c; ++j) {
    double cost = 0.0;
    for (std::size_t i = 0; i < r; ++i) {
      cost += cop.cell_cost(i, j, s.t.get(j) ? s.v2.get(i) : s.v1.get(i));
    }
    if (cost > worst) {
      worst = cost;
      worst_col = j;
    }
  }
  const bool reseed_v2 = on_pattern2 == 0 || s.v1 == s.v2;
  for (std::size_t i = 0; i < r; ++i) {
    const bool bit = m.at(i, worst_col);
    const std::size_t idx = reseed_v2 ? cop.v2_spin(i) : cop.v1_spin(i);
    x[idx] = bit ? 1.0 : -1.0;
    y[idx] = 0.0;
    if (reseed_v2) {
      s.v2.set(i, bit);
    } else {
      s.v1.set(i, bit);
    }
  }
  cop.reset_optimal_t(s);

  for (std::size_t j = 0; j < c; ++j) {
    const std::size_t idx = cop.t_spin(j);
    x[idx] = s.t.get(j) ? 1.0 : -1.0;
    y[idx] = 0.0;
  }
}

/// The Theorem-3 feedback closure (Sec. 3.3.2): one plane sweep computes
/// the optimal column types and pins the T oscillators before the
/// integration continues; a reset that landed degenerate takes the scalar
/// anti-collapse re-seeding path.
SbSampleHook make_theorem3_hook(const ColumnCop& cop, const RunContext& ctx,
                                bool anti_collapse) {
  return [&cop, &ctx, anti_collapse](std::span<double> x,
                                     std::span<double> y) {
    bool degenerate = false;
    cop.reset_optimal_t_planes(x, y, anti_collapse ? &degenerate : nullptr);
    qor_add(ctx.qor(), "ising/theorem3/resets", 1.0);
    if (MetricsRegistry* m = ctx.metrics()) {
      m->counter("theorem3_resets_total").add(1);
    }
    if (!anti_collapse) {
      return;
    }
    if (degenerate) {
      anti_collapse_intervene(cop, x, y);
      qor_add(ctx.qor(), "ising/theorem3/anti_collapse", 1.0);
      if (MetricsRegistry* m = ctx.metrics()) {
        m->counter("theorem3_anti_collapse_total").add(1);
      }
    }
    trace_counter(ctx.tracer(), "ising/theorem3/degenerate",
                  degenerate ? 1.0 : 0.0);
  };
}

/// Symmetry-breaking start (Options::column_seed_init): V1/V2 oscillators
/// at +-0.1 spelling the two dominant exact columns, plus the refined
/// incumbent those columns alternate to — bSB's answer replaces it only
/// when strictly better.
struct WarmStart {
  std::vector<double> positions;  // empty when seeding is disabled
  ColumnSetting incumbent;
  double objective = 0.0;
  bool have = false;
};

WarmStart column_seed_warm_start(const ColumnCop& cop) {
  WarmStart warm;
  const std::size_t r = cop.rows();
  const auto [col1, col2] = dominant_column_pair(cop.exact_matrix());
  warm.positions.assign(cop.num_spins(), 0.0);
  for (std::size_t i = 0; i < r; ++i) {
    warm.positions[cop.v1_spin(i)] = col1.get(i) ? 0.1 : -0.1;
    warm.positions[cop.v2_spin(i)] = col2.get(i) ? 0.1 : -0.1;
  }
  ColumnSetting incumbent;
  incumbent.v1 = col1;
  incumbent.v2 = col2;
  incumbent.t = BitVec(cop.cols());
  warm.objective = alternate_to_fixpoint(cop, incumbent, 8).best;
  warm.incumbent = std::move(incumbent);
  warm.have = true;
  return warm;
}

/// Final Theorem-3 polish of one decoded candidate plus its objective. The
/// polish delta (pre - post objective) is recorded only with QoR armed;
/// the extra evaluations read state only, so the off path is untouched.
double polish_and_score(const ColumnCop& cop, const RunContext& ctx,
                        ColumnSetting& s, bool final_polish) {
  if (final_polish) {
    if (QorRecorder* q = ctx.qor()) {
      const double pre = cop.objective(s);
      cop.reset_optimal_t(s);
      q->sample("ising/theorem3/polish_delta", pre - cop.objective(s));
    } else {
      cop.reset_optimal_t(s);
    }
  }
  return cop.objective(s);
}

/// The full bSB core solve (Theorem-3 feedback, warm incumbent, restarts,
/// final polish) as a free function, so IsingCoreSolver and
/// PackedCoreCopSolver share one implementation.
ColumnSetting ising_core_solve(const ColumnCop& cop, const RunContext& ctx,
                               std::uint64_t seed, CoreSolveStats* stats,
                               const IsingCoreSolver::Options& options) {
  IsingModel model = cop.to_ising();

  SbSampleHook hook;
  if (options.use_theorem3) {
    hook = make_theorem3_hook(cop, ctx, options.anti_collapse);
  }

  ColumnSetting best;
  double best_obj = 0.0;
  std::size_t total_iters = 0;
  bool any_early = false;
  bool have_best = false;

  WarmStart warm;
  if (options.column_seed_init) {
    warm = column_seed_warm_start(cop);
    best = std::move(warm.incumbent);
    best_obj = warm.objective;
    have_best = true;
  }

  const std::size_t restarts = std::max<std::size_t>(1, options.restarts);
  const char* restart_span_name = "ising/bsb/restart";
  const char* engine_metric_label = "sb";  // matches run_engine's label
  switch (options.engine) {
    case IsingEngineKind::kSa:
      restart_span_name = "ising/sa/restart";
      engine_metric_label = "sa";
      break;
    case IsingEngineKind::kDoch:
      restart_span_name = "ising/doch/restart";
      engine_metric_label = "doch";
      break;
    case IsingEngineKind::kBsb:
      break;
  }
  for (std::size_t attempt = 0; attempt < restarts; ++attempt) {
    // One trace span per restart, so each restart's energy trajectory is a
    // separate segment of the flame graph.
    const TraceSpan restart_span(ctx.tracer(), restart_span_name);
    if (MetricsRegistry* m = ctx.metrics()) {
      m->counter("engine_restarts_total", {{"engine", engine_metric_label}})
          .add();
    }
    const std::uint64_t attempt_seed = seed + 0x9e3779b9u * attempt;
    // First attempt runs from the informed seed; further restarts explore
    // from the plain start with fresh momenta / noise / kicks.
    const bool use_warm = attempt == 0 && !warm.positions.empty();
    IsingSolveResult res;
    switch (options.engine) {
      case IsingEngineKind::kBsb: {
        SbParams params = options.sb;
        params.seed = attempt_seed;
        if (use_warm) {
          params.initial_positions = warm.positions;
        }
        res = solve_sb(model, params, hook, &ctx);
        break;
      }
      case IsingEngineKind::kSa: {
        // Scalar spin-flip dynamics: warm *positions* and the Theorem-3
        // hook don't apply — SA has no oscillator planes — but the warm
        // incumbent and final polish still do.
        SaParams params = options.sa;
        params.seed = attempt_seed;
        res = solve_sa(model, params, &ctx);
        break;
      }
      case IsingEngineKind::kDoch: {
        DochParams params = options.doch;
        params.seed = attempt_seed;
        if (use_warm) {
          params.initial_positions = warm.positions;
          // A full-amplitude kick would drown the ±0.1 warm pattern; keep
          // the first attempt in the seed's basin.
          params.init_amp = std::min(params.init_amp, 0.1);
        }
        res = solve_doch(model, params, hook, &ctx);
        break;
      }
    }
    total_iters += res.iterations;
    any_early = any_early || res.stopped_early;

    ColumnSetting s = cop.decode(res.spins);
    const double obj = polish_and_score(cop, ctx, s, options.final_polish);
    if (!have_best || obj < best_obj) {
      best = std::move(s);
      best_obj = obj;
      have_best = true;
    }
    if (ctx.expired()) {
      any_early = true;
      break;
    }
  }

  if (stats != nullptr) {
    stats->objective = best_obj;
    stats->iterations = total_iters;
    stats->stopped_early = any_early;
    stats->proven_optimal = false;
  }
  return best;
}

}  // namespace

FixpointRun alternate_to_fixpoint(const ColumnCop& cop, ColumnSetting& s,
                                  std::size_t max_sweeps) {
  FixpointRun run;
  run.best = cop.objective(s);
  run.last = run.best;
  while (run.sweeps < max_sweeps) {
    cop.reset_optimal_t(s);
    const bool v_moved = cop.reset_optimal_v(s);
    ++run.sweeps;
    run.last = cop.objective(s);
    if (run.last >= run.best - 1e-15) {
      run.best = std::min(run.best, run.last);
      break;
    }
    run.best = run.last;
    if (!v_moved) {
      break;  // (T, V) is a fixpoint: the next sweep would rebuild it
    }
  }
  return run;
}

ColumnSetting CoreCopSolver::solve(const ColumnCop& cop, const RunContext& ctx,
                                   std::uint64_t seed,
                                   CoreSolveStats* stats) const {
  CoreSolveStats local;
  CoreSolveStats* out = stats != nullptr ? stats : &local;
  // The span name is composed only when a tracer is armed.
  TraceSpan trace_span;
  if (TraceRecorder* tracer = ctx.tracer()) {
    trace_span = TraceSpan(tracer, "core/solve/" + name());
  }
  const Timer solve_timer;
  ColumnSetting s = do_solve(cop, ctx, seed, out);
  if (MetricsRegistry* m = ctx.metrics()) {
    // Solver-level latency (restarts + polish included, unlike the
    // per-engine-run solve_latency_us) and the cross-solve cadence.
    m->counter("core_solves_total", {{"solver", name()}}).add();
    m->counter("core_iterations_total", {{"solver", name()}})
        .add(out->iterations);
    if (out->stopped_early) {
      m->counter("core_early_stops_total", {{"solver", name()}}).add();
    }
    m->histogram("core_solve_latency_us", {{"solver", name()}})
        .record(solve_timer.seconds() * 1e6);
  }
  // Per-solver objective distribution; guarded on the pointer because the
  // sample name is built by concatenation.
  if (QorRecorder* q = ctx.qor()) {
    q->sample("core/objective/" + name(), out->objective);
  }
  return s;
}

std::vector<ColumnSetting> CoreCopSolver::solve_batch(
    std::span<const ColumnCop> cops, const RunContext& ctx,
    std::span<const std::uint64_t> seeds,
    std::vector<CoreSolveStats>* stats) const {
  if (cops.size() != seeds.size()) {
    throw std::invalid_argument(
        "CoreCopSolver::solve_batch: one seed per instance required");
  }
  std::vector<ColumnSetting> out(cops.size());
  std::vector<CoreSolveStats> local(cops.size());
  if (!batched()) {
    // Unbatched solvers get the exact caller-side loop, per-solve spans
    // and all, so feeding a batch is never a behavior change.
    for (std::size_t i = 0; i < cops.size(); ++i) {
      out[i] = solve(cops[i], ctx, seeds[i], &local[i]);
    }
  } else if (!cops.empty()) {
    TraceSpan trace_span;
    if (TraceRecorder* tracer = ctx.tracer()) {
      trace_span = TraceSpan(tracer, "core/solve_batch/" + name());
    }
    do_solve_batch(cops, ctx, seeds, out, local);
    // The same per-member counters solve() records; members are not timed
    // one by one, so there is no latency sample.
    if (MetricsRegistry* m = ctx.metrics()) {
      std::size_t iterations = 0;
      std::size_t early_stops = 0;
      for (const CoreSolveStats& s : local) {
        iterations += s.iterations;
        early_stops += s.stopped_early ? 1 : 0;
      }
      m->counter("core_solves_total", {{"solver", name()}}).add(cops.size());
      m->counter("core_iterations_total", {{"solver", name()}})
          .add(iterations);
      if (early_stops > 0) {
        m->counter("core_early_stops_total", {{"solver", name()}})
            .add(early_stops);
      }
    }
    if (QorRecorder* q = ctx.qor()) {
      const std::string qor_name = "core/objective/" + name();
      for (const CoreSolveStats& s : local) {
        q->sample(qor_name, s.objective);
      }
    }
  }
  if (stats != nullptr) {
    *stats = std::move(local);
  }
  return out;
}

void CoreCopSolver::do_solve_batch(std::span<const ColumnCop> cops,
                                   const RunContext& ctx,
                                   std::span<const std::uint64_t> seeds,
                                   std::span<ColumnSetting> out,
                                   std::span<CoreSolveStats> stats) const {
  auto run_one = [&](std::size_t i) {
    out[i] = do_solve(cops[i], ctx, seeds[i], &stats[i]);
  };
  // Members are independent solves, so the batch fans out over the pool
  // like the caller-side loop it replaces. A nested call from inside a
  // caller's parallel_for runs inline via the pool's nesting guard.
  if (ctx.parallel() && cops.size() > 1) {
    ThreadPool& pool = ctx.pool();
    if (pool.thread_count() > 1) {
      pool.parallel_for(cops.size(), run_one);
      return;
    }
  }
  for (std::size_t i = 0; i < cops.size(); ++i) {
    run_one(i);
  }
}

IsingCoreSolver::Options IsingCoreSolver::Options::paper_defaults(
    unsigned num_inputs) {
  Options o;
  o.sb.max_iterations = 1000;
  o.sb.dt = 0.5;
  o.sb.stop.enabled = true;
  o.sb.stop.epsilon = 1e-8;
  const std::size_t fs = num_inputs <= 12 ? 20 : 10;
  o.sb.stop.sample_interval = fs;
  o.sb.stop.window = fs;
  return o;
}

ColumnSetting IsingCoreSolver::do_solve(const ColumnCop& cop,
                                        const RunContext& ctx,
                                        std::uint64_t seed,
                                        CoreSolveStats* stats) const {
  return ising_core_solve(cop, ctx, seed, stats, options_);
}

ColumnSetting PackedCoreCopSolver::do_solve(const ColumnCop& cop,
                                            const RunContext& ctx,
                                            std::uint64_t seed,
                                            CoreSolveStats* stats) const {
  return ising_core_solve(cop, ctx, seed, stats, options_);
}

ColumnSetting ExhaustiveCoreSolver::do_solve(const ColumnCop& cop,
                                             const RunContext& /*ctx*/,
                                             std::uint64_t /*seed*/,
                                             CoreSolveStats* stats) const {
  if (cop.num_spins() > 24) {
    throw std::invalid_argument(
        "ExhaustiveCoreSolver: instance too large (2r + c must be <= 24)");
  }
  const IsingModel model = cop.to_ising();
  const IsingSolveResult res = solve_exhaustive(model);
  ColumnSetting s = cop.decode(res.spins);
  if (stats != nullptr) {
    stats->objective = cop.objective(s);
    stats->iterations = res.iterations;
    stats->stopped_early = false;
    stats->proven_optimal = true;
  }
  return s;
}

ColumnSetting AlternatingCoreSolver::do_solve(const ColumnCop& cop,
                                              const RunContext& /*ctx*/,
                                              std::uint64_t seed,
                                              CoreSolveStats* stats) const {
  Rng rng(seed);
  ColumnSetting best;
  double best_obj = 0.0;
  bool have_best = false;
  std::size_t sweeps = 0;
  const std::size_t restarts = std::max<std::size_t>(1, restarts_);
  for (std::size_t attempt = 0; attempt < restarts; ++attempt) {
    ColumnSetting s = random_setting(cop.rows(), cop.cols(), rng);
    const FixpointRun run = alternate_to_fixpoint(cop, s, max_sweeps_);
    sweeps += run.sweeps;
    if (!have_best || run.best < best_obj) {
      best = std::move(s);
      best_obj = run.best;
      have_best = true;
    }
  }
  if (stats != nullptr) {
    stats->objective = best_obj;
    stats->iterations = sweeps;
    stats->stopped_early = false;
    stats->proven_optimal = false;
  }
  return best;
}

ColumnSetting HeuristicCoreSolver::do_solve(const ColumnCop& cop,
                                            const RunContext& /*ctx*/,
                                            std::uint64_t /*seed*/,
                                            CoreSolveStats* stats) const {
  const BooleanMatrix& m = cop.exact_matrix();

  // The two most frequent distinct exact columns seed the pattern pair.
  ColumnSetting s;
  std::tie(s.v1, s.v2) = dominant_column_pair(m);
  s.t = BitVec(m.cols());
  FixpointRun run;
  if (refine_sweeps_ == 0) {
    cop.reset_optimal_t(s);
    run.last = cop.objective(s);
  } else {
    // The last sweep already scored the setting it leaves in s.
    run = alternate_to_fixpoint(cop, s, refine_sweeps_);
  }

  if (stats != nullptr) {
    stats->objective = run.last;
    stats->iterations = run.sweeps;
    stats->stopped_early = false;
    stats->proven_optimal = false;
  }
  return s;
}

ColumnSetting AnnealCoreSolver::do_solve(const ColumnCop& cop,
                                         const RunContext& /*ctx*/,
                                         std::uint64_t seed,
                                         CoreSolveStats* stats) const {
  const std::size_t r = cop.rows();
  const std::size_t c = cop.cols();
  const std::size_t bits = 2 * r + c;
  Rng rng(seed);

  ColumnSetting best;
  double best_obj = 0.0;
  bool have_best = false;
  std::size_t sweeps_done = 0;

  const std::size_t restarts = std::max<std::size_t>(1, options_.restarts);
  for (std::size_t attempt = 0; attempt < restarts; ++attempt) {
    ColumnSetting s = random_setting(r, c, rng);
    double obj = cop.objective(s);
    if (!have_best || obj < best_obj) {
      best = s;
      best_obj = obj;
      have_best = true;
    }

    const double ratio =
        options_.sweeps > 1
            ? std::pow(options_.beta_end / options_.beta_start,
                       1.0 / static_cast<double>(options_.sweeps - 1))
            : 1.0;
    double beta = options_.beta_start;

    for (std::size_t sweep = 0; sweep < options_.sweeps; ++sweep) {
      for (std::size_t step = 0; step < bits; ++step) {
        const std::size_t pick = rng.next_below(bits);
        double delta = 0.0;
        if (pick < r) {
          // Flip V1_i: affects columns with T_j = 0.
          const std::size_t i = pick;
          const double sign = s.v1.get(i) ? -1.0 : 1.0;
          for (std::size_t j = 0; j < c; ++j) {
            if (!s.t.get(j)) {
              delta += sign * (cop.cell_cost(i, j, true) -
                               cop.cell_cost(i, j, false));
            }
          }
          if (delta <= 0.0 || rng.next_double() < std::exp(-beta * delta)) {
            s.v1.flip(i);
            obj += delta;
          }
        } else if (pick < 2 * r) {
          const std::size_t i = pick - r;
          const double sign = s.v2.get(i) ? -1.0 : 1.0;
          for (std::size_t j = 0; j < c; ++j) {
            if (s.t.get(j)) {
              delta += sign * (cop.cell_cost(i, j, true) -
                               cop.cell_cost(i, j, false));
            }
          }
          if (delta <= 0.0 || rng.next_double() < std::exp(-beta * delta)) {
            s.v2.flip(i);
            obj += delta;
          }
        } else {
          // Flip T_j: column j switches pattern.
          const std::size_t j = pick - 2 * r;
          const bool now = s.t.get(j);
          for (std::size_t i = 0; i < r; ++i) {
            const bool cur = now ? s.v2.get(i) : s.v1.get(i);
            const bool nxt = now ? s.v1.get(i) : s.v2.get(i);
            if (cur != nxt) {
              delta += cop.cell_cost(i, j, nxt) - cop.cell_cost(i, j, cur);
            }
          }
          if (delta <= 0.0 || rng.next_double() < std::exp(-beta * delta)) {
            s.t.flip(j);
            obj += delta;
          }
        }
      }
      ++sweeps_done;
      if (obj < best_obj) {
        best = s;
        best_obj = obj;
      }
      beta *= ratio;
    }
  }

  // Guard against drift in the incrementally tracked objective.
  best_obj = cop.objective(best);

  if (stats != nullptr) {
    stats->objective = best_obj;
    stats->iterations = sweeps_done;
    stats->stopped_early = false;
    stats->proven_optimal = false;
  }
  return best;
}

namespace {

/// Depth-first exact search over column-type assignments with per-row
/// separable bounds; see BnbCoreSolver docs.
class ColumnBnb {
 public:
  ColumnBnb(const ColumnCop& cop, double time_budget_s)
      : cop_(cop),
        r_(cop.rows()),
        c_(cop.cols()),
        deadline_(time_budget_s) {
    // Visit heavy columns first: their assignment moves the bound most.
    order_.resize(c_);
    for (std::size_t j = 0; j < c_; ++j) {
      order_[j] = j;
    }
    std::vector<double> weight(c_, 0.0);
    std::vector<double> colmin(c_, 0.0);
    for (std::size_t j = 0; j < c_; ++j) {
      for (std::size_t i = 0; i < r_; ++i) {
        const double c0 = cop.cell_cost(i, j, false);
        const double c1 = cop.cell_cost(i, j, true);
        weight[j] += std::fabs(c1 - c0);
        colmin[j] += std::min(c0, c1);
      }
    }
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return weight[a] > weight[b];
    });
    // rem_[pos] = sum over columns at positions >= pos of their cell-wise
    // minimum cost: the relaxation value of everything not yet assigned.
    rem_.assign(c_ + 1, 0.0);
    for (std::size_t pos = c_; pos-- > 0;) {
      rem_[pos] = rem_[pos + 1] + colmin[order_[pos]];
    }
    cost1_.assign(2 * r_, 0.0);
    cost2_.assign(2 * r_, 0.0);
    t_.assign(c_, 0);
  }

  void set_incumbent(const ColumnSetting& s, double obj) {
    best_setting_ = s;
    best_obj_ = obj;
  }

  void run() {
    dfs(0, 0.0);
  }

  const ColumnSetting& best() const { return best_setting_; }
  double best_objective() const { return best_obj_; }
  std::size_t nodes() const { return nodes_; }
  bool hit_deadline() const { return hit_deadline_; }

 private:
  // cost1_[2i + v] accumulates the cost of row i taking value v over the
  // columns assigned to pattern 1 so far; cost2_ likewise for pattern 2.
  double lower_bound(std::size_t pos) const {
    double lb = rem_[pos];
    for (std::size_t i = 0; i < r_; ++i) {
      lb += std::min(cost1_[2 * i], cost1_[2 * i + 1]);
      lb += std::min(cost2_[2 * i], cost2_[2 * i + 1]);
    }
    return lb;
  }

  void assign(std::size_t j, int pattern, int direction) {
    auto& cost = pattern == 1 ? cost1_ : cost2_;
    const double sign = direction;
    for (std::size_t i = 0; i < r_; ++i) {
      cost[2 * i] += sign * cop_.cell_cost(i, j, false);
      cost[2 * i + 1] += sign * cop_.cell_cost(i, j, true);
    }
  }

  void dfs(std::size_t pos, double /*unused*/) {
    if (hit_deadline_ || (++nodes_ % 1024 == 0 && deadline_.expired())) {
      hit_deadline_ = true;
      return;
    }
    if (lower_bound(pos) >= best_obj_ - 1e-12) {
      return;
    }
    if (pos == c_) {
      // All columns typed: the optimal V is the per-row argmin.
      ColumnSetting s;
      s.v1 = BitVec(r_);
      s.v2 = BitVec(r_);
      s.t = BitVec(c_);
      double obj = 0.0;
      for (std::size_t i = 0; i < r_; ++i) {
        s.v1.set(i, cost1_[2 * i + 1] < cost1_[2 * i]);
        s.v2.set(i, cost2_[2 * i + 1] < cost2_[2 * i]);
        obj += std::min(cost1_[2 * i], cost1_[2 * i + 1]);
        obj += std::min(cost2_[2 * i], cost2_[2 * i + 1]);
      }
      for (std::size_t pos2 = 0; pos2 < c_; ++pos2) {
        s.t.set(order_[pos2], t_[pos2] == 2);
      }
      if (obj < best_obj_) {
        best_obj_ = obj;
        best_setting_ = std::move(s);
      }
      return;
    }

    const std::size_t j = order_[pos];
    for (int pattern = 1; pattern <= 2; ++pattern) {
      t_[pos] = pattern;
      assign(j, pattern, +1);
      dfs(pos + 1, 0.0);
      assign(j, pattern, -1);
      if (hit_deadline_) {
        return;
      }
    }
  }

  const ColumnCop& cop_;
  std::size_t r_;
  std::size_t c_;
  Deadline deadline_;
  std::vector<std::size_t> order_;
  std::vector<double> rem_;
  std::vector<double> cost1_;
  std::vector<double> cost2_;
  std::vector<int> t_;
  ColumnSetting best_setting_;
  double best_obj_ = 1e300;
  std::size_t nodes_ = 0;
  bool hit_deadline_ = false;
};

}  // namespace

ColumnSetting BnbCoreSolver::do_solve(const ColumnCop& cop,
                                      const RunContext& ctx,
                                      std::uint64_t seed,
                                      CoreSolveStats* stats) const {
  // Warm incumbent from alternating minimization (cheap, often near-opt).
  const AlternatingCoreSolver warm(options_.warm_restarts);
  ColumnSetting incumbent = warm.solve(cop, ctx, seed, nullptr);
  const double incumbent_obj = cop.objective(incumbent);

  // The context deadline caps the solver's own budget (whichever is
  // tighter); a budget-less context leaves the configured budget alone.
  double budget = options_.time_budget_s;
  if (ctx.deadline().budget() > 0.0) {
    const double remaining = ctx.deadline().remaining();
    budget = budget > 0.0 ? std::min(budget, remaining) : remaining;
  }

  ColumnBnb bnb(cop, budget);
  bnb.set_incumbent(incumbent, incumbent_obj);
  bnb.run();

  if (stats != nullptr) {
    stats->objective = bnb.best_objective();
    stats->iterations = bnb.nodes();
    stats->stopped_early = bnb.hit_deadline();
    stats->proven_optimal = !bnb.hit_deadline();
  }
  return bnb.best();
}

}  // namespace adsd
