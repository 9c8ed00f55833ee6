#include "core/dalta.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/nondisjoint_dalta.hpp"
#include "core/partition_screen.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace adsd {

DecomposedLutNetwork DaltaResult::to_lut_network() const {
  DecomposedLutNetwork net;
  for (const auto& out : outputs) {
    net.add_output(DecomposedLut::from_column_setting(out.partition,
                                                      out.setting));
  }
  return net;
}

std::uint64_t NdDaltaResult::total_size_bits() const {
  std::uint64_t total = 0;
  for (const auto& out : outputs) {
    total += out.partition.phi_lut_bits() + out.partition.f_lut_bits();
  }
  return total;
}

std::uint64_t NdDaltaResult::total_flat_size_bits() const {
  std::uint64_t total = 0;
  for (const auto& out : outputs) {
    total += std::uint64_t{1} << out.partition.num_inputs();
  }
  return total;
}

namespace {

/// What one flow records under: the entry point named in its errors, the
/// stage of its QoR records, metric and log labels and flight record, and
/// its trace spans, trace counter and QoR counters.
struct FlowNames {
  const char* function;
  const char* stage;
  const char* run_span;
  const char* round_span;
  const char* output_span;
  const char* candidate_span;
  const char* batch_span;
  const char* committed_objective;
  const char* partitions_tried;
  const char* commits;
};

/// A drawn partition as integers: the masks of its free set and (in the
/// non-disjoint flow) its shared set.
using PartitionKey = std::pair<std::uint64_t, std::uint64_t>;

/// The paper's flow (Sec. 2.4): a candidate is one input partition and one
/// column COP, and the candidates may be screened by column multiplicity.
struct DisjointFlow {
  using Params = DaltaParams;
  using Partition = InputPartition;
  using Setting = ColumnSetting;
  using Output = OutputDecomposition;
  using Result = DaltaResult;
  static constexpr FlowNames kNames{
      "run_dalta", "dalta", "dalta/run", "dalta/round", "dalta/output",
      "dalta/candidate", "dalta/candidate_batch", "dalta/committed_objective",
      "dalta/partitions_tried", "dalta/commits"};

  static unsigned shared_size(const Params&) { return 0; }

  /// P random partitions; with screening, screen_factor * P of them drawn
  /// and the P with the fewest distinct columns of output k kept.
  static std::vector<Partition> draw(const Params& params,
                                     const TruthTable& exact, unsigned k,
                                     Rng& rng, const RunContext& ctx) {
    const std::size_t oversample =
        params.num_partitions * std::max<std::size_t>(1, params.screen_factor);
    std::vector<Partition> partitions;
    partitions.reserve(oversample);
    for (std::size_t p = 0; p < oversample; ++p) {
      partitions.push_back(
          InputPartition::random(exact.num_inputs(), params.free_size, rng));
    }
    if (oversample > params.num_partitions) {
      const TraceSpan screen_trace(ctx.tracer(), "dalta/screen");
      const PartitionScreener screener(exact.output(k), exact.num_inputs());
      partitions =
          screener.screen(std::move(partitions), params.num_partitions);
      qor_add(ctx.qor(), "dalta/partitions_screened",
              static_cast<double>(oversample - params.num_partitions));
      if (MetricsRegistry* met = ctx.metrics()) {
        met->counter("dalta_partitions_screened_total")
            .add(oversample - params.num_partitions);
      }
    }
    return partitions;
  }

  /// Draws sort both sets, so equal free masks mean one COP, bit for bit.
  static PartitionKey key(const Partition& w) { return {w.free_mask(), 0}; }
  static void fill(const Partition& w, std::uint64_t, CellPatterns& cells) {
    cells.assign(w);
  }
  static void add_slice(Setting& s, ColumnSetting&& cs) { s = std::move(cs); }
  static const ColumnSetting& slice(const Setting& s, std::uint64_t) {
    return s;
  }
  static std::uint64_t lut_bits(const Output& out) {
    return DecomposedLut::from_column_setting(out.partition, out.setting)
        .size_bits();
  }
};

/// The non-disjoint flow (the BA extension, ref. [10]): a candidate is one
/// partition with a shared set and one column COP per shared assignment;
/// the slice objectives add up because slices cover disjoint patterns.
struct NonDisjointFlow {
  using Params = NdDaltaParams;
  using Partition = NonDisjointPartition;
  using Setting = NonDisjointSetting;
  using Output = NdOutputDecomposition;
  using Result = NdDaltaResult;
  static constexpr FlowNames kNames{
      "run_dalta_nd", "dalta_nd", "dalta_nd/run", "dalta_nd/round",
      "dalta_nd/output", "dalta_nd/candidate", "dalta_nd/candidate_batch",
      "dalta_nd/committed_objective", "dalta_nd/partitions_tried",
      "dalta_nd/commits"};

  static unsigned shared_size(const Params& params) {
    return params.shared_size;
  }

  /// P random partitions from the same stream as the disjoint flow, so
  /// shared size 0 draws its sequence.
  static std::vector<Partition> draw(const Params& params,
                                     const TruthTable& exact, unsigned,
                                     Rng& rng, const RunContext&) {
    std::vector<Partition> partitions;
    partitions.reserve(params.num_partitions);
    for (std::size_t p = 0; p < params.num_partitions; ++p) {
      partitions.push_back(NonDisjointPartition::random(
          exact.num_inputs(), params.free_size, params.shared_size, rng));
    }
    return partitions;
  }

  /// Draws sort all three sets, so equal free and shared masks mean one
  /// COP per slice, bit for bit.
  static PartitionKey key(const Partition& w) {
    return {w.free_mask(), w.shared_mask()};
  }
  static void fill(const Partition& w, std::uint64_t sl, CellPatterns& cells) {
    slice_cells(w, sl, cells);
  }
  static void add_slice(Setting& s, ColumnSetting&& cs) {
    s.slices.push_back(std::move(cs));
  }
  static const ColumnSetting& slice(const Setting& s, std::uint64_t sl) {
    return s.slices[sl];
  }
  static std::uint64_t lut_bits(const Output& out) {
    return out.partition.phi_lut_bits() + out.partition.f_lut_bits();
  }
};

/// One evaluated candidate: its decomposition, whose objective sums its
/// slices', and its slice solves' counters.
template <class Flow>
struct Candidate {
  typename Flow::Output out;
  std::size_t iterations = 0;
  std::size_t early_stops = 0;
};

/// Per-thread buffers of one COP build, reused across slices, candidates
/// and rounds by the pool workers: all COPs of a run share the r x c
/// shape, so reuse means zero steady-state allocation.
struct EvalScratch {
  CellPatterns cells;
  std::optional<ColumnCop> cop;
};

EvalScratch& worker_scratch() {
  thread_local EvalScratch scratch;
  return scratch;
}

/// The DALTA outer loop of either flow: for R rounds, each output MSB ->
/// LSB, P candidate partitions evaluated and the best kept.
template <class Flow>
typename Flow::Result run_flow(const TruthTable& exact,
                               const InputDistribution& dist,
                               const typename Flow::Params& params,
                               const CoreCopSolver& solver,
                               const RunContext& ctx) {
  using Partition = typename Flow::Partition;
  constexpr const FlowNames& names = Flow::kNames;
  const unsigned n = exact.num_inputs();
  const unsigned m = exact.num_outputs();
  const std::string function = names.function;
  if (dist.num_inputs() != n) {
    throw std::invalid_argument(function + ": distribution shape mismatch");
  }
  if (params.free_size == 0 ||
      params.free_size + Flow::shared_size(params) >= n) {
    throw std::invalid_argument(
        function + ": free size must be in (0, n - shared size)");
  }
  if (params.num_partitions == 0 || params.rounds == 0) {
    throw std::invalid_argument(function +
                                ": need partitions and rounds >= 1");
  }

  Timer timer;
  TraceRecorder* tracer = ctx.tracer();
  const TraceSpan run_trace(tracer, names.run_span);
  const std::uint64_t patterns = exact.num_patterns();
  const std::size_t num_partitions = params.num_partitions;
  const std::uint64_t slices = std::uint64_t{1} << Flow::shared_size(params);

  // Output words cached as integers so the joint-mode D terms are O(1) per
  // pattern: D(x) = (approx word without bit k) - exact word.
  std::vector<std::int64_t> exact_words(patterns);
  std::vector<std::int64_t> approx_words(patterns);
  for (std::uint64_t x = 0; x < patterns; ++x) {
    exact_words[x] = static_cast<std::int64_t>(exact.word(x));
    approx_words[x] = exact_words[x];
  }

  typename Flow::Result result{exact, {}, 0.0, 0.0, 0.0, 0, 0, 0};
  std::vector<std::optional<typename Flow::Output>> chosen(m);
  std::vector<double> d_by_input;  // joint mode scratch, indexed by pattern
  // A solver whose reported objective is its setting's objective() is not
  // scored a second time; every other one is.
  const bool rescore = !solver.scores_returned_setting();

  for (std::size_t round = 0; round < params.rounds; ++round) {
    const TraceSpan round_trace(tracer, names.round_span);
    for (unsigned kk = 0; kk < m; ++kk) {
      const unsigned k = m - 1 - kk;  // MSB -> LSB, as in the paper
      const TraceSpan output_trace(tracer, names.output_span);

      // Joint mode's D are integers, so their range bounds |D| for the
      // COPs' O(1) exact-sum certificate (ColumnCop::exact_sums).
      double d_bound = std::numeric_limits<double>::infinity();
      if (params.mode == DecompMode::kJoint) {
        d_by_input.resize(patterns);
        const BitVec& gk = result.approx.output(k);
        const std::int64_t weight = std::int64_t{1} << k;
        std::int64_t d_min = 0;
        std::int64_t d_max = 0;
        for (std::uint64_t x = 0; x < patterns; ++x) {
          const std::int64_t rest =
              approx_words[x] - (gk.get(x) ? weight : 0);
          const std::int64_t d = rest - exact_words[x];
          d_by_input[x] = static_cast<double>(d);
          d_min = std::min(d_min, d);
          d_max = std::max(d_max, d);
        }
        d_bound = std::max(-static_cast<double>(d_min),
                           static_cast<double>(d_max));
      }

      // The candidate partitions for this (round, output) are fixed by the
      // context seed alone, so every solver sees the same sequence.
      Rng part_rng = ctx.stream("dalta/partitions", round, k);
      const std::vector<Partition> partitions =
          Flow::draw(params, exact, k, part_rng, ctx);

      // Slice sl of partition w as a COP, built in one gather pass
      // (ColumnCop::gather) over its cells into the calling thread's
      // scratch; it stays valid until that thread builds its next one.
      const CopSource source{exact.output(k), dist, params.mode, d_by_input,
                             static_cast<double>(std::int64_t{1} << k),
                             d_bound};
      auto build_cop = [&](const Partition& w,
                           std::uint64_t sl) -> const ColumnCop& {
        EvalScratch& scratch = worker_scratch();
        Flow::fill(w, sl, scratch.cells);
        return ColumnCop::gather_into(source, scratch.cells, scratch.cop);
      };
      // Slice 0's seed is the three-counter stream's, so the one-slice
      // flows share a candidate's seed.
      auto slice_seed = [&](std::size_t p, std::uint64_t sl) {
        return ctx.stream_seed("dalta/candidate", round, k, p, sl);
      };
      std::vector<std::optional<Candidate<Flow>>> candidates(num_partitions);
      auto add_solve = [&](Candidate<Flow>& cand, const ColumnCop& cop,
                           ColumnSetting&& cs, const CoreSolveStats& stats) {
        cand.out.objective += rescore ? cop.objective(cs) : stats.objective;
        cand.iterations += stats.iterations;
        cand.early_stops += stats.stopped_early ? 1 : 0;
        Flow::add_slice(cand.out.setting, std::move(cs));
      };
      auto evaluate = [&](std::size_t p) {
        // Runs on a pool worker under parallel dispatch, so this span lands
        // on that worker's trace timeline — the per-thread work
        // distribution of the candidate fan-out read straight off the
        // flame graph.
        const TraceSpan candidate_trace(tracer, names.candidate_span);
        Candidate<Flow> cand{{partitions[p], {}, 0.0}};
        for (std::uint64_t sl = 0; sl < slices; ++sl) {
          const ColumnCop& cop = build_cop(partitions[p], sl);
          CoreSolveStats stats;
          ColumnSetting cs = solver.solve(cop, ctx, slice_seed(p, sl), &stats);
          add_solve(cand, cop, std::move(cs), stats);
        }
        candidates[p] = std::move(cand);
      };

      if (solver.batched() && num_partitions * slices > 1) {
        // Batched fan-out: the (partition, slice) grid flattened into one
        // solve_batch call, with the looped path's COPs and seeds.
        const TraceSpan batch_trace(tracer, names.batch_span);
        CellPatterns cells;
        std::vector<ColumnCop> cops;
        cops.reserve(num_partitions * slices);
        std::vector<std::uint64_t> seeds;
        seeds.reserve(num_partitions * slices);
        for (std::size_t p = 0; p < num_partitions; ++p) {
          for (std::uint64_t sl = 0; sl < slices; ++sl) {
            Flow::fill(partitions[p], sl, cells);
            cops.push_back(ColumnCop::gather(source, cells));
            seeds.push_back(slice_seed(p, sl));
          }
        }
        std::vector<CoreSolveStats> stats;
        std::vector<ColumnSetting> settings =
            solver.solve_batch(cops, ctx, seeds, &stats);
        for (std::size_t p = 0; p < num_partitions; ++p) {
          Candidate<Flow> cand{{partitions[p], {}, 0.0}};
          for (std::uint64_t sl = 0; sl < slices; ++sl) {
            const std::size_t i = p * slices + sl;
            add_solve(cand, cops[i], std::move(settings[i]), stats[i]);
          }
          candidates[p] = std::move(cand);
        }
      } else {
        // P draws with replacement repeat partitions (C(9,4) = 126 exist at
        // n = 9), and a repeat builds its first occurrence's COP. A solver
        // whose result is a function of the COP alone then solves only the
        // first occurrences; each repeat copies its candidate after the
        // join. Seeded solvers solve every draw under its own seed.
        std::vector<std::size_t> first(num_partitions);
        std::iota(first.begin(), first.end(), 0);
        if (solver.depends_only_on_cop()) {
          std::vector<PartitionKey> keys(num_partitions);
          for (std::size_t p = 0; p < num_partitions; ++p) {
            keys[p] = Flow::key(partitions[p]);
          }
          first = first_occurrences(keys);
        }
        std::vector<std::size_t> distinct;
        distinct.reserve(num_partitions);
        for (std::size_t p = 0; p < num_partitions; ++p) {
          if (first[p] == p) {
            distinct.push_back(p);
          }
        }
        if (ctx.parallel() && distinct.size() > 1) {
          ctx.pool().parallel_for(
              distinct.size(), [&](std::size_t i) { evaluate(distinct[i]); });
        } else {
          for (const std::size_t p : distinct) {
            evaluate(p);
          }
        }
        for (std::size_t p = 0; p < num_partitions; ++p) {
          if (first[p] != p) {
            candidates[p] = candidates[first[p]];
          }
        }
      }

      // A candidate slot stays disengaged if its evaluation never ran
      // (e.g. a sibling threw and parallel_for rethrew after this round's
      // remaining work was drained) — never dereference blindly.
      std::size_t best_p = num_partitions;
      for (std::size_t p = 0; p < num_partitions; ++p) {
        if (!candidates[p].has_value()) {
          continue;
        }
        if (best_p == num_partitions ||
            candidates[p]->out.objective <
                candidates[best_p]->out.objective - 1e-15) {
          best_p = p;
        }
      }
      if (best_p == num_partitions) {
        throw std::runtime_error(function +
                                 ": no candidate partition was evaluated");
      }
      for (const auto& cand : candidates) {
        if (!cand.has_value()) {
          continue;
        }
        result.cop_solves += slices;
        result.solver_iterations += cand->iterations;
        result.early_stops += cand->early_stops;
      }

      // A round never makes an output worse: from the second round on, the
      // incumbent decomposition is re-scored slice by slice on its
      // partition's COPs under the current D, and the round's best replaces
      // it only when strictly better, by the candidate scan's rule. (Joint
      // mode's objective is the MED with the other outputs fixed, so a
      // worse commit raises it.)
      typename Flow::Output& best = candidates[best_p]->out;
      const double best_objective = best.objective;
      bool commit = true;
      if (chosen[k].has_value()) {
        typename Flow::Output& incumbent = *chosen[k];
        double objective = 0.0;
        for (std::uint64_t sl = 0; sl < slices; ++sl) {
          objective += build_cop(incumbent.partition, sl)
                           .objective(Flow::slice(incumbent.setting, sl));
        }
        incumbent.objective = objective;
        commit = best_objective < objective - 1e-15;
      }

      // Commit: replace output k and refresh the cached words.
      if (commit) {
        BitVec new_bits = compose_output(best.setting, best.partition);
        const BitVec& old_bits = result.approx.output(k);
        const std::int64_t weight = std::int64_t{1} << k;
        for (std::uint64_t x = 0; x < patterns; ++x) {
          const bool was = old_bits.get(x);
          const bool now = new_bits.get(x);
          if (was != now) {
            approx_words[x] += now ? weight : -weight;
          }
        }
        result.approx.set_output(k, std::move(new_bits));
        chosen[k] = std::move(best);
      }
      const double committed_objective = chosen[k]->objective;
      trace_counter(tracer, names.committed_objective, committed_objective);

      // Quality observability: record the committed decision. Reads only —
      // the committed bits and candidate objectives are already fixed — so
      // the off path stays bit-identical (and costs one pointer test).
      if (QorRecorder* q = ctx.qor()) {
        std::size_t tried = 0;
        double worst = best_objective;
        for (const auto& cand : candidates) {
          if (!cand.has_value()) {
            continue;
          }
          ++tried;
          worst = std::max(worst, cand->out.objective);
        }
        QorRecorder::OutputRecord rec;
        rec.stage = names.stage;
        rec.round = round;
        rec.output = k;
        rec.tried = tried;
        rec.best_objective = committed_objective;
        rec.worst_objective = worst;
        rec.error_rate =
            error_rate(exact.output(k), result.approx.output(k), dist);
        q->record_output(std::move(rec));
        q->add(names.partitions_tried, static_cast<double>(tried));
        q->add(names.commits);
      }
    }
  }

  result.outputs.reserve(m);
  for (unsigned k = 0; k < m; ++k) {
    result.outputs.push_back(std::move(*chosen[k]));
  }
  result.med = mean_error_distance(exact, result.approx, dist);
  result.error_rate = error_rate(exact, result.approx, dist);
  result.seconds = timer.seconds();
  if (MetricsRegistry* met = ctx.metrics()) {
    met->counter("dalta_runs_total", {{"stage", names.stage}}).add();
    met->counter("dalta_rounds_total").add(params.rounds);
    met->counter("dalta_outputs_total").add(m);
    met->counter("dalta_cop_solves_total").add(result.cop_solves);
    met->histogram("dalta_run_duration_us", {{"stage", names.stage}})
        .record(result.seconds * 1e6, ctx.run_id());
  }
  if (ctx.expired()) {
    ADSD_LOG_WARN("core/dalta", "run finished past the deadline",
                  {"stage", names.stage}, {"rounds", params.rounds},
                  {"med", result.med}, {"seconds", result.seconds});
  } else {
    ADSD_LOG_INFO("core/dalta", "run complete", {"stage", names.stage},
                  {"outputs", m}, {"rounds", params.rounds},
                  {"cop_solves", result.cop_solves}, {"med", result.med},
                  {"seconds", result.seconds});
  }
  if (MetricsRegistry::armed() != nullptr ||
      FlightRecorder::global().postmortem_armed()) {
    // One flight-recorder summary per framework run: enough to postmortem
    // "what was the process doing" after a crash or deadline overrun
    // without any per-run artifact files.
    FlightRecorder::SolveRecord rec;
    rec.spec = names.stage;
    rec.engine = solver.name();
    rec.stop_reason = ctx.expired() ? "deadline" : "ok";
    rec.run_id = ctx.run_id();
    rec.n = n;
    rec.rounds = params.rounds;
    for (unsigned k = 0; k < m; ++k) {
      rec.final_energy += result.outputs[k].objective;
    }
    rec.med = result.med;
    rec.duration_s = result.seconds;
    FlightRecorder::global().record(std::move(rec));
  }
  if (QorRecorder* q = ctx.qor()) {
    QorRecorder::Final fin;
    fin.stage = names.stage;
    fin.med = result.med;
    fin.error_rate = result.error_rate;
    fin.outputs.reserve(m);
    for (unsigned k = 0; k < m; ++k) {
      QorRecorder::FinalOutput out;
      out.error_rate =
          error_rate(exact.output(k), result.approx.output(k), dist);
      out.lut_bits = Flow::lut_bits(result.outputs[k]);
      out.flat_bits = std::uint64_t{1}
                      << result.outputs[k].partition.num_inputs();
      fin.lut_bits += out.lut_bits;
      fin.flat_bits += out.flat_bits;
      fin.outputs.push_back(out);
    }
    q->record_final(std::move(fin));
  }
  return result;
}

}  // namespace

DaltaResult run_dalta(const TruthTable& exact, const InputDistribution& dist,
                      const DaltaParams& params, const CoreCopSolver& solver,
                      const RunContext& ctx) {
  return run_flow<DisjointFlow>(exact, dist, params, solver, ctx);
}

DaltaResult run_dalta(const TruthTable& exact, const InputDistribution& dist,
                      const DaltaParams& params, const CoreCopSolver& solver) {
  return run_dalta(exact, dist, params, solver, RunContext(params.seed));
}

NdDaltaResult run_dalta_nd(const TruthTable& exact,
                           const InputDistribution& dist,
                           const NdDaltaParams& params,
                           const CoreCopSolver& solver, const RunContext& ctx) {
  return run_flow<NonDisjointFlow>(exact, dist, params, solver, ctx);
}

NdDaltaResult run_dalta_nd(const TruthTable& exact,
                           const InputDistribution& dist,
                           const NdDaltaParams& params,
                           const CoreCopSolver& solver) {
  return run_dalta_nd(exact, dist, params, solver, RunContext(params.seed));
}

}  // namespace adsd
