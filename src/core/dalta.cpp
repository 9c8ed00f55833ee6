#include "core/dalta.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>

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

namespace {

struct Candidate {
  InputPartition partition;
  ColumnSetting setting;
  CoreSolveStats stats;
};

/// Per-thread buffers of one candidate evaluation, reused across
/// candidates (and rounds) by the pool workers: all candidates of a run
/// share the r x c shape, so reuse means zero steady-state allocation.
struct EvalScratch {
  CellPatterns cells;
  std::optional<ColumnCop> cop;
};

EvalScratch& worker_scratch() {
  thread_local EvalScratch scratch;
  return scratch;
}

}  // namespace

DaltaResult run_dalta(const TruthTable& exact, const InputDistribution& dist,
                      const DaltaParams& params, const CoreCopSolver& solver) {
  RunContext::Options opts;
  opts.seed = params.seed;
  opts.parallel = params.parallel;
  const RunContext ctx(opts);
  return run_dalta(exact, dist, params, solver, ctx);
}

DaltaResult run_dalta(const TruthTable& exact, const InputDistribution& dist,
                      const DaltaParams& params, const CoreCopSolver& solver,
                      const RunContext& ctx) {
  const unsigned n = exact.num_inputs();
  const unsigned m = exact.num_outputs();
  if (dist.num_inputs() != n) {
    throw std::invalid_argument("run_dalta: distribution shape mismatch");
  }
  if (params.free_size == 0 || params.free_size >= n) {
    throw std::invalid_argument("run_dalta: free size must be in (0, n)");
  }
  if (params.num_partitions == 0 || params.rounds == 0) {
    throw std::invalid_argument("run_dalta: need partitions and rounds >= 1");
  }

  Timer timer;
  TraceRecorder* tracer = ctx.tracer();
  const TraceSpan run_trace(tracer, "dalta/run");
  const std::uint64_t patterns = exact.num_patterns();

  TruthTable approx = exact;
  // Output words cached as integers so the joint-mode D terms are O(1) per
  // pattern: D(x) = (approx word without bit k) - exact word.
  std::vector<std::int64_t> exact_words(patterns);
  std::vector<std::int64_t> approx_words(patterns);
  for (std::uint64_t x = 0; x < patterns; ++x) {
    exact_words[x] = static_cast<std::int64_t>(exact.word(x));
    approx_words[x] = exact_words[x];
  }

  std::vector<std::optional<OutputDecomposition>> chosen(m);

  DaltaResult result{std::move(approx), {}, 0.0, 0.0, 0.0, 0, 0, 0};

  std::vector<double> d_by_input;  // joint mode scratch, indexed by pattern
  // A solver whose reported objective is its setting's objective() is not
  // scored a second time; every other one is.
  const bool rescore = !solver.scores_returned_setting();

  for (std::size_t round = 0; round < params.rounds; ++round) {
    const TraceSpan round_trace(tracer, "dalta/round");
    for (unsigned kk = 0; kk < m; ++kk) {
      const unsigned k = m - 1 - kk;  // MSB -> LSB, as in the paper
      const TraceSpan output_trace(tracer, "dalta/output");

      if (params.mode == DecompMode::kJoint) {
        d_by_input.resize(patterns);
        const BitVec& gk = result.approx.output(k);
        const std::int64_t weight = std::int64_t{1} << k;
        for (std::uint64_t x = 0; x < patterns; ++x) {
          const std::int64_t rest =
              approx_words[x] - (gk.get(x) ? weight : 0);
          d_by_input[x] = static_cast<double>(rest - exact_words[x]);
        }
      }

      // The candidate partitions for this (round, output) are fixed by the
      // context seed alone, so every solver sees the same sequence.
      Rng part_rng = ctx.stream("dalta/partitions", round, k);
      const std::size_t oversample =
          params.num_partitions * std::max<std::size_t>(1, params.screen_factor);
      std::vector<InputPartition> candidates_w;
      candidates_w.reserve(oversample);
      for (std::size_t p = 0; p < oversample; ++p) {
        candidates_w.push_back(
            InputPartition::random(n, params.free_size, part_rng));
      }
      if (oversample > params.num_partitions) {
        const TraceSpan screen_trace(tracer, "dalta/screen");
        const PartitionScreener screener(exact.output(k), n);
        candidates_w =
            screener.screen(std::move(candidates_w), params.num_partitions);
        qor_add(ctx.qor(), "dalta/partitions_screened",
                static_cast<double>(oversample - params.num_partitions));
        if (MetricsRegistry* met = ctx.metrics()) {
          met->counter("dalta_partitions_screened_total")
              .add(oversample - params.num_partitions);
        }
      }

      std::vector<std::optional<Candidate>> candidates(params.num_partitions);
      // Every candidate's COP is built in one gather pass over its cells
      // (ColumnCop::gather) from these per-output tables.
      const CopSource source{exact.output(k), dist, params.mode, d_by_input,
                             static_cast<double>(std::int64_t{1} << k)};
      // The COP of partition w, built into the calling thread's scratch. It
      // stays valid until that thread builds its next one.
      auto build_cop = [&](const InputPartition& w) -> const ColumnCop& {
        EvalScratch& scratch = worker_scratch();
        scratch.cells.assign(w);
        return ColumnCop::gather_into(source, scratch.cells, scratch.cop);
      };
      auto evaluate = [&](std::size_t p) {
        // Runs on a pool worker under parallel dispatch, so this span lands
        // on that worker's trace timeline — the per-thread work
        // distribution of the candidate fan-out read straight off the
        // flame graph.
        const TraceSpan candidate_trace(tracer, "dalta/candidate");
        const ColumnCop& cop = build_cop(candidates_w[p]);
        Candidate cand{candidates_w[p], {}, {}};
        cand.setting =
            solver.solve(cop, ctx, ctx.stream_seed("dalta/candidate", round,
                                                   k, p),
                         &cand.stats);
        if (rescore) {
          cand.stats.objective = cop.objective(cand.setting);
        }
        candidates[p] = std::move(cand);
      };

      if (solver.batched() && params.num_partitions > 1) {
        // Batched fan-out: same COPs and per-candidate seeds as the looped
        // path, handed to the solver in one solve_batch call for the whole
        // P-candidate round.
        const TraceSpan batch_trace(tracer, "dalta/candidate_batch");
        CellPatterns cells;
        std::vector<ColumnCop> cops;
        cops.reserve(params.num_partitions);
        std::vector<std::uint64_t> seeds(params.num_partitions);
        for (std::size_t p = 0; p < params.num_partitions; ++p) {
          cells.assign(candidates_w[p]);
          cops.push_back(ColumnCop::gather(source, cells));
          seeds[p] = ctx.stream_seed("dalta/candidate", round, k, p);
        }
        std::vector<CoreSolveStats> stats;
        std::vector<ColumnSetting> settings =
            solver.solve_batch(cops, ctx, seeds, &stats);
        for (std::size_t p = 0; p < params.num_partitions; ++p) {
          Candidate cand{candidates_w[p], std::move(settings[p]), stats[p]};
          if (rescore) {
            cand.stats.objective = cops[p].objective(cand.setting);
          }
          candidates[p] = std::move(cand);
        }
      } else if (ctx.parallel() && params.parallel &&
                 params.num_partitions > 1) {
        ctx.pool().parallel_for(params.num_partitions, evaluate);
      } else {
        for (std::size_t p = 0; p < params.num_partitions; ++p) {
          evaluate(p);
        }
      }

      // A candidate slot stays disengaged if its evaluation never ran
      // (e.g. a sibling threw and parallel_for rethrew after this round's
      // remaining work was drained) — never dereference blindly.
      std::size_t best_p = params.num_partitions;
      for (std::size_t p = 0; p < params.num_partitions; ++p) {
        if (!candidates[p].has_value()) {
          continue;
        }
        if (best_p == params.num_partitions ||
            candidates[p]->stats.objective <
                candidates[best_p]->stats.objective - 1e-15) {
          best_p = p;
        }
      }
      if (best_p == params.num_partitions) {
        throw std::runtime_error(
            "run_dalta: no candidate partition was evaluated");
      }

      Candidate& best = *candidates[best_p];
      for (const auto& cand : candidates) {
        if (!cand.has_value()) {
          continue;
        }
        result.cop_solves += 1;
        result.solver_iterations += cand->stats.iterations;
        result.early_stops += cand->stats.stopped_early ? 1 : 0;
      }

      // A round never makes an output worse: from the second round on, the
      // incumbent decomposition is re-scored on its partition's COP under
      // the current D, and the round's best replaces it only when strictly
      // better, by the candidate scan's rule. (Joint mode's objective is
      // the MED with the other outputs fixed, so a worse commit raises it.)
      const double best_objective = best.stats.objective;
      bool commit = true;
      if (chosen[k].has_value()) {
        OutputDecomposition& incumbent = *chosen[k];
        incumbent.objective =
            build_cop(incumbent.partition).objective(incumbent.setting);
        commit = best_objective < incumbent.objective - 1e-15;
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
        chosen[k] = OutputDecomposition{best.partition,
                                        std::move(best.setting),
                                        best_objective};
      }
      const double committed_objective = chosen[k]->objective;
      trace_counter(tracer, "dalta/committed_objective", committed_objective);

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
          worst = std::max(worst, cand->stats.objective);
        }
        QorRecorder::OutputRecord rec;
        rec.stage = "dalta";
        rec.round = round;
        rec.output = k;
        rec.tried = tried;
        rec.best_objective = committed_objective;
        rec.worst_objective = worst;
        rec.error_rate =
            error_rate(exact.output(k), result.approx.output(k), dist);
        q->record_output(std::move(rec));
        q->add("dalta/partitions_tried", static_cast<double>(tried));
        q->add("dalta/commits");
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
    met->counter("dalta_runs_total", {{"stage", "dalta"}}).add();
    met->counter("dalta_rounds_total").add(params.rounds);
    met->counter("dalta_outputs_total").add(m);
    met->counter("dalta_cop_solves_total").add(result.cop_solves);
    met->histogram("dalta_run_duration_us", {{"stage", "dalta"}})
        .record(result.seconds * 1e6, ctx.run_id());
  }
  if (ctx.expired()) {
    ADSD_LOG_WARN("core/dalta", "run finished past the deadline",
                  {"stage", "dalta"}, {"rounds", params.rounds},
                  {"med", result.med}, {"seconds", result.seconds});
  } else {
    ADSD_LOG_INFO("core/dalta", "run complete", {"stage", "dalta"},
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
    rec.spec = "dalta";
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
    fin.stage = "dalta";
    fin.med = result.med;
    fin.error_rate = result.error_rate;
    const DecomposedLutNetwork net = result.to_lut_network();
    fin.lut_bits = net.total_size_bits();
    fin.flat_bits = net.total_flat_size_bits();
    fin.outputs.reserve(m);
    for (unsigned k = 0; k < m; ++k) {
      QorRecorder::FinalOutput out;
      out.error_rate =
          error_rate(exact.output(k), result.approx.output(k), dist);
      out.lut_bits = net.output(k).size_bits();
      out.flat_bits = net.output(k).flat_size_bits();
      fin.outputs.push_back(out);
    }
    q->record_final(std::move(fin));
  }
  return result;
}

}  // namespace adsd
