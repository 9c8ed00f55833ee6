#include "core/nondisjoint_dalta.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/column_cop.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace adsd {

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

struct NdCandidate {
  NonDisjointPartition partition;
  NonDisjointSetting setting;
  double objective = 0.0;
  std::size_t iterations = 0;
};

}  // namespace

NdDaltaResult run_dalta_nd(const TruthTable& exact,
                           const InputDistribution& dist,
                           const NdDaltaParams& params,
                           const CoreCopSolver& solver) {
  RunContext::Options opts;
  opts.seed = params.seed;
  opts.parallel = params.parallel;
  const RunContext ctx(opts);
  return run_dalta_nd(exact, dist, params, solver, ctx);
}

NdDaltaResult run_dalta_nd(const TruthTable& exact,
                           const InputDistribution& dist,
                           const NdDaltaParams& params,
                           const CoreCopSolver& solver,
                           const RunContext& ctx) {
  const unsigned n = exact.num_inputs();
  const unsigned m = exact.num_outputs();
  if (dist.num_inputs() != n) {
    throw std::invalid_argument("run_dalta_nd: distribution shape mismatch");
  }
  if (params.free_size == 0 ||
      params.free_size + params.shared_size >= n) {
    throw std::invalid_argument("run_dalta_nd: bad free/shared sizes");
  }
  if (params.num_partitions == 0 || params.rounds == 0) {
    throw std::invalid_argument("run_dalta_nd: need partitions and rounds");
  }

  Timer timer;
  TraceRecorder* tracer = ctx.tracer();
  const TraceSpan run_trace(tracer, "dalta_nd/run");
  const std::uint64_t patterns = exact.num_patterns();

  std::vector<std::int64_t> exact_words(patterns);
  std::vector<std::int64_t> approx_words(patterns);
  for (std::uint64_t x = 0; x < patterns; ++x) {
    exact_words[x] = static_cast<std::int64_t>(exact.word(x));
    approx_words[x] = exact_words[x];
  }

  NdDaltaResult result{exact, {}, 0.0, 0.0, 0.0, 0, 0};
  std::vector<std::optional<NdOutputDecomposition>> chosen(m);
  std::vector<double> d_by_input;
  // As in run_dalta: a slice is re-scored only when the solver does not
  // report its setting's objective.
  const bool rescore = !solver.scores_returned_setting();

  for (std::size_t round = 0; round < params.rounds; ++round) {
    const TraceSpan round_trace(tracer, "dalta_nd/round");
    for (unsigned kk = 0; kk < m; ++kk) {
      const unsigned k = m - 1 - kk;
      const TraceSpan output_trace(tracer, "dalta_nd/output");

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

      // Same stream tag as run_dalta, so shared_size == 0 draws the same
      // partition sequence as the disjoint flow.
      Rng part_rng = ctx.stream("dalta/partitions", round, k);
      std::vector<NonDisjointPartition> candidates_w;
      candidates_w.reserve(params.num_partitions);
      for (std::size_t p = 0; p < params.num_partitions; ++p) {
        candidates_w.push_back(NonDisjointPartition::random(
            n, params.free_size, params.shared_size, part_rng));
      }

      std::vector<std::optional<NdCandidate>> candidates(
          params.num_partitions);
      // Slice sl of candidate p as a COP, built in one gather pass
      // (ColumnCop::gather) over the slice's cells (slice_cells).
      const CopSource source{exact.output(k), dist, params.mode, d_by_input,
                             static_cast<double>(std::int64_t{1} << k)};
      // Per-thread scratch reused across slices, candidates and rounds;
      // the COP stays valid until the thread builds its next one.
      auto build_cop = [&](const NonDisjointPartition& w,
                           std::uint64_t sl) -> const ColumnCop& {
        thread_local CellPatterns cells;
        thread_local std::optional<ColumnCop> cop;
        slice_cells(w, sl, cells);
        return ColumnCop::gather_into(source, cells, cop);
      };
      // Slice 0 must reuse run_dalta's per-candidate seed so that
      // shared_size == 0 reproduces the disjoint flow exactly; the
      // four-counter stream_seed guarantees that at sl == 0 by
      // construction.
      auto slice_seed = [&](std::size_t p, std::uint64_t sl) {
        return ctx.stream_seed("dalta/candidate", round, k, p, sl);
      };
      auto evaluate = [&](std::size_t p) {
        // Lands on the evaluating pool worker's trace timeline (see
        // run_dalta's candidate span).
        const TraceSpan candidate_trace(tracer, "dalta_nd/candidate");
        const NonDisjointPartition& w = candidates_w[p];
        NdCandidate cand{w, {}, 0.0, 0};

        for (std::uint64_t sl = 0; sl < w.num_slices(); ++sl) {
          const ColumnCop& cop = build_cop(w, sl);
          CoreSolveStats stats;
          ColumnSetting cs = solver.solve(cop, ctx, slice_seed(p, sl),
                                          &stats);
          cand.objective += rescore ? cop.objective(cs) : stats.objective;
          cand.iterations += stats.iterations;
          cand.setting.slices.push_back(std::move(cs));
        }
        candidates[p] = std::move(cand);
      };

      const std::uint64_t slices = candidates_w.front().num_slices();
      if (solver.batched() && params.num_partitions * slices > 1) {
        // Batched fan-out: the whole (partition, slice) grid flattened
        // into one solve_batch call with the same per-slice seeds as the
        // looped path.
        const TraceSpan batch_trace(tracer, "dalta_nd/candidate_batch");
        CellPatterns cells;
        std::vector<ColumnCop> cops;
        cops.reserve(params.num_partitions * slices);
        std::vector<std::uint64_t> seeds;
        seeds.reserve(params.num_partitions * slices);
        for (std::size_t p = 0; p < params.num_partitions; ++p) {
          for (std::uint64_t sl = 0; sl < slices; ++sl) {
            slice_cells(candidates_w[p], sl, cells);
            cops.push_back(ColumnCop::gather(source, cells));
            seeds.push_back(slice_seed(p, sl));
          }
        }
        std::vector<CoreSolveStats> stats;
        std::vector<ColumnSetting> settings =
            solver.solve_batch(cops, ctx, seeds, &stats);
        for (std::size_t p = 0; p < params.num_partitions; ++p) {
          NdCandidate cand{candidates_w[p], {}, 0.0, 0};
          for (std::uint64_t sl = 0; sl < slices; ++sl) {
            const std::size_t i = p * slices + sl;
            cand.objective +=
                rescore ? cops[i].objective(settings[i]) : stats[i].objective;
            cand.iterations += stats[i].iterations;
            cand.setting.slices.push_back(std::move(settings[i]));
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

      // Guard disengaged slots (evaluation skipped after a sibling threw).
      std::size_t best_p = params.num_partitions;
      for (std::size_t p = 0; p < params.num_partitions; ++p) {
        if (!candidates[p].has_value()) {
          continue;
        }
        if (best_p == params.num_partitions ||
            candidates[p]->objective < candidates[best_p]->objective - 1e-15) {
          best_p = p;
        }
      }
      if (best_p == params.num_partitions) {
        throw std::runtime_error(
            "run_dalta_nd: no candidate partition was evaluated");
      }
      for (const auto& cand : candidates) {
        if (!cand.has_value()) {
          continue;
        }
        result.cop_solves += cand->setting.slices.size();
        result.solver_iterations += cand->iterations;
      }

      // A round never makes an output worse (see run_dalta): the
      // incumbent is re-scored slice by slice under the current D and
      // replaced only by a strictly better candidate.
      NdCandidate& best = *candidates[best_p];
      const double best_objective = best.objective;
      bool commit = true;
      if (chosen[k].has_value()) {
        NdOutputDecomposition& incumbent = *chosen[k];
        double objective = 0.0;
        for (std::uint64_t sl = 0; sl < incumbent.partition.num_slices();
             ++sl) {
          objective += build_cop(incumbent.partition, sl)
                           .objective(incumbent.setting.slices[sl]);
        }
        incumbent.objective = objective;
        commit = best_objective < objective - 1e-15;
      }
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
        chosen[k] = NdOutputDecomposition{best.partition,
                                          std::move(best.setting),
                                          best_objective};
      }

      // Quality observability (reads only; see run_dalta's commit site).
      if (QorRecorder* q = ctx.qor()) {
        std::size_t tried = 0;
        double worst = best_objective;
        for (const auto& cand : candidates) {
          if (!cand.has_value()) {
            continue;
          }
          ++tried;
          worst = std::max(worst, cand->objective);
        }
        QorRecorder::OutputRecord rec;
        rec.stage = "dalta_nd";
        rec.round = round;
        rec.output = k;
        rec.tried = tried;
        rec.best_objective = chosen[k]->objective;
        rec.worst_objective = worst;
        rec.error_rate =
            error_rate(exact.output(k), result.approx.output(k), dist);
        q->record_output(std::move(rec));
        q->add("dalta_nd/partitions_tried", static_cast<double>(tried));
        q->add("dalta_nd/commits");
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
    met->counter("dalta_runs_total", {{"stage", "dalta_nd"}}).add();
    met->counter("dalta_rounds_total").add(params.rounds);
    met->counter("dalta_outputs_total").add(m);
    met->counter("dalta_cop_solves_total").add(result.cop_solves);
    met->histogram("dalta_run_duration_us", {{"stage", "dalta_nd"}})
        .record(result.seconds * 1e6, ctx.run_id());
  }
  if (ctx.expired()) {
    ADSD_LOG_WARN("core/dalta", "run finished past the deadline",
                  {"stage", "dalta_nd"}, {"rounds", params.rounds},
                  {"med", result.med}, {"seconds", result.seconds});
  } else {
    ADSD_LOG_INFO("core/dalta", "run complete", {"stage", "dalta_nd"},
                  {"outputs", m}, {"rounds", params.rounds},
                  {"cop_solves", result.cop_solves}, {"med", result.med},
                  {"seconds", result.seconds});
  }
  if (MetricsRegistry::armed() != nullptr ||
      FlightRecorder::global().postmortem_armed()) {
    FlightRecorder::SolveRecord rec;
    rec.spec = "dalta_nd";
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
    fin.stage = "dalta_nd";
    fin.med = result.med;
    fin.error_rate = result.error_rate;
    fin.lut_bits = result.total_size_bits();
    fin.flat_bits = result.total_flat_size_bits();
    fin.outputs.reserve(m);
    for (unsigned k = 0; k < m; ++k) {
      const auto& out = result.outputs[k];
      QorRecorder::FinalOutput rec;
      rec.error_rate =
          error_rate(exact.output(k), result.approx.output(k), dist);
      rec.lut_bits =
          out.partition.phi_lut_bits() + out.partition.f_lut_bits();
      rec.flat_bits = std::uint64_t{1} << out.partition.num_inputs();
      fin.outputs.push_back(rec);
    }
    q->record_final(std::move(fin));
  }
  return result;
}

}  // namespace adsd
