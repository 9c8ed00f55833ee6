#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/column_cop.hpp"
#include "ising/bsb.hpp"
#include "ising/doch.hpp"
#include "ising/sa.hpp"
#include "support/run_context.hpp"
#include "support/timer.hpp"

namespace adsd {

/// Flat per-solve counters, kept for call sites that aggregate by hand;
/// the context's recorders supersede them for reporting (every solve
/// records a trace span under "core/solve/<name>" plus the core_* metrics).
struct CoreSolveStats {
  double objective = 0.0;
  std::size_t iterations = 0;   // solver-specific unit (Euler steps, sweeps, nodes)
  bool stopped_early = false;   // dynamic stop / deadline fired
  bool proven_optimal = false;  // exact solvers only
};

/// Strategy interface: produce a setting (V1, V2, T) minimizing the COP
/// objective. Implementations must be deterministic for a fixed seed and
/// safe to call concurrently from multiple threads on distinct COPs.
///
/// Non-virtual interface: callers use solve(), which threads the
/// RunContext down and wraps every solve in a trace span; subclasses
/// implement do_solve(). The context-free overload runs under the
/// process-wide RunContext::fallback() with identical semantics, so
/// results never depend on which overload was called.
class CoreCopSolver {
 public:
  virtual ~CoreCopSolver() = default;
  virtual std::string name() const = 0;

  ColumnSetting solve(const ColumnCop& cop, const RunContext& ctx,
                      std::uint64_t seed, CoreSolveStats* stats = nullptr) const;

  ColumnSetting solve(const ColumnCop& cop, std::uint64_t seed,
                      CoreSolveStats* stats = nullptr) const {
    return solve(cop, RunContext::fallback(), seed, stats);
  }

  /// True when every solve's CoreSolveStats::objective is
  /// cop.objective() of the returned setting, bit for bit, so run_dalta and
  /// run_dalta_nd take it as the candidate's score instead of scoring the
  /// setting again. Solvers that report a loop's best (prop's warm
  /// incumbent, alt's restarts) keep the default and are re-scored.
  virtual bool scores_returned_setting() const { return false; }

  /// True when the solver takes a batch as one call. Callers with many
  /// independent same-shape COPs (run_dalta's P candidates per
  /// output-round) then hand the whole batch to solve_batch() instead of
  /// looping solves.
  virtual bool batched() const { return false; }

  /// Solves `cops.size()` independent instances; `seeds[i]` is instance
  /// i's solve seed (same contract as solve()). Results and stats come
  /// back in input order. The default path loops solve() — identical
  /// recording and results to a caller-side loop — while batched()
  /// solvers run do_solve_batch under one "core/solve_batch/<name>" span
  /// around the whole batch plus the usual per-solve counters.
  std::vector<ColumnSetting> solve_batch(
      std::span<const ColumnCop> cops, const RunContext& ctx,
      std::span<const std::uint64_t> seeds,
      std::vector<CoreSolveStats>* stats = nullptr) const;

 protected:
  virtual ColumnSetting do_solve(const ColumnCop& cop, const RunContext& ctx,
                                 std::uint64_t seed,
                                 CoreSolveStats* stats) const = 0;

  /// Batched counterpart of do_solve; only reached when batched() is
  /// true. `out` and `stats` are pre-sized to cops.size(). The default
  /// runs do_solve on every member, fanned out over ctx.pool() when the
  /// context allows parallelism.
  virtual void do_solve_batch(std::span<const ColumnCop> cops,
                              const RunContext& ctx,
                              std::span<const std::uint64_t> seeds,
                              std::span<ColumnSetting> out,
                              std::span<CoreSolveStats> stats) const;
};

/// What one alternate_to_fixpoint() run did.
struct FixpointRun {
  double best = 0.0;       // lowest objective seen, the start's included
  double last = 0.0;       // objective() of the setting left in s
  std::size_t sweeps = 0;  // half-step pairs that ran
};

/// Alternates the two closed-form half-steps (reset_optimal_t, then
/// reset_optimal_v) from `s`, at most `max_sweeps` times. Stops after a
/// sweep that lowered the best objective by no more than 1e-15, or after
/// one that left V1 and V2 unchanged: reset_optimal_t reads only V and
/// reset_optimal_v only T, so the next sweep would rebuild the same
/// setting, score it equal and stop there with the same best and last.
FixpointRun alternate_to_fixpoint(const ColumnCop& cop, ColumnSetting& s,
                                  std::size_t max_sweeps);

/// Which Ising engine an IsingCoreSolver drives through the shared
/// restart/Theorem-3/polish state machine (DESIGN.md §4.8). kBsb is the
/// paper's proposal; the others reuse the identical COP scaffolding with a
/// different dynamics core.
enum class IsingEngineKind {
  kBsb,   // ballistic/discrete simulated bifurcation (the paper)
  kSa,    // Metropolis simulated annealing
  kDoch,  // difference-of-convex heuristic (ADOCH with momentum > 0)
};

/// The paper's proposal: ballistic simulated bifurcation on the Ising
/// formulation, with the dynamic stop criterion (Sec. 3.3.1) and the
/// Theorem-3 column-type reset fed back at every sampling point
/// (Sec. 3.3.2). A final Theorem-3 reset polishes the decoded setting.
/// Options::engine swaps the dynamics core (SA / DOCH) while the
/// surrounding state machine — warm start, restarts, Theorem-3 feedback,
/// final polish, best selection — stays identical.
class IsingCoreSolver final : public CoreCopSolver {
 public:
  struct Options {
    /// Dynamics core driven by the restart loop. Engine-specific
    /// parameters live in the matching member below (sb / sa / doch); the
    /// shared fields (restarts, Theorem-3, polish, column seed) apply to
    /// every kind. SA ignores warm positions (spin starts are drawn, not
    /// continuous) — the warm *incumbent* still applies.
    IsingEngineKind engine = IsingEngineKind::kBsb;

    SbParams sb{};
    SaParams sa{};
    DochParams doch{};

    bool use_theorem3 = true;
    bool final_polish = true;

    /// Sequential attempts, one trajectory each, the best one wins. The
    /// first runs from the warm start; the others start cold from shifted
    /// seeds.
    std::size_t restarts = 1;

    /// Start the V1/V2 oscillators at small amplitudes spelling the two
    /// most frequent distinct columns of the exact matrix. The Ising
    /// formulation is invariant under (V1 <-> V2, T -> -T); from the
    /// standard zero start, bSB's mean-field dynamics keep the two pattern
    /// blocks identical and collapse to a rank-1 (single-pattern) solution
    /// on structured matrices. The asymmetric seed breaks the symmetry
    /// while leaving the search free to move away from it. The polished
    /// seed additionally serves as the warm incumbent: the bSB result only
    /// replaces it when strictly better, the usual contract of a
    /// warm-started anytime solver.
    bool column_seed_init = true;

    /// Strengthens the Theorem-3 intervention against the degenerate
    /// fixed point where every column selects the same pattern (the other
    /// pattern's oscillators then feel zero coupling force and the search
    /// freezes in a rank-1 solution): when the optimal T uses one pattern
    /// only or V1 == V2, the unused pattern is re-seeded with the exact
    /// column worst served by the current solution before feeding back.
    /// Requires use_theorem3.
    bool anti_collapse = true;

    /// Paper-faithful defaults for a given input size (f = s = 20 for
    /// n = 9, f = s = 10 for n = 16, epsilon = 1e-8, dynamic stop on).
    static Options paper_defaults(unsigned num_inputs);
  };

  explicit IsingCoreSolver(Options options) : options_(options) {}

  std::string name() const override {
    switch (options_.engine) {
      case IsingEngineKind::kSa:
        return "ising-sa";
      case IsingEngineKind::kDoch:
        return "ising-doch";
      case IsingEngineKind::kBsb:
        break;
    }
    return "ising-bsb";
  }

  const Options& options() const { return options_; }

 protected:
  ColumnSetting do_solve(const ColumnCop& cop, const RunContext& ctx,
                         std::uint64_t seed,
                         CoreSolveStats* stats) const override;

 private:
  Options options_;
};

/// Batched variant of IsingCoreSolver (registry spec `prop,pack=K,...`
/// with K > 0): solve_batch takes DALTA's per-output-round batch of P
/// candidate solves as one call and runs each member as the standalone
/// solve, over ctx.pool(). Every result is bit-identical to
/// IsingCoreSolver with the same options. It exists for the callers that
/// time or wrap one call per batch (DESIGN.md §4.7).
class PackedCoreCopSolver final : public CoreCopSolver {
 public:
  explicit PackedCoreCopSolver(IsingCoreSolver::Options options)
      : options_(options) {}

  std::string name() const override { return "ising-bsb-pack"; }
  bool batched() const override { return true; }

 protected:
  ColumnSetting do_solve(const ColumnCop& cop, const RunContext& ctx,
                         std::uint64_t seed,
                         CoreSolveStats* stats) const override;

 private:
  IsingCoreSolver::Options options_;
};

/// Exact oracle for tiny instances: exhaustive search over all spin
/// assignments of the Ising formulation (2r + c <= 24).
class ExhaustiveCoreSolver final : public CoreCopSolver {
 public:
  std::string name() const override { return "exhaustive"; }
  bool scores_returned_setting() const override { return true; }

 protected:
  ColumnSetting do_solve(const ColumnCop& cop, const RunContext& ctx,
                         std::uint64_t seed,
                         CoreSolveStats* stats) const override;
};

/// Lloyd-style alternating minimization: random (V1, V2), then alternate
/// the two closed-form half-steps (Theorem 3 for T; per-row majority for V)
/// to a fixpoint; best of `restarts` starts. Its iterations are the sweeps
/// that ran, summed over the restarts.
class AlternatingCoreSolver final : public CoreCopSolver {
 public:
  explicit AlternatingCoreSolver(std::size_t restarts = 8,
                                 std::size_t max_sweeps = 64)
      : restarts_(restarts), max_sweeps_(max_sweeps) {}

  std::string name() const override { return "alternating"; }

 protected:
  ColumnSetting do_solve(const ColumnCop& cop, const RunContext& ctx,
                         std::uint64_t seed,
                         CoreSolveStats* stats) const override;

 private:
  std::size_t restarts_;
  std::size_t max_sweeps_;
};

/// DALTA-style greedy heuristic (reconstruction of the fast baseline of
/// [Meng et al., ICCAD'21]; see DESIGN.md): seed the two column patterns
/// from the most frequent distinct columns of the exact matrix, assign
/// column types by Theorem 3, then up to `refine_sweeps` closed-form
/// alternating sweeps. `refine_sweeps = 0` is the most literal one-shot
/// reconstruction; the default 4 is a deliberately strengthened baseline
/// (closer to BA quality) so comparisons are conservative. Its iterations
/// are the sweeps that ran (0 for the one-shot variant).
class HeuristicCoreSolver final : public CoreCopSolver {
 public:
  explicit HeuristicCoreSolver(std::size_t refine_sweeps = 4)
      : refine_sweeps_(refine_sweeps) {}

  std::string name() const override { return "dalta-greedy"; }
  bool scores_returned_setting() const override { return true; }

 protected:
  ColumnSetting do_solve(const ColumnCop& cop, const RunContext& ctx,
                         std::uint64_t seed,
                         CoreSolveStats* stats) const override;

 private:
  std::size_t refine_sweeps_;
};

/// BA-style simulated annealing over the setting bits (reconstruction of
/// the DATE'23 baseline): Metropolis single-bit flips with incremental
/// objective deltas and a geometric cooling schedule.
class AnnealCoreSolver final : public CoreCopSolver {
 public:
  struct Options {
    std::size_t sweeps = 300;
    double beta_start = 0.5;
    double beta_end = 200.0;
    std::size_t restarts = 2;
  };

  AnnealCoreSolver() : options_(Options{}) {}
  explicit AnnealCoreSolver(Options options) : options_(options) {}

  std::string name() const override { return "ba-anneal"; }
  bool scores_returned_setting() const override { return true; }

 protected:
  ColumnSetting do_solve(const ColumnCop& cop, const RunContext& ctx,
                         std::uint64_t seed,
                         CoreSolveStats* stats) const override;

 private:
  Options options_;
};

/// Anytime exact branch-and-bound standing in for DALTA-ILP/Gurobi (see
/// DESIGN.md): depth-first over column types T in decreasing-weight order,
/// per-row separable lower bounds, alternating-minimization incumbent,
/// wall-clock budget after which the incumbent is returned (the contract
/// the paper uses for Gurobi's 3600 s cap).
class BnbCoreSolver final : public CoreCopSolver {
 public:
  struct Options {
    double time_budget_s = 2.0;  // <= 0: run to proven optimality
    std::size_t warm_restarts = 8;
  };

  BnbCoreSolver() : options_(Options{}) {}
  explicit BnbCoreSolver(Options options) : options_(options) {}

  std::string name() const override { return "ilp-bnb"; }

 protected:
  ColumnSetting do_solve(const ColumnCop& cop, const RunContext& ctx,
                         std::uint64_t seed,
                         CoreSolveStats* stats) const override;

 private:
  Options options_;
};

}  // namespace adsd
