#include "ising/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "support/cpu_features.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/qor.hpp"
#include "support/run_context.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace adsd {

namespace {

// Metrics `engine=` label: the tail of the counter prefix ("ising/sb" ->
// "sb"), so the metric dimension matches the QoR counter namespace.
const char* engine_label(const char* telemetry_prefix) {
  const char* label = telemetry_prefix;
  for (const char* p = telemetry_prefix; *p != '\0'; ++p) {
    if (*p == '/') {
      label = p + 1;
    }
  }
  return label;
}

/// Four flip fields as independent chains: chain k adds
/// (kNeg ? -w : w)[m * stride] * s[m] over ascending m in [0, len) to
/// f[k], the term order of the spin's CSR row. A zero weight adds +-0.0,
/// which leaves an h-seeded field unchanged (h is never -0.0, and a finite
/// sum is -0.0 only when both addends are), so the terms CSR drops cost
/// nothing but time.
template <bool kNeg>
inline void add_terms4(double (&f)[4], const double* const (&w)[4],
                       std::size_t stride, const std::int8_t* s,
                       std::size_t len) {
  double f0 = f[0];
  double f1 = f[1];
  double f2 = f[2];
  double f3 = f[3];
  const double* w0 = w[0];
  const double* w1 = w[1];
  const double* w2 = w[2];
  const double* w3 = w[3];
  for (std::size_t m = 0; m < len; ++m) {
    const double sm = static_cast<double>(s[m]);
    const std::size_t o = m * stride;
    f0 += (kNeg ? -w0[o] : w0[o]) * sm;
    f1 += (kNeg ? -w1[o] : w1[o]) * sm;
    f2 += (kNeg ? -w2[o] : w2[o]) * sm;
    f3 += (kNeg ? -w3[o] : w3[o]) * sm;
  }
  f[0] = f0;
  f[1] = f1;
  f[2] = f2;
  f[3] = f3;
}

}  // namespace

CsrPlanes flatten_csr(const IsingModel& model) {
  // Flatten the CSR adjacency into separate index/weight planes so the hot
  // loop streams two homogeneous arrays instead of interleaved pairs.
  const std::size_t n = model.num_spins();
  CsrPlanes csr;
  csr.row_start.assign(n + 1, 0);
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < n; ++i) {
    nnz += model.neighbors(i).size();
    csr.row_start[i + 1] = nnz;
  }
  csr.cols.resize(nnz);
  csr.weights.resize(nnz);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t e = csr.row_start[i];
    for (const auto& [j, w] : model.neighbors(i)) {
      csr.cols[e] = j;
      csr.weights[e] = w;
      ++e;
    }
  }
  csr.h.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    csr.h[i] = model.bias(i);
  }
  return csr;
}

double default_coupling_strength(const IsingModel& model, double detuning) {
  const double rms = model.coupling_rms();
  return rms > 0.0
             ? 0.5 * detuning /
                   (rms * std::sqrt(static_cast<double>(model.num_spins())))
             : 1.0;
}

void EnsembleEnergyTracker::init(const IsingModel& model, const CsrPlanes& csr,
                                 std::span<const double> x) {
  model_ = &model;
  csr_ = &csr;
  const std::optional<BipartiteShape>& shape = model.bipartite_shape();
  const bool grouped = shape && csr.row_start.empty();
  if (!grouped && csr.row_start.size() != model.num_spins() + 1) {
    throw std::invalid_argument(
        "EnsembleEnergyTracker: CSR planes required off the column-COP "
        "plane");
  }
  plane_ = grouped ? model.bipartite_plane().data() : nullptr;
  rows_ = grouped ? shape->rows : 0;
  cols_ = grouped ? shape->cols : 0;
  n_ = model.num_spins();
  exact_ = model.exact_arithmetic();
  spins_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    spins_[i] = x[i] >= 0.0 ? std::int8_t{1} : std::int8_t{-1};
  }
  // The tracked energy starts as the from-scratch value, so it is in sync
  // with IsingModel::energy() until the first flip.
  energy_ = exact_energy();
  dirty_ = false;
}

double EnsembleEnergyTracker::csr_field(std::size_t i) const {
  double field = csr_->h[i];
  for (std::size_t e = csr_->row_start[i]; e < csr_->row_start[i + 1]; ++e) {
    field += csr_->weights[e] * static_cast<double>(spins_[csr_->cols[e]]);
  }
  return field;
}

void EnsembleEnergyTracker::flip(std::size_t i, std::int8_t new_sign) {
  // Exact flip telescope: the energy delta of flipping spin i is
  // 2 * s_i * (h_i + sum_j J_ij s_j) with the *current* tracked signs, so
  // applying flips one at a time keeps the tracked energy equal to a full
  // recomputation (up to accumulation rounding).
  const std::int8_t old_sign = spins_[i];
  energy_ += 2.0 * static_cast<double>(old_sign) * csr_field(i);
  spins_[i] = new_sign;
  dirty_ = true;
}

template <EnsembleEnergyTracker::Side kSide>
void EnsembleEnergyTracker::flip_group(const std::size_t (&group)[4],
                                       std::size_t count, double& energy) {
  // Up to four flipped spins of one side. The unused chains repeat the
  // last spin, so they overlap the others and are dropped.
  const std::size_t rows = rows_;
  const std::size_t cols = cols_;
  std::int8_t* s = spins_.data();
  std::size_t idx[4] = {};
  double f[4] = {};
  const double* w[4] = {};
  for (std::size_t k = 0; k < 4; ++k) {
    idx[k] = group[k < count ? k : count - 1];
    f[k] = csr_->h[idx[k]];
  }
  if constexpr (kSide == Side::kT) {
    // A T row: w * s_V1 over ascending rows, then (-w) * s_V2.
    for (std::size_t k = 0; k < 4; ++k) {
      w[k] = plane_ + (idx[k] - 2 * rows);
    }
    add_terms4<false>(f, w, cols, s, rows);
    add_terms4<true>(f, w, cols, s + rows, rows);
  } else {
    // A V1 row: w * s_T over ascending columns; a V2 row (-w) * s_T.
    const std::size_t first = kSide == Side::kV1 ? 0 : rows;
    for (std::size_t k = 0; k < 4; ++k) {
      w[k] = plane_ + (idx[k] - first) * cols;
    }
    add_terms4<kSide == Side::kV2>(f, w, 1, s + 2 * rows, cols);
  }
  // The deltas in ascending spin order, as the per-flip walk adds them,
  // in a local: a sign store could alias `energy` and force a reload.
  double e = energy;
  for (std::size_t k = 0; k < count; ++k) {
    const std::int8_t old_sign = s[idx[k]];
    e += 2.0 * static_cast<double>(old_sign) * f[k];
    s[idx[k]] = static_cast<std::int8_t>(-old_sign);
  }
  energy = e;
}

template <EnsembleEnergyTracker::Side kSide>
std::size_t EnsembleEnergyTracker::flip_side(const double* x,
                                             std::size_t begin,
                                             std::size_t end, double& energy) {
  // Finds the flipped spins of [begin, end) 64 at a time in one
  // branch-free (vectorized) pass into a byte per spin, packs the bytes
  // into a mask, eight per multiply, and hands the flipped spins on in
  // ascending groups of four.
  const std::int8_t* s = spins_.data();
  std::size_t group[4] = {};
  std::size_t count = 0;
  std::size_t flips = 0;
  for (std::size_t i0 = begin; i0 < end; i0 += 64) {
    const std::size_t len = std::min<std::size_t>(64, end - i0);
    std::uint8_t flipped[64] = {};
    for (std::size_t k = 0; k < len; ++k) {
      flipped[k] = (x[i0 + k] >= 0.0) != (s[i0 + k] > 0) ? 1 : 0;
    }
    std::uint64_t mask = 0;
    for (std::size_t q = 0; q < 8; ++q) {
      // Byte k of `bytes` (0 or 1) lands on bit 56 + k of the product.
      std::uint64_t bytes = 0;
      std::memcpy(&bytes, flipped + 8 * q, 8);
      mask |= ((bytes * 0x0102040810204080u) >> 56) << (8 * q);
    }
    for (; mask != 0; mask &= mask - 1) {
      group[count++] = i0 + static_cast<std::size_t>(std::countr_zero(mask));
      if (count == 4) {
        flip_group<kSide>(group, 4, energy);
        flips += 4;
        count = 0;
      }
    }
  }
  if (count > 0) {
    flip_group<kSide>(group, count, energy);
    flips += count;
  }
  return flips;
}

void EnsembleEnergyTracker::sample(std::span<const double> x) {
  if (plane_ != nullptr) {
    // Column COP: V fields read only T signs and T fields only V signs,
    // and the per-flip walk flips every V spin before any T spin. So each
    // side's fields are independent chains, the V side's against the old
    // T signs and the T side's against the new V signs, and the deltas
    // still add in ascending spin order.
    const std::size_t rows = rows_;
    double energy = energy_;
    std::size_t flips = flip_side<Side::kV1>(x.data(), 0, rows, energy);
    flips += flip_side<Side::kV2>(x.data(), rows, 2 * rows, energy);
    flips += flip_side<Side::kT>(x.data(), 2 * rows, n_, energy);
    energy_ = energy;
    if (flips != 0) {
      dirty_ = true;
    }
    return;
  }
  for (std::size_t i = 0; i < n_; ++i) {
    const std::int8_t ns = x[i] >= 0.0 ? std::int8_t{1} : std::int8_t{-1};
    if (ns != spins_[i]) {
      flip(i, ns);
    }
  }
}

double EnsembleEnergyTracker::consider_all(IsingSolveResult& result) {
  // The tracked energy can drift from the from-scratch value only by
  // flip-accumulation rounding (~1e-15 relative), so a tracked energy
  // within this slack of the incumbent triggers one exact recomputation;
  // anything else is filtered in O(1). The recomputed value is snapped
  // back into the tracker, which also re-synchronizes the drift. Where no
  // sum can round, the tracked energy is that value already.
  const double tracked = energy_;
  const double slack = 1e-9 + 1e-12 * std::fabs(result.energy);
  if (dirty_ && energy_ < result.energy + slack) {
    if (!exact_) {
      energy_ = exact_energy();
    }
    dirty_ = false;
    if (energy_ < result.energy) {
      result.energy = energy_;
      result.spins.assign(spins_.begin(), spins_.end());
    }
  }
  return std::min(tracked, energy_);
}

IsingSolveResult run_engine(IsingEngine& engine) {
  Timer run_timer;
  const RunContext* ctx = engine.context();
  const char* tprefix = engine.telemetry_prefix();
  const char* trprefix = engine.trace_prefix();

  IsingSolveResult result;
  engine.begin(result);

  // Deadline-at-entry: a run started after the context deadline already
  // expired (a restart boundary of an anytime solver looping tiny solves)
  // must not burn a whole schedule before the first sampling point notices.
  // Returns the initial state, flagged as an early stop.
  if (ctx != nullptr && ctx->expired()) {
    result.stopped_early = true;
    trace_instant(ctx->tracer(), std::string(trprefix) + "/deadline_hit");
    if (MetricsRegistry* m = ctx->metrics()) {
      m->counter("engine_deadline_hits_total",
                 {{"engine", engine_label(tprefix)}})
          .add();
    }
    ADSD_LOG_WARN("ising/engine", "deadline expired at engine entry",
                  {"engine", engine_label(tprefix)},
                  {"max_iterations", engine.max_iterations()});
    return result;
  }
  const double initial_energy = result.energy;

  const std::size_t sample_every = engine.sample_interval();
  DynamicStopMonitor monitor(engine.stop_params());

  // Convergence trace: the best-energy trajectory and the dynamic stop's
  // variance reading at every sampling point, plus an instant for why the
  // run ended. Recording only reads solver state, so traced runs stay
  // bit-identical to untraced ones.
  TraceRecorder* tracer = ctx != nullptr ? ctx->tracer() : nullptr;
  // Span and counter names are composed only when a tracer is armed, once
  // per run: the off path is the pointer test alone.
  TraceSpan run_span;
  std::string best_counter;
  std::string variance_counter;
  if (tracer != nullptr) {
    run_span = TraceSpan(tracer, std::string(trprefix) + "/run");
    best_counter = std::string(trprefix) + "/best_energy";
    variance_counter = std::string(trprefix) + "/stop_variance";
  }
  std::size_t energy_samples = 0;

  // Best-energy-vs-iteration curve for the QoR export. The name is built
  // only when recording is armed; the off path is the pointer test alone.
  QorRecorder* qor = ctx != nullptr ? ctx->qor() : nullptr;
  std::uint64_t curve_id = 0;
  if (qor != nullptr) {
    curve_id = qor->begin_curve(engine.curve_name());
  }
  if (ctx != nullptr) {
    engine.on_run_start();
  }
  bool budget_checked = false;

  // Sampling points fall after every sample_every iterations. Each
  // advance() integrates up to the next one or to the cap, which is
  // re-read per chunk because the budget rescale may shrink it; a
  // countdown finds the points without a division.
  std::size_t until_sample = sample_every;
  std::size_t iter = 0;  // iterations done
  while (iter < engine.max_iterations()) {
    const std::size_t steps =
        std::min(until_sample, engine.max_iterations() - iter);
    engine.advance(iter, steps);
    iter += steps;
    until_sample -= steps;
    if (until_sample == 0) {
      until_sample = sample_every;
      const double best_now = engine.observe(result);
      ++energy_samples;
      trace_counter(tracer, best_counter, best_now);
      if (qor != nullptr) {
        qor->curve_point(curve_id, iter, best_now);
      }

      // Budget-aware iteration rescale: when a context deadline implies
      // fewer sampling points than configured, shrink max_iterations at the
      // first sampling point (the one timing estimate available) so a
      // pump-ramp engine completes its shortened schedule by the deadline
      // instead of being truncated mid-ramp. Guarded on the deadline alone —
      // budget-less runs never take this path, so fixed-seed results stay
      // bit-identical with QoR on or off.
      if (!budget_checked) {
        budget_checked = true;
        if (engine.supports_budget_rescale() && ctx != nullptr &&
            ctx->deadline().budget() > 0.0) {
          const double per_step =
              run_timer.seconds() / static_cast<double>(iter);
          const double remaining = ctx->deadline().remaining();
          if (per_step > 0.0) {
            const double affordable_d =
                static_cast<double>(iter) + 0.9 * remaining / per_step;
            if (affordable_d < static_cast<double>(engine.max_iterations())) {
              const std::size_t affordable = std::max<std::size_t>(
                  static_cast<std::size_t>(affordable_d), iter + 1);
              if (affordable < engine.max_iterations()) {
                const std::size_t dropped =
                    engine.max_iterations() - affordable;
                engine.apply_budget_rescale(affordable);
                if (MetricsRegistry* m = ctx->metrics()) {
                  m->counter("engine_budget_rescales_total",
                             {{"engine", engine_label(tprefix)}})
                      .add();
                }
                if (qor != nullptr) {
                  qor->add(std::string(tprefix) + "/budget_rescales");
                  qor->sample(
                      std::string(tprefix) + "/rescaled_max_iterations",
                      static_cast<double>(affordable));
                }
                trace_instant(tracer,
                              std::string(trprefix) + "/budget_rescale");
                ADSD_LOG_INFO("ising/engine",
                              "budget rescale shrank the schedule",
                              {"engine", engine_label(tprefix)},
                              {"max_iterations", affordable},
                              {"dropped_iterations", dropped},
                              {"remaining_s", remaining});
              }
            }
          }
        }
      }

      const bool variance_stop = monitor.observe(best_now);
      if (tracer != nullptr) {
        // After observe(): the window the stop decision just read.
        tracer->counter(variance_counter, monitor.current_variance());
      }
      const bool deadline_stop =
          !variance_stop && ctx != nullptr && ctx->expired();
      if (variance_stop || deadline_stop) {
        result.stopped_early = true;
        if (MetricsRegistry* m = ctx != nullptr ? ctx->metrics() : nullptr) {
          m->counter(variance_stop ? "engine_dynamic_stops_total"
                                   : "engine_deadline_hits_total",
                     {{"engine", engine_label(tprefix)}})
              .add();
        }
        if (tracer != nullptr) {
          tracer->instant(std::string(trprefix) +
                          (variance_stop ? "/dynamic_stop" : "/deadline_hit"));
        }
        if (variance_stop) {
          ADSD_LOG_DEBUG("ising/engine", "dynamic stop",
                         {"engine", engine_label(tprefix)},
                         {"iterations", iter},
                         {"best_energy", best_now});
        } else {
          ADSD_LOG_WARN("ising/engine", "deadline hit mid-run",
                        {"engine", engine_label(tprefix)},
                        {"iterations", iter},
                        {"best_energy", best_now});
        }
        break;
      }
    }
  }

  engine.finish(result);
  result.iterations = iter;
  if (MetricsRegistry* m = ctx != nullptr ? ctx->metrics() : nullptr) {
    // Per-engine run cadence plus the scrape-facing latency/quality
    // distributions: how long one engine run takes (split by the resolved
    // kernel tier) and how much energy the run recovered from its initial
    // state. Reads of finished state only — armed runs stay bit-identical
    // to disarmed ones.
    const char* engine_name = engine_label(tprefix);
    m->counter("engine_runs_total", {{"engine", engine_name}}).add();
    m->counter("engine_iterations_total", {{"engine", engine_name}})
        .add(iter);
    m->counter("engine_energy_samples_total", {{"engine", engine_name}})
        .add(energy_samples);
    // The exemplar joins this scrape-facing series to the run that
    // produced its latest observation (see DESIGN.md §4.10 provenance).
    m->histogram("solve_latency_us", {{"engine", engine_name},
                                      {"kernel", engine.kernel_label()}})
        .record(run_timer.seconds() * 1e6, ctx->run_id());
    m->histogram("engine_energy_improvement", {{"engine", engine_name}})
        .record(initial_energy - result.energy);
  }
  return result;
}

EnsembleEngineBase::EnsembleEngineBase(const IsingModel& model,
                                       kernels::ForceKernel requested,
                                       bool discrete, const char* label)
    : model_(model), n_(model.num_spins()) {
  if (!model.finalized()) {
    throw std::invalid_argument(std::string(label) +
                                ": model must be finalized");
  }

  // Resolve the force kernel once: the bipartite layout at the
  // cpuid-probed ISA tier on a column-COP model, the CSR kernel otherwise
  // (or when the caller pins it through the kernel parameter). The
  // dispatch never fails.
  const std::optional<BipartiteShape>& shape = model.bipartite_shape();
  kernel_ = kernels::select_force_kernel(
      requested, cpu_features(), 1,
      shape ? kernels::ModelShape::kBipartite : kernels::ModelShape::kGeneric);
  force_fn_ = discrete ? kernel_.discrete : kernel_.continuous;
  planes_ = kernels::ForcePlanes{};
  if (kernel_.kind == kernels::ForceKernel::kBipartite) {
    // The tiles come straight from the plane; no CSR is derived.
    csr_.h.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      csr_.h[i] = model.bias(i);
    }
    bipartite_ = kernels::build_bipartite(model.bipartite_plane().data(),
                                          shape->rows, shape->cols);
    bipartite_.bind(planes_);
  } else {
    csr_ = flatten_csr(model);
    planes_.row_start = csr_.row_start.data();
    planes_.cols = csr_.cols.data();
    planes_.weights = csr_.weights.data();
  }
  planes_.h = csr_.h.data();
  planes_.n = n_;

  x_.assign(n_, 0.0);
  y_.assign(n_, 0.0);
  force_.assign(n_, 0.0);
  planes_.x = x_.data();
  planes_.force = force_.data();
}

void EnsembleEngineBase::compute_forces() {
  // One pass over all rows. Every kernel preserves the per-row per-edge
  // accumulation order of the scalar reference (see
  // ising/kernels/force_kernels.hpp), which is what keeps trajectories
  // bit-identical to the scalar references.
  force_fn_(planes_);
}

void EnsembleEngineBase::begin(IsingSolveResult& result) {
  result.spins.assign(tracker_.spins().begin(), tracker_.spins().end());
  result.energy = tracker_.energy();
}

void EnsembleEngineBase::on_run_start() {
  // Report which force kernel dispatch resolved to, so QoR records and
  // metrics show whether the SIMD / bipartite path was actually taken.
  if (QorRecorder* qor = ctx_->qor()) {
    qor->add(std::string(telemetry_prefix()) + "/kernel/" + kernel_.name);
  }
  if (MetricsRegistry* m = ctx_->metrics()) {
    m->counter("kernel_invocations_total", {{"kernel", kernel_.name}}).add();
  }
}

double EnsembleEngineBase::observe(IsingSolveResult& result) {
  if (hook_) {
    hook_(positions(), momenta());
  }
  sample();
  return tracker_.consider_all(result);
}

void EnsembleEngineBase::finish(IsingSolveResult& result) {
  sample();
  tracker_.consider_all(result);
}

IsingSolveResult EnsembleEngineBase::run(const SbSampleHook& hook) {
  hook_ = hook;
  IsingSolveResult result = run_engine(*this);
  hook_ = nullptr;
  return result;
}

}  // namespace adsd
