#include "ising/bsb_pack.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "ising/stop.hpp"
#include "support/cpu_features.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"

namespace adsd {

BsbPackEngine::BsbPackEngine(std::span<const PackMember> members,
                             const SbParams& params, std::size_t replicas)
    : members_(members.begin(), members.end()),
      params_(params),
      R_(replicas),
      S_(members.size()),
      active_(members.size()) {
  if (members_.empty()) {
    throw std::invalid_argument("BsbPackEngine: need >= 1 member");
  }
  if (replicas == 0) {
    throw std::invalid_argument("BsbPackEngine: need >= 1 replica");
  }
  if (params.max_iterations == 0 || params.dt <= 0.0 ||
      params.detuning <= 0.0) {
    throw std::invalid_argument("BsbPackEngine: bad parameters");
  }
  for (const PackMember& m : members_) {
    if (m.model == nullptr || !m.model->finalized()) {
      throw std::invalid_argument(
          "BsbPackEngine: every member model must be finalized");
    }
  }
  // Mixed spin counts are allowed: the pack is padded to the maximum n
  // with inert spins (zero bias/coupling rows keep the padded lanes at
  // exactly 0.0 forever), so every member still matches its standalone
  // trajectory bit for bit.
  const std::size_t M = S_;
  nspins_.resize(M);
  n_ = 0;
  for (std::size_t m = 0; m < M; ++m) {
    nspins_[m] = members_[m].model->num_spins();
    n_ = std::max(n_, nspins_[m]);
    if (!members_[m].initial_positions.empty() &&
        members_[m].initial_positions.size() != nspins_[m]) {
      throw std::invalid_argument("BsbPackEngine: initial_positions size");
    }
  }
  // Per-member c0 from the member's own coupling RMS and spin count — the
  // exact standalone expression, so a packed member integrates with the
  // same coupling strength it would alone. Slot m starts out holding
  // member m; retirement swaps c0 along with the rest of the slot state.
  c0_slot_.resize(M);
  for (std::size_t m = 0; m < M; ++m) {
    double c0 = params_.c0;
    if (c0 <= 0.0) {
      const double rms = members_[m].model->coupling_rms();
      c0 = rms > 0.0
               ? 0.5 * params_.detuning /
                     (rms * std::sqrt(static_cast<double>(nspins_[m])))
               : 1.0;
    }
    c0_slot_[m] = c0;
  }

  // Union sparsity pattern across the members (ascending columns per
  // row): the weight planes and the pack kernels cover only the columns
  // SOME member actually couples, so columns that are structural zeros
  // in every slot cost neither bandwidth nor flops. DALTA packs carve
  // same-template instances, whose union is ~one member's edge count —
  // half an n x n plane on the K = 64 bench point. A union column a
  // member lacks adds only +-0.0 to that member's h-seeded accumulator,
  // which is never -0.0 (IsingModel stores biases canonically), and the
  // member's own edges keep their ascending order, so every partial sum —
  // and therefore every trajectory — is bit-identical to the member's
  // standalone CSR iteration. One bitset sweep per row (finalize() stores
  // neighbors ascending; extraction re-sorts anyway).
  const std::size_t words = (n_ + 63) / 64;
  std::vector<std::uint64_t> rowbits(words);
  urow_start_.assign(n_ + 1, 0);
  ucols_.clear();
  for (std::size_t i = 0; i < n_; ++i) {
    std::fill(rowbits.begin(), rowbits.end(), 0);
    for (std::size_t m = 0; m < M; ++m) {
      if (i >= nspins_[m]) {
        continue;
      }
      for (const auto& [j, w] : members_[m].model->neighbors(i)) {
        rowbits[static_cast<std::size_t>(j) >> 6] |=
            std::uint64_t{1} << (static_cast<std::size_t>(j) & 63);
      }
    }
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = rowbits[w];
      while (bits != 0) {
        ucols_.push_back(static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
        bits &= bits - 1;
      }
    }
    urow_start_[i + 1] = static_cast<std::uint32_t>(ucols_.size());
  }
  uedges_ = ucols_.size();

  // Slot-tile width: each tile's per-slot coupling rows (uedges * tile
  // doubles) fit in ~1 MB — half a typical L2 — leaving room for the
  // tile's state planes; the widest multiple of 8 slots that fits, at
  // least 8. Measured on this host class (K = 64, n = 64): contiguous
  // 1 MB tiles advanced a whole sampling block at a time run the
  // force+Euler loop ~2.4x faster than a monolithic 2 MB plane, which is
  // L1-fill-bound when streamed every step.
  constexpr std::size_t kTileTargetDoubles = (1u << 20) / sizeof(double);
  std::size_t t = kTileTargetDoubles / std::max<std::size_t>(uedges_, 1);
  t = std::max<std::size_t>(t - t % 8, 8);
  tile_ = std::min(t, S_);
  tiles_ = (S_ + tile_ - 1) / tile_;
  xstride_ = n_ * R_ * tile_;
  hstride_ = n_ * tile_;
  wstride_ = uedges_ * tile_;
  x_.assign(tiles_ * xstride_, 0.0);
  y_.assign(tiles_ * xstride_, 0.0);
  force_.assign(tiles_ * xstride_, 0.0);

  // Per-slot union weight/bias planes, tile-major: wp[wpos(e, s)] is
  // slot s's weight on union edge e, 0.0 where that slot lacks the edge
  // (or where the edge's row is a padded row of a smaller member).
  hp_.assign(tiles_ * hstride_, 0.0);
  wp_.assign(tiles_ * wstride_, 0.0);
  slot_of_member_.resize(M);
  member_of_slot_.resize(M);
  for (std::size_t m = 0; m < M; ++m) {
    slot_of_member_[m] = m;
    member_of_slot_[m] = m;
    const IsingModel& model = *members_[m].model;
    double* hm = hp_.data() + (m / tile_) * hstride_ + m % tile_;
    for (std::size_t i = 0; i < nspins_[m]; ++i) {
      hm[i * tile_] = model.bias(i);
    }
  }
  // Weight-plane fill, row-outer/slot-inner: all slots of a tile write
  // row i's union block while it is hot, instead of each member
  // streaming the whole multi-MB plane with partial-line writes. Plane
  // construction is on the packed path's critical path — the engine is
  // rebuilt per restart attempt. The member's ascending neighbors merge
  // into the ascending union slice with one forward cursor per slot.
  for (std::size_t t = 0; t < tiles_; ++t) {
    const std::size_t base = t * tile_;
    const std::size_t at = std::min(tile_, S_ - base);
    double* wt = wp_.data() + t * wstride_;
    for (std::size_t i = 0; i < n_; ++i) {
      double* wrow = wt + static_cast<std::size_t>(urow_start_[i]) * tile_;
      for (std::size_t u = 0; u < at; ++u) {
        const std::size_t m = base + u;
        if (i >= nspins_[m]) {
          continue;
        }
        std::size_t e = urow_start_[i];
        for (const auto& [j, w] : members_[m].model->neighbors(i)) {
          while (ucols_[e] != static_cast<std::uint32_t>(j)) {
            ++e;
          }
          wrow[(e - urow_start_[i]) * tile_ + u] = w;
          ++e;
        }
      }
    }
  }
  pack_kernel_ =
      kernels::select_pack_force_kernel(params_.kernel, cpu_features());
  pack_fn_ = params_.discrete ? pack_kernel_.discrete
                              : pack_kernel_.continuous;
  kernel_name_ = pack_kernel_.name;

  // Standalone replica seeding per member: Rng(seed + r * 0x9e3779b9),
  // x from initial_positions first, then the momenta sweep over the
  // member's own spin count — the same draw order as BsbBatchEngine.
  // Padded lanes of smaller members stay at the 0.0 the planes were
  // filled with.
  for (std::size_t m = 0; m < M; ++m) {
    const PackMember& member = members_[m];
    const std::size_t nm = nspins_[m];
    for (std::size_t r = 0; r < R_; ++r) {
      Rng rng(member.seed + 0x9e3779b9u * r);
      if (!member.initial_positions.empty()) {
        for (std::size_t i = 0; i < nm; ++i) {
          x_[xpos(i * R_ + r, m)] = member.initial_positions[i];
        }
      }
      for (std::size_t i = 0; i < nm; ++i) {
        y_[xpos(i * R_ + r, m)] = rng.next_double(-0.1, 0.1);
      }
    }
  }

  spins_.resize(M * n_ * R_);
  for (std::size_t m = 0; m < M; ++m) {
    for (std::size_t i = 0; i < nspins_[m]; ++i) {
      for (std::size_t r = 0; r < R_; ++r) {
        spins_[m * n_ * R_ + i * R_ + r] =
            member_x(m, i * R_ + r) >= 0.0 ? std::int8_t{1} : std::int8_t{-1};
      }
    }
  }
  scratch_spins_.resize(n_);
  scratch_x_.resize(n_ * R_);
  scratch_y_.resize(n_ * R_);
  energies_.resize(M * R_);
  dirty_.assign(M * R_, 0);
  for (std::size_t m = 0; m < M; ++m) {
    for (std::size_t r = 0; r < R_; ++r) {
      energies_[m * R_ + r] = exact_energy(m, r);
    }
  }
}

double BsbPackEngine::member_x(std::size_t m, std::size_t lane) const {
  return x_[xpos(lane, slot_of_member_[m])];
}

void BsbPackEngine::gather_member(std::size_t m, std::vector<double>& x_out,
                                  std::vector<double>& y_out) const {
  const std::size_t s = slot_of_member_[m];
  const std::size_t base = (s / tile_) * xstride_ + s % tile_;
  for (std::size_t lane = 0; lane < nspins_[m] * R_; ++lane) {
    x_out[lane] = x_[base + lane * tile_];
    y_out[lane] = y_[base + lane * tile_];
  }
}

void BsbPackEngine::scatter_member(std::size_t m,
                                   const std::vector<double>& x_in,
                                   const std::vector<double>& y_in) {
  const std::size_t s = slot_of_member_[m];
  const std::size_t base = (s / tile_) * xstride_ + s % tile_;
  for (std::size_t lane = 0; lane < nspins_[m] * R_; ++lane) {
    x_[base + lane * tile_] = x_in[lane];
    y_[base + lane * tile_] = y_in[lane];
  }
}

kernels::PackForcePlanes BsbPackEngine::tile_planes(std::size_t t) {
  kernels::PackForcePlanes pp;
  pp.x = x_.data() + t * xstride_;
  pp.force = force_.data() + t * xstride_;
  pp.hp = hp_.data() + t * hstride_;
  pp.wp = wp_.data() + t * wstride_;
  pp.urow_start = urow_start_.data();
  pp.ucols = ucols_.data();
  pp.n = n_;
  pp.replicas = R_;
  pp.slots = tile_;
  pp.active = std::min(tile_, active_ - t * tile_);
  return pp;
}

void BsbPackEngine::compute_forces() {
  // Callers parallelize across whole packs (PackedCoreCopSolver); a
  // pass over one pack runs on one thread.
  for (std::size_t t = 0; t * tile_ < active_; ++t) {
    pack_fn_(tile_planes(t));
  }
}

void BsbPackEngine::advance(std::size_t steps) {
  // Time-blocked tile advance: each tile runs the whole inter-sampling
  // block of steps before the next one starts, so its coupling planes
  // stay cache-resident across the block instead of being streamed once
  // per step. Members only interact with shared engine state at sampling
  // points — there is none inside a block — and the pump ramp depends
  // only on the step index, so the tile-outer order is bit-identical to
  // the step-outer order.
  const auto total = static_cast<double>(params_.max_iterations);
  const double dt = params_.dt;
  const double detuning = params_.detuning;
  for (std::size_t t = 0; t * tile_ < active_; ++t) {
    const std::size_t base = t * tile_;
    const kernels::PackForcePlanes pp = tile_planes(t);
    const std::size_t at = pp.active;
    double* xt = x_.data() + t * xstride_;
    double* yt = y_.data() + t * xstride_;
    const double* ft = force_.data() + t * xstride_;
    const double* c0t = c0_slot_.data() + base;
    for (std::size_t b = 0; b < steps; ++b) {
      const double a = params_.detuning *
                       (static_cast<double>(step_ + b) + 1.0) / total;
      const double stiffness = detuning - a;
      pack_fn_(pp);
      for (std::size_t g = 0; g < n_ * R_; ++g) {
        double* yg = yt + g * tile_;
        double* xg = xt + g * tile_;
        const double* fg = ft + g * tile_;
        for (std::size_t u = 0; u < at; ++u) {
          // Standalone expression tree per lane, with the slot's own c0.
          yg[u] += dt * (-stiffness * xg[u] + c0t[u] * fg[u]);
          const double xk = xg[u] + dt * detuning * yg[u];
          const double lo = xk < -1.0 ? -1.0 : xk;
          const double clamped = lo > 1.0 ? 1.0 : lo;
          yg[u] = clamped == xk ? yg[u] : 0.0;
          xg[u] = clamped;
        }
      }
    }
  }
  step_ += steps;
}

void BsbPackEngine::step() { advance(1); }

void BsbPackEngine::flip(std::size_t m, std::size_t i, std::size_t r,
                         std::int8_t new_sign) {
  // The standalone flip telescope against the member's own adjacency
  // (model.neighbors order == the engine's CSR edge order).
  const std::int8_t* sm = spins_.data() + m * n_ * R_;
  const std::int8_t old_sign = sm[i * R_ + r];
  const IsingModel& model = *members_[m].model;
  double field = model.bias(i);
  for (const auto& [j, w] : model.neighbors(i)) {
    field +=
        w * static_cast<double>(sm[static_cast<std::size_t>(j) * R_ + r]);
  }
  energies_[m * R_ + r] += 2.0 * static_cast<double>(old_sign) * field;
  spins_[m * n_ * R_ + i * R_ + r] = new_sign;
  dirty_[m * R_ + r] = 1;
}

void BsbPackEngine::sample(std::size_t m) {
  // Standalone flip discovery order: i outer, r inner, over the member's
  // own spin count (padded lanes never flip — they stay exactly 0.0).
  // One base-pointer resolution per member, not one xpos() div/mod per
  // element: sampling runs once per member per sampling point and was
  // measurable against the time-blocked integration at K = 64.
  const std::size_t s = slot_of_member_[m];
  const double* xm = x_.data() + (s / tile_) * xstride_ + s % tile_;
  for (std::size_t i = 0; i < nspins_[m]; ++i) {
    for (std::size_t r = 0; r < R_; ++r) {
      const double xv = xm[(i * R_ + r) * tile_];
      const std::int8_t ns = xv >= 0.0 ? std::int8_t{1} : std::int8_t{-1};
      if (ns != spins_[m * n_ * R_ + i * R_ + r]) {
        flip(m, i, r, ns);
      }
    }
  }
}

double BsbPackEngine::exact_energy(std::size_t m, std::size_t r) {
  copy_member_spins(m, r, scratch_spins_);
  return members_[m].model->energy(scratch_spins_);
}

void BsbPackEngine::copy_member_spins(std::size_t m, std::size_t r,
                                      std::vector<std::int8_t>& out) const {
  out.resize(nspins_[m]);
  const std::int8_t* sm = spins_.data() + m * n_ * R_;
  for (std::size_t i = 0; i < nspins_[m]; ++i) {
    out[i] = sm[i * R_ + r];
  }
}

double BsbPackEngine::consider_all(std::size_t m, IsingSolveResult& result) {
  // Standalone best-energy slack filter per member (see
  // BsbBatchEngine::run): tracked energies within flip-rounding slack of
  // the incumbent trigger one from-scratch recomputation and are snapped.
  double best_now = energies_[m * R_];
  for (std::size_t r = 0; r < R_; ++r) {
    const double slack = 1e-9 + 1e-12 * std::fabs(result.energy);
    if (dirty_[m * R_ + r] != 0 &&
        energies_[m * R_ + r] < result.energy + slack) {
      const double es = exact_energy(m, r);
      energies_[m * R_ + r] = es;
      dirty_[m * R_ + r] = 0;
      if (es < result.energy) {
        result.energy = es;
        copy_member_spins(m, r, result.spins);
      }
    }
    best_now = std::min(best_now, energies_[m * R_ + r]);
  }
  return best_now;
}

void BsbPackEngine::retire_slot(std::size_t m) {
  // Swap-compact the retired member's slot out of the active prefix so
  // the pack kernels keep streaming a dense front of live instances; the
  // two slots may live in different tiles, but both sides index through
  // the same tile-major offsets. The force plane is not swapped: it is
  // recomputed from x before its next read, and kernels touch only the
  // active prefix.
  const std::size_t s = slot_of_member_[m];
  const std::size_t last = active_ - 1;
  if (s != last) {
    for (std::size_t g = 0; g < n_ * R_; ++g) {
      std::swap(x_[xpos(g, s)], x_[xpos(g, last)]);
      std::swap(y_[xpos(g, s)], y_[xpos(g, last)]);
    }
    for (std::size_t g = 0; g < n_; ++g) {
      std::swap(hp_[hpos(g, s)], hp_[hpos(g, last)]);
    }
    for (std::size_t g = 0; g < uedges_; ++g) {
      std::swap(wp_[wpos(g, s)], wp_[wpos(g, last)]);
    }
    std::swap(c0_slot_[s], c0_slot_[last]);
    const std::size_t other = member_of_slot_[last];
    member_of_slot_[s] = other;
    slot_of_member_[other] = s;
    member_of_slot_[last] = m;
    slot_of_member_[m] = last;
  }
  --active_;
}

std::vector<IsingSolveResult> BsbPackEngine::run(
    const PackPlaneHook& plane_hook) {
  const std::size_t M = members_.size();
  std::vector<IsingSolveResult> results(M);
  for (std::size_t m = 0; m < M; ++m) {
    copy_member_spins(m, 0, results[m].spins);
    results[m].energy = energies_[m * R_];
  }

  const std::size_t sample_every =
      params_.stop.sample_interval > 0 ? params_.stop.sample_interval : 10;
  std::vector<DynamicStopMonitor> monitors;
  monitors.reserve(M);
  for (std::size_t m = 0; m < M; ++m) {
    monitors.emplace_back(params_.stop);
  }

  TraceRecorder* tracer = ctx_ != nullptr ? ctx_->tracer() : nullptr;
  const TraceSpan run_span(tracer, "ising/pack/run");
  // Per-block spans: one open span per member, closed at retirement, so a
  // trace shows exactly how long each instance stayed live in the pack.
  std::vector<TraceRecorder::SpanToken> member_spans(M);
  if (tracer != nullptr) {
    for (std::size_t m = 0; m < M; ++m) {
      member_spans[m] = tracer->begin("ising/pack/member");
    }
  }

  if (QorRecorder* qor = ctx_ != nullptr ? ctx_->qor() : nullptr) {
    qor->add(std::string("ising/pack/kernel/") + kernel_name_);
  }
  MetricsRegistry* metrics = ctx_ != nullptr ? ctx_->metrics() : nullptr;
  if (metrics != nullptr) {
    metrics->counter("pack_runs_total").add();
    metrics->counter("pack_members_total").add(M);
    metrics->counter("kernel_invocations_total", {{"kernel", kernel_name_}})
        .add();
  }

  std::vector<std::uint8_t> live(M, 1);
  std::size_t retired_early = 0;

  auto finish_member = [&](std::size_t m, bool variance) {
    live[m] = 0;
    results[m].iterations = step_;
    results[m].stopped_early = true;
    ++retired_early;
    trace_instant(tracer, variance ? "ising/pack/dynamic_stop"
                                   : "ising/pack/deadline_hit");
    ADSD_LOG_DEBUG("ising/pack",
                   variance ? "member retired on dynamic stop"
                            : "member retired on deadline",
                   {"member", m}, {"step", step_}, {"active", active_ - 1});
    if (tracer != nullptr) {
      tracer->end(member_spans[m]);
    }
    retire_slot(m);
  };

  // Deadline-at-entry: a pack started after the deadline expired (e.g. a
  // later restart) must not burn a whole pump ramp before noticing.
  if (ctx_ != nullptr && ctx_->expired()) {
    ADSD_LOG_WARN("ising/pack", "deadline expired at pack entry",
                  {"members", M}, {"spins", n_});
    for (std::size_t m = 0; m < M; ++m) {
      finish_member(m, /*variance=*/false);
    }
  }

  while (step_ < params_.max_iterations && active_ > 0) {
    // Advance everyone to the next sampling point (or ramp end) in one
    // time-blocked tile sweep; the per-step loop this replaces sampled at
    // exactly these step counts, so the observable schedule is unchanged.
    const std::size_t next =
        std::min(params_.max_iterations,
                 (step_ / sample_every + 1) * sample_every);
    advance(next - step_);
    if (step_ % sample_every == 0) {
      for (std::size_t m = 0; m < M; ++m) {
        if (live[m] == 0) {
          continue;
        }
        if (plane_hook) {
          gather_member(m, scratch_x_, scratch_y_);
          plane_hook(m,
                     std::span<double>(scratch_x_.data(), nspins_[m] * R_),
                     std::span<double>(scratch_y_.data(), nspins_[m] * R_),
                     R_);
          scatter_member(m, scratch_x_, scratch_y_);
        }
        sample(m);
        const double best_now = consider_all(m, results[m]);
        // Standalone ordering: the variance verdict first, the deadline
        // only when the member did not already stop. Retirement points
        // double as the deadline-check granularity for tiny solves.
        const bool variance_stop = monitors[m].observe(best_now);
        const bool deadline_stop =
            !variance_stop && ctx_ != nullptr && ctx_->expired();
        if (variance_stop || deadline_stop) {
          finish_member(m, variance_stop);
        }
      }
    }
  }

  for (std::size_t m = 0; m < M; ++m) {
    if (live[m] == 0) {
      continue;
    }
    // Members that ran the full ramp: capture flips from any trailing
    // unsampled steps, exactly like the standalone post-loop pass.
    sample(m);
    consider_all(m, results[m]);
    results[m].iterations = step_;
    if (tracer != nullptr) {
      tracer->end(member_spans[m]);
    }
  }

  if (metrics != nullptr) {
    std::size_t member_steps = 0;
    for (std::size_t m = 0; m < M; ++m) {
      member_steps += results[m].iterations;
    }
    metrics->counter("pack_member_steps_total").add(member_steps);
    metrics->counter("pack_retired_total").add(retired_early);
  }
  return results;
}

}  // namespace adsd
