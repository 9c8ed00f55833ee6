#include "ising/kernels/force_kernels.hpp"

#include <algorithm>
#include <stdexcept>

#include "ising/kernels/bipartite_pass.hpp"
#include "ising/kernels/force_kernels_detail.hpp"

namespace adsd::kernels {

namespace {

// ----------------------------------------------------- portable tier
//
// The lane-blocked kernel the engine shipped before the explicit-SIMD
// layer existed: W is a compile-time lane-block width, so `acc` is a
// register file and the edge loop reads W consecutive replicas of x per
// coupling without touching the force plane until the row is finished.
// W = 1 degenerates to the scalar reference kernel (same accumulation
// order per lane), which is what keeps replica trajectories bit-identical
// to solve_sb_scalar(). The compiler auto-vectorizes the W-wide inner
// loops at whatever width the build targets (SSE2 on a default x86-64
// build), which makes this tier the portable fallback on any ISA.

template <int W, bool Discrete>
void csr_lanes(const ForcePlanes& p, std::size_t lane0, std::size_t row_begin,
               std::size_t row_end) {
  const std::size_t R = p.replicas;
  const double* x = p.x + lane0;
  for (std::size_t i = row_begin; i < row_end; ++i) {
    double acc[W];
    const double hi = p.h[i];
    for (int t = 0; t < W; ++t) {
      acc[t] = hi;
    }
    const std::size_t e_end = p.row_start[i + 1];
    for (std::size_t e = p.row_start[i]; e < e_end; ++e) {
      const double w = p.weights[e];
      const double* xj = x + static_cast<std::size_t>(p.cols[e]) * R;
      for (int t = 0; t < W; ++t) {
        if constexpr (Discrete) {
          acc[t] += w * (xj[t] >= 0.0 ? 1.0 : -1.0);
        } else {
          acc[t] += w * xj[t];
        }
      }
    }
    double* fi = p.force + i * R + lane0;
    for (int t = 0; t < W; ++t) {
      fi[t] = acc[t];
    }
  }
}

template <bool Discrete>
void csr_force_scalar_impl(const ForcePlanes& p, std::size_t row_begin,
                           std::size_t row_end) {
  const std::size_t R = p.replicas;
  std::size_t lane = 0;
  while (lane + 8 <= R) {
    csr_lanes<8, Discrete>(p, lane, row_begin, row_end);
    lane += 8;
  }
  if (lane + 4 <= R) {
    csr_lanes<4, Discrete>(p, lane, row_begin, row_end);
    lane += 4;
  }
  if (lane + 2 <= R) {
    csr_lanes<2, Discrete>(p, lane, row_begin, row_end);
    lane += 2;
  }
  if (lane < R) {
    csr_lanes<1, Discrete>(p, lane, row_begin, row_end);
  }
}

// ----------------------------------------------------- portable bipartite tier
//
// R = 1 groups over BipartiteLayout for the shared interleaved pass
// (bipartite_pass.hpp), half tile blocks as on AVX2: a V group holds the
// accumulators of 8 V1 rows and of the same 8 V2 rows; per T column it
// forms p = w * x once (x's sign for dSB), adds p to the V1 side and
// subtracts it from the V2 side. A T group holds 16 T rows and adds, then
// subtracts, w * x over the V1, then the V2 spins, both ascending -- the
// CSR reference's order. The register files auto-vectorize at whatever
// width the build targets. Padding lanes (rows past r or c) have zero
// weights and are never stored.

template <bool Discrete>
inline double drive(double x) {
  if constexpr (Discrete) {
    return x >= 0.0 ? 1.0 : -1.0;
  } else {
    return x;
  }
}

// One bSB step of one lane: updates y and returns the new x
// (BsbStepPlanes). The walls are selects, not branches, so loops over it
// vectorize at the build's baseline width.
inline double step_lane(double x, double f, double& y, double neg_stiffness,
                        double c0, double dt, double dt_detuning) {
  y += dt * (neg_stiffness * x + c0 * f);
  const double xk = x + dt_detuning * y;
  // Inelastic walls: clamp x to [-1, 1] and zero the momentum of any lane
  // that hit a wall.
  const double lo = xk < -1.0 ? -1.0 : xk;
  const double clamped = lo > 1.0 ? 1.0 : lo;
  y = clamped == xk ? y : 0.0;
  return clamped;
}

struct VGroup {
  static constexpr std::size_t kRows = 8;
  double acc1[kRows];
  double acc2[kRows];

  void load(const double* h1, const double* h2, std::size_t live) {
    for (std::size_t t = 0; t < kRows; ++t) {
      acc1[t] = 0.0;
      acc2[t] = 0.0;
    }
    for (std::size_t t = 0; t < live; ++t) {
      acc1[t] = h1[t];
      acc2[t] = h2[t];
    }
  }
  template <bool Discrete>
  void trip(const double* w, double x) {
    const double v = drive<Discrete>(x);
    for (std::size_t t = 0; t < kRows; ++t) {
      const double prod = w[t] * v;
      acc1[t] += prod;
      acc2[t] -= prod;
    }
  }
  template <class Out>
  void emit(const Out& out, std::size_t k1, std::size_t k2,
            std::size_t live) const {
    out(k1, live, acc1);
    out(k2, live, acc2);
  }
};

struct TGroup {
  static constexpr std::size_t kCols = 16;
  double acc[kCols];

  void load(const double* h, std::size_t live) {
    for (std::size_t t = 0; t < kCols; ++t) {
      acc[t] = 0.0;
    }
    for (std::size_t t = 0; t < live; ++t) {
      acc[t] = h[t];
    }
  }
  template <bool Discrete, bool Minus>
  void trip(const double* w, double x) {
    const double v = drive<Discrete>(x);
    for (std::size_t t = 0; t < kCols; ++t) {
      if constexpr (Minus) {
        acc[t] -= w[t] * v;
      } else {
        acc[t] += w[t] * v;
      }
    }
  }
  template <class Out>
  void emit(const Out& out, std::size_t k, std::size_t live) const {
    out(k, live, acc);
  }
};

// The force entry point's output: forces stored to the plane.
struct ForceOut {
  double* force;

  void operator()(std::size_t k, std::size_t live, const double* f) const {
    for (std::size_t t = 0; t < live; ++t) {
      force[k + t] = f[t];
    }
  }
};

// The interval kernel's output: the bSB step of the lanes, from x into
// x_next (y in place).
struct StepOut {
  const BsbIntervalPlanes& s;
  double neg_stiffness;
  const double* x;
  double* x_next;

  StepOut(const BsbIntervalPlanes& s_, double neg_stiffness_,
          const double* x_, double* x_next_)
      : s(s_), neg_stiffness(neg_stiffness_), x(x_), x_next(x_next_) {}

  void operator()(std::size_t k, std::size_t live, const double* f) const {
    for (std::size_t t = 0; t < live; ++t) {
      x_next[k + t] = step_lane(x[k + t], f[t], s.y[k + t], neg_stiffness,
                                s.c0, s.dt, s.dt_detuning);
    }
  }
};

void bipartite_force_scalar(const ForcePlanes& p, std::size_t, std::size_t) {
  detail::bipartite_pass<VGroup, TGroup, false>(p, p.x, ForceOut{p.force});
}
void bipartite_force_scalar_d(const ForcePlanes& p, std::size_t,
                              std::size_t) {
  detail::bipartite_pass<VGroup, TGroup, true>(p, p.x, ForceOut{p.force});
}
void bipartite_interval_scalar(const ForcePlanes& p,
                               const BsbIntervalPlanes& s) {
  detail::bipartite_interval<VGroup, TGroup, false, StepOut>(p, s);
}
void bipartite_interval_scalar_d(const ForcePlanes& p,
                                 const BsbIntervalPlanes& s) {
  detail::bipartite_interval<VGroup, TGroup, true, StepOut>(p, s);
}

// ----------------------------------------------------- portable pack tier
//
// Slot-packed counterpart of csr_lanes: the lane-block walks `active`
// consecutive SLOTS (independent instances) of one (row, replica) group
// instead of consecutive replicas of one instance, and both the weight and
// the position are per-slot loads (each slot is a different J matrix, so
// there is no broadcastable scalar weight). The column loop runs over the
// UNION sparsity pattern (ucols ascending per row), not 0..n: columns that
// are structural zeros in EVERY slot are never touched. Accumulation per
// slot is hp[i*S+s], then += wp[e*S+s] * x[(ucols[e]*R+r)*S+s] for
// ascending union edges e -- the skipped columns contributed +-0.0 to the
// h-seeded sum, so every partial value is identical to the per-instance
// kernels', which is what the packed-parity tests pin down.

template <int W, bool Discrete>
void pack_lanes(const PackForcePlanes& p, std::size_t slot0,
                std::size_t row_begin, std::size_t row_end) {
  const std::size_t R = p.replicas;
  const std::size_t S = p.slots;
  const std::uint32_t* cs = p.ucols;
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const double* hi = p.hp + i * S + slot0;
    const std::uint32_t e0 = p.urow_start[i];
    const std::uint32_t e1 = p.urow_start[i + 1];
    for (std::size_t r = 0; r < R; ++r) {
      double acc[W];
      for (int t = 0; t < W; ++t) {
        acc[t] = hi[t];
      }
      const double* xr = p.x + r * S + slot0;
      for (std::uint32_t e = e0; e < e1; ++e) {
        const double* we = p.wp + static_cast<std::size_t>(e) * S + slot0;
        const double* xj = xr + static_cast<std::size_t>(cs[e]) * R * S;
        for (int t = 0; t < W; ++t) {
          if constexpr (Discrete) {
            acc[t] += we[t] * (xj[t] >= 0.0 ? 1.0 : -1.0);
          } else {
            acc[t] += we[t] * xj[t];
          }
        }
      }
      double* fi = p.force + (i * R + r) * S + slot0;
      for (int t = 0; t < W; ++t) {
        fi[t] = acc[t];
      }
    }
  }
}

template <bool Discrete>
void pack_force_scalar_impl(const PackForcePlanes& p, std::size_t row_begin,
                            std::size_t row_end) {
  const std::size_t A = p.active;
  std::size_t s = 0;
  while (s + 8 <= A) {
    pack_lanes<8, Discrete>(p, s, row_begin, row_end);
    s += 8;
  }
  if (s + 4 <= A) {
    pack_lanes<4, Discrete>(p, s, row_begin, row_end);
    s += 4;
  }
  if (s + 2 <= A) {
    pack_lanes<2, Discrete>(p, s, row_begin, row_end);
    s += 2;
  }
  if (s < A) {
    pack_lanes<1, Discrete>(p, s, row_begin, row_end);
  }
}

void pack_force_scalar(const PackForcePlanes& p, std::size_t b, std::size_t e) {
  pack_force_scalar_impl<false>(p, b, e);
}
void pack_force_scalar_d(const PackForcePlanes& p, std::size_t b,
                         std::size_t e) {
  pack_force_scalar_impl<true>(p, b, e);
}

void csr_force_scalar(const ForcePlanes& p, std::size_t b, std::size_t e) {
  csr_force_scalar_impl<false>(p, b, e);
}
void csr_force_scalar_d(const ForcePlanes& p, std::size_t b, std::size_t e) {
  csr_force_scalar_impl<true>(p, b, e);
}

// ----------------------------------------------------- dispatch tables

struct Tier {
  ForceRowsFn csr_c;
  ForceRowsFn csr_d;
  ForceRowsFn bipartite_c;
  ForceRowsFn bipartite_d;
  BsbIntervalFn bipartite_interval_c;
  BsbIntervalFn bipartite_interval_d;
  BsbStepFn bsb_step;
  Theorem3ResetFn theorem3_reset;
  const char* csr_name;
  const char* bipartite_name;
  // The replica-lane block the CSR kernel runs at full width, the rest
  // (R mod this) being its lane tail: one zmm (8) on AVX-512 and one ymm
  // (4) on AVX2, whose tails are scalar chains. On the portable tier it
  // is measured, not derived: at kernel=scalar a slot pack still beats
  // the looped solve's two-lane block at R = 2, but not R = 4 or 8
  // (DESIGN.md §4.7).
  std::size_t csr_full_lanes;
};

constexpr Tier kScalarTier = {csr_force_scalar,
                              csr_force_scalar_d,
                              bipartite_force_scalar,
                              bipartite_force_scalar_d,
                              bipartite_interval_scalar,
                              bipartite_interval_scalar_d,
                              detail::bsb_step_portable,
                              detail::theorem3_reset_portable,
                              "scalar",
                              "bipartite-scalar",
                              4};

#ifdef ADSD_HAVE_AVX2
constexpr Tier kAvx2Tier = {detail::csr_force_avx2,
                            detail::csr_force_avx2_d,
                            detail::bipartite_force_avx2,
                            detail::bipartite_force_avx2_d,
                            detail::bipartite_interval_avx2,
                            detail::bipartite_interval_avx2_d,
                            detail::bsb_step_avx2,
                            detail::theorem3_reset_avx2,
                            "avx2",
                            "bipartite-avx2",
                            4};
#endif

#ifdef ADSD_HAVE_AVX512
constexpr Tier kAvx512Tier = {detail::csr_force_avx512,
                              detail::csr_force_avx512_d,
                              detail::bipartite_force_avx512,
                              detail::bipartite_force_avx512_d,
                              detail::bipartite_interval_avx512,
                              detail::bipartite_interval_avx512_d,
                              detail::bsb_step_avx512,
                              detail::theorem3_reset_avx512,
                              "avx512",
                              "bipartite-avx512",
                              8};
#endif

const Tier& tier_for(ForceKernel isa) {
  switch (isa) {
#ifdef ADSD_HAVE_AVX2
    case ForceKernel::kAvx2:
      return kAvx2Tier;
#endif
#ifdef ADSD_HAVE_AVX512
    case ForceKernel::kAvx512:
      return kAvx512Tier;
#endif
    default:
      return kScalarTier;
  }
}

struct PackTier {
  PackForceRowsFn c;
  PackForceRowsFn d;
  const char* name;
};

constexpr PackTier kPackScalarTier = {pack_force_scalar, pack_force_scalar_d,
                                      "pack-scalar"};

#ifdef ADSD_HAVE_AVX2
constexpr PackTier kPackAvx2Tier = {detail::pack_force_avx2,
                                    detail::pack_force_avx2_d, "pack-avx2"};
#endif

#ifdef ADSD_HAVE_AVX512
constexpr PackTier kPackAvx512Tier = {
    detail::pack_force_avx512, detail::pack_force_avx512_d, "pack-avx512"};
#endif

const PackTier& pack_tier_for(ForceKernel isa) {
  switch (isa) {
#ifdef ADSD_HAVE_AVX2
    case ForceKernel::kAvx2:
      return kPackAvx2Tier;
#endif
#ifdef ADSD_HAVE_AVX512
    case ForceKernel::kAvx512:
      return kPackAvx512Tier;
#endif
    default:
      return kPackScalarTier;
  }
}

/// The ISA tier a request resolves to: kAuto means the widest supported
/// one; explicit requests walk the fallback chain avx512 -> avx2 ->
/// scalar.
ForceKernel resolve_isa(ForceKernel requested, const CpuFeatures& f) {
  const bool avx512 = force_kernel_supported(ForceKernel::kAvx512, f);
  const bool avx2 = force_kernel_supported(ForceKernel::kAvx2, f);
  switch (requested) {
    case ForceKernel::kAuto:
    case ForceKernel::kAvx512:
      if (avx512) {
        return ForceKernel::kAvx512;
      }
      [[fallthrough]];
    case ForceKernel::kAvx2:
      return avx2 ? ForceKernel::kAvx2 : ForceKernel::kScalar;
    default:
      return ForceKernel::kScalar;
  }
}

}  // namespace

double bsb_neg_stiffness(double detuning, double total, std::size_t step) {
  return detail::ramp_neg_stiffness(detuning, total, step);
}

// The reference step every tier must reproduce bit for bit.
void detail::bsb_step_portable(const BsbStepPlanes& s) {
  for (std::size_t k = 0; k < s.lanes; ++k) {
    s.x[k] = step_lane(s.x[k], s.force[k], s.y[k], s.neg_stiffness, s.c0,
                       s.dt, s.dt_detuning);
  }
}

// The reference reset every tier must reproduce bit for bit. Replica by
// replica, each chunk of 8 columns keeps its pattern-1 and pattern-2
// costs in two register files over the ascending rows; the selects add
// +0.0 for a row whose sign is negative, with no branch per sign.
void detail::theorem3_reset_portable(const Theorem3Planes& p) {
  constexpr std::size_t CB = 8;
  const std::size_t R = p.replicas;
  const std::size_t r = p.rows;
  const std::size_t c = p.cols;
  for (std::size_t q = 0; q < R; ++q) {
    const double* x1 = p.x + q;
    const double* x2 = p.x + r * R + q;
    std::size_t pattern2 = 0;
    for (std::size_t col0 = 0; col0 < c; col0 += CB) {
      const std::size_t live = std::min(CB, c - col0);
      double cost1[CB] = {};
      double cost2[CB] = {};
      for (std::size_t i = 0; i < r; ++i) {
        const bool on1 = x1[i * R] >= 0.0;
        const bool on2 = x2[i * R] >= 0.0;
        const double* g = p.gain + i * c + col0;
        for (std::size_t t = 0; t < live; ++t) {
          cost1[t] += on1 ? g[t] : 0.0;
          cost2[t] += on2 ? g[t] : 0.0;
        }
      }
      for (std::size_t t = 0; t < live; ++t) {
        const bool two = cost2[t] < cost1[t];
        const std::size_t k = (2 * r + col0 + t) * R + q;
        p.x[k] = two ? 1.0 : -1.0;
        p.y[k] = 0.0;
        pattern2 += two ? 1 : 0;
      }
    }
    if (p.one_pattern != nullptr) {
      p.one_pattern[q] = pattern2 == 0 || pattern2 == c ? 1 : 0;
    }
  }
}

const char* force_kernel_name(ForceKernel kind) {
  switch (kind) {
    case ForceKernel::kAuto:
      return "auto";
    case ForceKernel::kScalar:
      return "scalar";
    case ForceKernel::kAvx2:
      return "avx2";
    case ForceKernel::kAvx512:
      return "avx512";
    case ForceKernel::kBipartite:
      return "bipartite";
  }
  return "auto";
}

ForceKernel parse_force_kernel(const std::string& name) {
  for (ForceKernel kind :
       {ForceKernel::kAuto, ForceKernel::kScalar, ForceKernel::kAvx2,
        ForceKernel::kAvx512}) {
    if (name == force_kernel_name(kind)) {
      return kind;
    }
  }
  throw std::invalid_argument("unknown force kernel '" + name +
                              "' (valid: auto, scalar, avx2, avx512)");
}

bool force_kernel_compiled(ForceKernel kind) {
  switch (kind) {
    case ForceKernel::kAvx2:
#ifdef ADSD_HAVE_AVX2
      return true;
#else
      return false;
#endif
    case ForceKernel::kAvx512:
#ifdef ADSD_HAVE_AVX512
      return true;
#else
      return false;
#endif
    default:
      return true;
  }
}

bool force_kernel_supported(ForceKernel kind, const CpuFeatures& features) {
  if (!force_kernel_compiled(kind)) {
    return false;
  }
  switch (kind) {
    case ForceKernel::kAvx2:
      // The AVX2 files are built with -mavx2 -mfma, so require both.
      return features.avx2 && features.fma;
    case ForceKernel::kAvx512:
      return features.avx512f;
    default:
      return true;
  }
}

SelectedForceKernel select_force_kernel(ForceKernel requested,
                                        const CpuFeatures& features,
                                        std::size_t replicas,
                                        ModelShape shape) {
  // At R = 1 every replica-lane kernel runs one scalar chain per row, so
  // auto means the bipartite layout wherever the model has it. `<= 1`
  // rather than `== 1`: engines reject 0 replicas before they select a
  // kernel, so R = 0 only reaches here from callers that just want the
  // R = 1 choice.
  const bool use_bipartite = replicas <= 1 &&
                             requested == ForceKernel::kAuto &&
                             shape == ModelShape::kBipartite;
  const ForceKernel isa = resolve_isa(requested, features);
  const Tier& tier = tier_for(isa);
  SelectedForceKernel out;
  if (use_bipartite) {
    out.continuous = tier.bipartite_c;
    out.discrete = tier.bipartite_d;
    out.interval_continuous = tier.bipartite_interval_c;
    out.interval_discrete = tier.bipartite_interval_d;
    out.kind = ForceKernel::kBipartite;
    out.name = tier.bipartite_name;
  } else {
    out.continuous = tier.csr_c;
    out.discrete = tier.csr_d;
    out.kind = isa;
    out.name = tier.csr_name;
    out.tail_lanes = replicas % tier.csr_full_lanes;
  }
  return out;
}

BsbStepFn select_bsb_step(ForceKernel requested, const CpuFeatures& features) {
  return tier_for(resolve_isa(requested, features)).bsb_step;
}

Theorem3ResetFn select_theorem3_reset(ForceKernel requested,
                                      const CpuFeatures& features) {
  return tier_for(resolve_isa(requested, features)).theorem3_reset;
}

std::vector<ForceKernel> selectable_force_kernels() {
  std::vector<ForceKernel> out{ForceKernel::kScalar};
  const CpuFeatures& f = cpu_features();
  if (force_kernel_supported(ForceKernel::kAvx2, f)) {
    out.push_back(ForceKernel::kAvx2);
  }
  if (force_kernel_supported(ForceKernel::kAvx512, f)) {
    out.push_back(ForceKernel::kAvx512);
  }
  return out;
}

void BipartiteLayout::bind(ForcePlanes& planes) const {
  planes.v_tiles = v_tiles.data();
  planes.t_tiles = t_tiles.data();
  planes.bip_rows = rows;
  planes.bip_cols = cols;
}

BipartiteLayout build_bipartite(const double* plane, std::size_t rows,
                                std::size_t cols) {
  constexpr std::size_t VB = kBipartiteVRows;
  constexpr std::size_t TB = kBipartiteTRows;
  BipartiteLayout out;
  out.rows = rows;
  out.cols = cols;
  out.v_tiles.assign((rows + VB - 1) / VB * VB * cols, 0.0);
  out.t_tiles.assign((cols + TB - 1) / TB * TB * rows, 0.0);
  // One scatter of each plane row w(i, .) into both tiles; the padding
  // keeps the fill value 0.0.
  for (std::size_t i = 0; i < rows; ++i) {
    const double* w = plane + i * cols;
    double* v = out.v_tiles.data() + (i - i % VB) * cols + i % VB;
    double* t = out.t_tiles.data() + i * TB;
    for (std::size_t j = 0; j < cols; ++j) {
      v[j * VB] = w[j];
      t[(j - j % TB) * rows + j % TB] = w[j];
    }
  }
  return out;
}

SelectedPackForceKernel select_pack_force_kernel(ForceKernel requested,
                                                 const CpuFeatures& features) {
  const ForceKernel isa = resolve_isa(requested, features);
  const PackTier& tier = pack_tier_for(isa);
  SelectedPackForceKernel out;
  out.continuous = tier.c;
  out.discrete = tier.d;
  out.kind = isa;
  out.name = tier.name;
  return out;
}

}  // namespace adsd::kernels
