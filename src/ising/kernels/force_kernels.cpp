#include "ising/kernels/force_kernels.hpp"

#include <algorithm>

#include "ising/kernels/bipartite_pass.hpp"
#include "ising/kernels/force_kernels_detail.hpp"

namespace adsd::kernels {

namespace {

// ----------------------------------------------------- CSR kernel
//
// The one CSR kernel, run on every host: each row seeds its accumulator
// with h and adds w * x_j (x_j's sign for dSB) over its CSR edges in
// order, one rounding per multiply and per add -- the scalar reference's
// accumulation order, which keeps trajectories bit-identical to
// solve_sb_scalar().

template <bool Discrete>
void csr_force_scalar_impl(const ForcePlanes& p) {
  for (std::size_t i = 0; i < p.n; ++i) {
    double acc = p.h[i];
    const std::size_t e_end = p.row_start[i + 1];
    for (std::size_t e = p.row_start[i]; e < e_end; ++e) {
      const double w = p.weights[e];
      const double xj = p.x[p.cols[e]];
      if constexpr (Discrete) {
        acc += w * (xj >= 0.0 ? 1.0 : -1.0);
      } else {
        acc += w * xj;
      }
    }
    p.force[i] = acc;
  }
}

// ----------------------------------------------------- portable bipartite tier
//
// Groups over BipartiteLayout for the shared interleaved pass
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

void bipartite_force_scalar(const ForcePlanes& p) {
  detail::bipartite_pass<VGroup, TGroup, false>(p, p.x, ForceOut{p.force});
}
void bipartite_force_scalar_d(const ForcePlanes& p) {
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

void csr_force_scalar(const ForcePlanes& p) {
  csr_force_scalar_impl<false>(p);
}
void csr_force_scalar_d(const ForcePlanes& p) {
  csr_force_scalar_impl<true>(p);
}

// ----------------------------------------------------- dispatch tables

// The ISA tiers of the kernel families that have one; the CSR kernel
// above is the same on every tier.
struct Tier {
  ForceRowsFn bipartite_c;
  ForceRowsFn bipartite_d;
  BsbIntervalFn bipartite_interval_c;
  BsbIntervalFn bipartite_interval_d;
  BsbStepFn bsb_step;
  Theorem3ResetFn theorem3_reset;
  const char* bipartite_name;
};

constexpr Tier kScalarTier = {bipartite_force_scalar,
                              bipartite_force_scalar_d,
                              bipartite_interval_scalar,
                              bipartite_interval_scalar_d,
                              detail::bsb_step_portable,
                              detail::theorem3_reset_portable,
                              "bipartite-scalar"};

#ifdef ADSD_HAVE_AVX2
constexpr Tier kAvx2Tier = {detail::bipartite_force_avx2,
                            detail::bipartite_force_avx2_d,
                            detail::bipartite_interval_avx2,
                            detail::bipartite_interval_avx2_d,
                            detail::bsb_step_avx2,
                            detail::theorem3_reset_avx2,
                            "bipartite-avx2"};
#endif

#ifdef ADSD_HAVE_AVX512
constexpr Tier kAvx512Tier = {detail::bipartite_force_avx512,
                              detail::bipartite_force_avx512_d,
                              detail::bipartite_interval_avx512,
                              detail::bipartite_interval_avx512_d,
                              detail::bsb_step_avx512,
                              detail::theorem3_reset_avx512,
                              "bipartite-avx512"};
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

// The reference reset every tier must reproduce bit for bit. Each chunk
// of 8 columns keeps its pattern-1 and pattern-2 costs in two register
// files over the ascending rows; the selects add +0.0 for a row whose
// sign is negative, with no branch per sign.
void detail::theorem3_reset_portable(const Theorem3Planes& p) {
  constexpr std::size_t CB = 8;
  const std::size_t r = p.rows;
  const std::size_t c = p.cols;
  const double* x1 = p.x;
  const double* x2 = p.x + r;
  std::size_t pattern2 = 0;
  for (std::size_t col0 = 0; col0 < c; col0 += CB) {
    const std::size_t live = std::min(CB, c - col0);
    double cost1[CB] = {};
    double cost2[CB] = {};
    for (std::size_t i = 0; i < r; ++i) {
      const bool on1 = x1[i] >= 0.0;
      const bool on2 = x2[i] >= 0.0;
      const double* g = p.gain + i * c + col0;
      for (std::size_t t = 0; t < live; ++t) {
        cost1[t] += on1 ? g[t] : 0.0;
        cost2[t] += on2 ? g[t] : 0.0;
      }
    }
    for (std::size_t t = 0; t < live; ++t) {
      const bool two = cost2[t] < cost1[t];
      const std::size_t k = 2 * r + col0 + t;
      p.x[k] = two ? 1.0 : -1.0;
      p.y[k] = 0.0;
      pattern2 += two ? 1 : 0;
    }
  }
  if (p.one_pattern != nullptr) {
    *p.one_pattern = pattern2 == 0 || pattern2 == c;
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
  // The CSR kernel runs one scalar chain per row, so auto means the
  // bipartite layout wherever the model has it. A count of 0 (the
  // benchmark's provenance call) means the same as the engines' 1.
  SelectedForceKernel out;
  if (replicas <= 1 && requested == ForceKernel::kAuto &&
      shape == ModelShape::kBipartite) {
    const Tier& tier = tier_for(resolve_isa(requested, features));
    out.continuous = tier.bipartite_c;
    out.discrete = tier.bipartite_d;
    out.interval_continuous = tier.bipartite_interval_c;
    out.interval_discrete = tier.bipartite_interval_d;
    out.kind = ForceKernel::kBipartite;
    out.name = tier.bipartite_name;
  } else {
    out.continuous = csr_force_scalar;
    out.discrete = csr_force_scalar_d;
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

}  // namespace adsd::kernels
