#include "ising/kernels/force_kernels.hpp"

#include <algorithm>
#include <stdexcept>

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
// R = 1 kernel over BipartiteLayout. A V block holds the accumulators of
// 16 V1 rows and of the same 16 V2 rows; per T column it forms p = w * x
// once (x's sign for dSB), adds p to the V1 side and subtracts it from
// the V2 side. A T block holds 32 T rows and walks its tile twice: + w * x
// over the V1 spins, then - w * x over the V2 spins, both ascending -- the
// CSR reference's order. Padding lanes (rows past r or c) have zero
// weights and are never stored.

template <bool Discrete>
inline double drive(double x) {
  if constexpr (Discrete) {
    return x >= 0.0 ? 1.0 : -1.0;
  } else {
    return x;
  }
}

template <bool Discrete>
void bipartite_force_scalar_impl(const ForcePlanes& p, std::size_t,
                                 std::size_t) {
  constexpr std::size_t VB = kBipartiteVRows;
  constexpr std::size_t TB = kBipartiteTRows;
  const std::size_t r = p.bip_rows;
  const std::size_t c = p.bip_cols;
  const double* xt = p.x + 2 * r;
  for (std::size_t row0 = 0; row0 < r; row0 += VB) {
    const std::size_t live = std::min(VB, r - row0);
    double acc1[VB] = {};
    double acc2[VB] = {};
    for (std::size_t t = 0; t < live; ++t) {
      acc1[t] = p.h[row0 + t];
      acc2[t] = p.h[r + row0 + t];
    }
    const double* w = p.v_tiles + row0 * c;
    for (std::size_t j = 0; j < c; ++j, w += VB) {
      const double v = drive<Discrete>(xt[j]);
      for (std::size_t t = 0; t < VB; ++t) {
        const double prod = w[t] * v;
        acc1[t] += prod;
        acc2[t] -= prod;
      }
    }
    for (std::size_t t = 0; t < live; ++t) {
      p.force[row0 + t] = acc1[t];
      p.force[r + row0 + t] = acc2[t];
    }
  }
  for (std::size_t col0 = 0; col0 < c; col0 += TB) {
    const std::size_t live = std::min(TB, c - col0);
    double acc[TB] = {};
    for (std::size_t t = 0; t < live; ++t) {
      acc[t] = p.h[2 * r + col0 + t];
    }
    const double* tile = p.t_tiles + col0 * r;
    const double* w = tile;
    for (std::size_t i = 0; i < r; ++i, w += TB) {
      const double v = drive<Discrete>(p.x[i]);
      for (std::size_t t = 0; t < TB; ++t) {
        acc[t] += w[t] * v;
      }
    }
    w = tile;
    for (std::size_t i = 0; i < r; ++i, w += TB) {
      const double v = drive<Discrete>(p.x[r + i]);
      for (std::size_t t = 0; t < TB; ++t) {
        acc[t] -= w[t] * v;
      }
    }
    for (std::size_t t = 0; t < live; ++t) {
      p.force[2 * r + col0 + t] = acc[t];
    }
  }
}

void bipartite_force_scalar(const ForcePlanes& p, std::size_t b,
                            std::size_t e) {
  bipartite_force_scalar_impl<false>(p, b, e);
}
void bipartite_force_scalar_d(const ForcePlanes& p, std::size_t b,
                              std::size_t e) {
  bipartite_force_scalar_impl<true>(p, b, e);
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
  BsbStepFn bsb_step;
  const char* csr_name;
  const char* bipartite_name;
};

constexpr Tier kScalarTier = {csr_force_scalar,
                              csr_force_scalar_d,
                              bipartite_force_scalar,
                              bipartite_force_scalar_d,
                              detail::bsb_step_portable,
                              "scalar",
                              "bipartite-scalar"};

#ifdef ADSD_HAVE_AVX2
constexpr Tier kAvx2Tier = {detail::csr_force_avx2,
                            detail::csr_force_avx2_d,
                            detail::bipartite_force_avx2,
                            detail::bipartite_force_avx2_d,
                            detail::bsb_step_avx2,
                            "avx2",
                            "bipartite-avx2"};
#endif

#ifdef ADSD_HAVE_AVX512
constexpr Tier kAvx512Tier = {detail::csr_force_avx512,
                              detail::csr_force_avx512_d,
                              detail::bipartite_force_avx512,
                              detail::bipartite_force_avx512_d,
                              detail::bsb_step_avx512,
                              "avx512",
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

// The reference step every tier must reproduce bit for bit. The walls are
// selects, not branches, so the loop vectorizes at the build's baseline
// width.
void detail::bsb_step_portable(const BsbStepPlanes& s) {
  for (std::size_t k = 0; k < s.lanes; ++k) {
    s.y[k] += s.dt * (s.neg_stiffness * s.x[k] + s.c0 * s.force[k]);
    const double xk = s.x[k] + s.dt_detuning * s.y[k];
    // Inelastic walls: clamp x to [-1, 1] and zero the momentum of any
    // lane that hit a wall.
    const double lo = xk < -1.0 ? -1.0 : xk;
    const double clamped = lo > 1.0 ? 1.0 : lo;
    s.y[k] = clamped == xk ? s.y[k] : 0.0;
    s.x[k] = clamped;
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
    out.kind = ForceKernel::kBipartite;
    out.name = tier.bipartite_name;
  } else {
    out.continuous = tier.csr_c;
    out.discrete = tier.csr_d;
    out.kind = isa;
    out.name = tier.csr_name;
  }
  return out;
}

BsbStepFn select_bsb_step(ForceKernel requested, const CpuFeatures& features) {
  return tier_for(resolve_isa(requested, features)).bsb_step;
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

BipartiteLayout build_bipartite(const ForcePlanes& csr, std::size_t rows,
                                std::size_t cols) {
  constexpr std::size_t VB = kBipartiteVRows;
  constexpr std::size_t TB = kBipartiteTRows;
  BipartiteLayout out;
  out.rows = rows;
  out.cols = cols;
  out.v_tiles.assign((rows + VB - 1) / VB * VB * cols, 0.0);
  out.t_tiles.assign((cols + TB - 1) / TB * TB * rows, 0.0);
  // One scatter of each V1 row's couplings w(i, j) into both tiles; the
  // plane's dropped (zero) couplings keep the fill value 0.0.
  for (std::size_t i = 0; i < rows; ++i) {
    double* v = out.v_tiles.data() + (i - i % VB) * cols + i % VB;
    for (std::size_t e = csr.row_start[i]; e < csr.row_start[i + 1]; ++e) {
      const std::size_t j = csr.cols[e] - 2 * rows;
      v[j * VB] = csr.weights[e];
      out.t_tiles[(j - j % TB) * rows + i * TB + j % TB] = csr.weights[e];
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
