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

// ----------------------------------------------------- portable row-block tier
//
// R = 1 kernel over RowBlockLayout: the register file holds the 8 rows of
// one block instead of 8 replicas of one row, and each union column
// broadcasts one position (its sign for dSB) against the block's weight
// column. Each row sees h, then its own terms in ascending column order,
// with +-0.0 addends for the union columns it lacks -- the same arithmetic
// as the CSR reference.

template <bool Discrete>
void rowblock_force_scalar_impl(const ForcePlanes& p, std::size_t row_begin,
                                std::size_t row_end) {
  constexpr std::size_t B = kRowBlockRows;
  for (std::size_t row0 = row_begin; row0 < row_end; row0 += B) {
    const std::size_t b = row0 / B;
    double acc[B];
    for (std::size_t t = 0; t < B; ++t) {
      acc[t] = p.block_h[row0 + t];
    }
    const std::uint32_t e_end = p.block_start[b + 1];
    for (std::uint32_t e = p.block_start[b]; e < e_end; ++e) {
      const double xj = p.x[p.block_cols[e]];
      const double v = Discrete ? (xj >= 0.0 ? 1.0 : -1.0) : xj;
      const double* we = p.block_weights + static_cast<std::size_t>(e) * B;
      for (std::size_t t = 0; t < B; ++t) {
        acc[t] += we[t] * v;
      }
    }
    const std::size_t rows = std::min(B, row_end - row0);
    for (std::size_t t = 0; t < rows; ++t) {
      p.force[row0 + t] = acc[t];
    }
  }
}

void rowblock_force_scalar(const ForcePlanes& p, std::size_t b,
                           std::size_t e) {
  rowblock_force_scalar_impl<false>(p, b, e);
}
void rowblock_force_scalar_d(const ForcePlanes& p, std::size_t b,
                             std::size_t e) {
  rowblock_force_scalar_impl<true>(p, b, e);
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
  ForceRowsFn rowblock_c;
  ForceRowsFn rowblock_d;
  const char* csr_name;
  const char* rowblock_name;
};

constexpr Tier kScalarTier = {csr_force_scalar,      csr_force_scalar_d,
                              rowblock_force_scalar, rowblock_force_scalar_d,
                              "scalar",              "rowblock-scalar"};

#ifdef ADSD_HAVE_AVX2
constexpr Tier kAvx2Tier = {
    detail::csr_force_avx2,      detail::csr_force_avx2_d,
    detail::rowblock_force_avx2, detail::rowblock_force_avx2_d,
    "avx2",                      "rowblock-avx2"};
#endif

#ifdef ADSD_HAVE_AVX512
constexpr Tier kAvx512Tier = {
    detail::csr_force_avx512,      detail::csr_force_avx512_d,
    detail::rowblock_force_avx512, detail::rowblock_force_avx512_d,
    "avx512",                      "rowblock-avx512"};
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
    case ForceKernel::kRowBlock:
      return "rowblock";
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
                                        std::size_t replicas) {
  // At R = 1 every replica-lane kernel runs one scalar chain per row, so
  // auto means the row-block layout. `<= 1` rather than `== 1`: engines
  // reject 0 replicas before they select a kernel, so R = 0 only reaches
  // here from callers that just want the R = 1 choice.
  const bool use_rowblock = replicas <= 1 && requested == ForceKernel::kAuto;
  const ForceKernel isa = resolve_isa(requested, features);
  const Tier& tier = tier_for(isa);
  SelectedForceKernel out;
  if (use_rowblock) {
    out.continuous = tier.rowblock_c;
    out.discrete = tier.rowblock_d;
    out.kind = ForceKernel::kRowBlock;
    out.name = tier.rowblock_name;
  } else {
    out.continuous = tier.csr_c;
    out.discrete = tier.csr_d;
    out.kind = isa;
    out.name = tier.csr_name;
  }
  return out;
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

void RowBlockLayout::bind(ForcePlanes& planes) const {
  planes.block_start = block_start.data();
  planes.block_cols = cols.data();
  planes.block_weights = weights.data();
  planes.block_h = h.data();
}

RowBlockLayout build_row_blocks(const ForcePlanes& csr) {
  constexpr std::size_t B = kRowBlockRows;
  const std::size_t n = csr.n;
  const std::size_t blocks = (n + B - 1) / B;
  RowBlockLayout out;
  out.block_start.assign(blocks + 1, 0);
  out.h.assign(blocks * B, 0.0);
  std::copy(csr.h, csr.h + n, out.h.begin());

  // Pass 1: each block's ascending column union (stamp marks the columns
  // the current block has already collected).
  constexpr std::uint32_t kUnseen = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> stamp(n, kUnseen);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t u0 = out.cols.size();
    for (std::size_t i = b * B; i < std::min(b * B + B, n); ++i) {
      for (std::size_t e = csr.row_start[i]; e < csr.row_start[i + 1]; ++e) {
        const std::uint32_t j = csr.cols[e];
        if (stamp[j] != b) {
          stamp[j] = static_cast<std::uint32_t>(b);
          out.cols.push_back(j);
        }
      }
    }
    std::sort(out.cols.begin() + static_cast<std::ptrdiff_t>(u0),
              out.cols.end());
    out.block_start[b + 1] = static_cast<std::uint32_t>(out.cols.size());
  }

  // Pass 2: scatter each row's weights into its lane of the block's
  // column-major tile (pos maps a column to its union index).
  out.weights.assign(out.cols.size() * B, 0.0);
  std::vector<std::uint32_t> pos(n, 0);
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::uint32_t u = out.block_start[b]; u < out.block_start[b + 1];
         ++u) {
      pos[out.cols[u]] = u;
    }
    for (std::size_t i = b * B; i < std::min(b * B + B, n); ++i) {
      for (std::size_t e = csr.row_start[i]; e < csr.row_start[i + 1]; ++e) {
        out.weights[pos[csr.cols[e]] * B + (i - b * B)] = csr.weights[e];
      }
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
