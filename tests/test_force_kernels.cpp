// Tests for the dispatched force-kernel layer (DESIGN.md §4.6): cpuid
// dispatch and its fallback chain on masked feature sets (at R = 1 and
// past it), registry/CLI kernel selection, the dense-plane
// materialization in IsingModel::finalize(), and the layer's central
// contract — every dispatched variant (explicit-SIMD CSR, dense fast path
// and R = 1 row-block layout alike) produces bit-identical force planes,
// solve results, and DALTA runs, sharded or not.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/column_cop.hpp"
#include "core/dalta.hpp"
#include "core/solver_registry.hpp"
#include "funcs/continuous.hpp"
#include "ising/bsb.hpp"
#include "ising/bsb_batch.hpp"
#include "ising/engine.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "ising/model.hpp"
#include "support/cpu_features.hpp"
#include "support/rng.hpp"
#include "support/run_context.hpp"

namespace adsd {
namespace {

using kernels::ForceKernel;

IsingModel random_model(std::size_t n, double density, Rng& rng) {
  IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.set_bias(i, rng.next_double(-1.0, 1.0));
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.next_double() < density) {
        m.add_coupling(i, j, rng.next_double(-1.0, 1.0));
      }
    }
  }
  m.finalize();
  return m;
}

/// A joint-mode column-COP Ising model over the trivial (free, n - free)
/// partition: 2^free matrix rows, so V1/V2/T spins start at 0, 2^free and
/// 2^(free+1). The default is the paper's n = 9 model: near-half dense,
/// which sits far below the measured dense-path crossover (~0.95), so no
/// dense plane is materialized and replica-lane auto-dispatch stays on the
/// CSR kernels.
IsingModel column_cop_model(unsigned n = 9, unsigned free_size = 4) {
  const auto exact = make_continuous_table(continuous_spec("exp"), n, n);
  const auto w = InputPartition::trivial(n, free_size);
  const auto m = BooleanMatrix::from_function(exact, 0, w);
  const auto dist = InputDistribution::uniform(n);
  const auto probs = matrix_probs(dist, w);
  Rng rng(17);
  std::vector<double> d(m.rows() * m.cols());
  for (auto& v : d) {
    v = std::floor(rng.next_double(-6.0, 6.0));
  }
  const auto cop = ColumnCop::joint(m, probs, d, 2.0);
  return cop.to_ising();
}

/// A separate-mode n = 9 column COP whose matrix row 0 has probability
/// zero: every gain of that row is +-0.0, so ColumnCop::to_ising() sets
/// the bias of V1[0] and V2[0] to -(+0.0) / 4 = -0.0 and adds no coupling
/// to either -- the COP path to a signed-zero bias.
IsingModel zero_row_column_cop_model() {
  const auto exact = make_continuous_table(continuous_spec("exp"), 9, 9);
  const auto w = InputPartition::trivial(9, 4);
  Rng rng(19);
  std::vector<double> weights(std::size_t{1} << 9);
  for (std::uint64_t x = 0; x < weights.size(); ++x) {
    weights[x] = w.row_of(x) == 0 ? 0.0 : rng.next_double(0.5, 1.5);
  }
  const auto dist = InputDistribution::from_weights(weights);
  const auto m = BooleanMatrix::from_function(exact, 4, w);
  return ColumnCop::separate(m, matrix_probs(dist, w)).to_ising();
}

/// A complete 48-spin model plus one uncoupled spin whose bias is set to
/// -0.0: dense enough (47/49) that finalize() materializes the plane, so
/// the dense kernel walks 48 zero columns in the uncoupled row.
IsingModel signed_zero_dense_model() {
  Rng rng(53);
  IsingModel m(49);
  for (std::size_t i = 0; i < 48; ++i) {
    m.set_bias(i, rng.next_double(-1.0, 1.0));
    for (std::size_t j = i + 1; j < 48; ++j) {
      m.add_coupling(i, j, rng.next_double(-1.0, 1.0));
    }
  }
  m.set_bias(48, -0.0);
  m.finalize();
  return m;
}

SbParams quick_params(std::uint64_t seed) {
  SbParams p;
  p.max_iterations = 200;
  p.seed = seed;
  return p;
}

CpuFeatures no_features() { return CpuFeatures{}; }

CpuFeatures avx2_features() {
  CpuFeatures f;
  f.avx2 = true;
  f.fma = true;
  return f;
}

CpuFeatures avx512_features() {
  CpuFeatures f = avx2_features();
  f.avx512f = true;
  return f;
}

// Replica count of the dispatch tests that pin the replica-lane (R > 1)
// branch; the R = 1 branch has its own tests below.
constexpr std::size_t kLanes = 8;

// ------------------------------------------------------------ name parsing

TEST(ForceKernelNames, RoundTrip) {
  for (ForceKernel k :
       {ForceKernel::kAuto, ForceKernel::kScalar, ForceKernel::kAvx2,
        ForceKernel::kAvx512, ForceKernel::kDense}) {
    EXPECT_EQ(kernels::parse_force_kernel(kernels::force_kernel_name(k)), k);
  }
}

TEST(ForceKernelNames, RowBlockIsResolvedNotRequested) {
  // The row-block layout is what auto means at R = 1; it has a name for
  // reporting but is not a value of the kernel= key.
  EXPECT_STREQ(kernels::force_kernel_name(ForceKernel::kRowBlock),
               "rowblock");
  EXPECT_THROW(kernels::parse_force_kernel("rowblock"),
               std::invalid_argument);
}

TEST(ForceKernelNames, UnknownNameThrowsListingValidNames) {
  try {
    kernels::parse_force_kernel("sse9");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sse9"), std::string::npos);
    EXPECT_NE(what.find("avx2"), std::string::npos);
    EXPECT_NE(what.find("dense"), std::string::npos);
  }
}

// ---------------------------------------------------------------- dispatch

TEST(ForceKernelDispatch, NoFeaturesResolvesScalar) {
  const auto sel = kernels::select_force_kernel(ForceKernel::kAuto,
                                                no_features(), false, kLanes);
  EXPECT_EQ(sel.kind, ForceKernel::kScalar);
  EXPECT_STREQ(sel.name, "scalar");
  ASSERT_NE(sel.continuous, nullptr);
  ASSERT_NE(sel.discrete, nullptr);
}

TEST(ForceKernelDispatch, SimdRequestsFallBackToScalarWithoutFeatures) {
  // A masked feature set must walk the whole chain down to scalar even when
  // the SIMD code is compiled in: the OS/CPU probe is the authority.
  for (ForceKernel k : {ForceKernel::kAvx2, ForceKernel::kAvx512}) {
    const auto sel = kernels::select_force_kernel(k, no_features(), false);
    EXPECT_EQ(sel.kind, ForceKernel::kScalar);
    EXPECT_STREQ(sel.name, "scalar");
  }
}

TEST(ForceKernelDispatch, Avx512RequestFallsBackToAvx2) {
  if (!kernels::force_kernel_compiled(ForceKernel::kAvx2)) {
    GTEST_SKIP() << "AVX2 kernels not compiled into this binary";
  }
  const auto sel = kernels::select_force_kernel(ForceKernel::kAvx512,
                                                avx2_features(), false);
  EXPECT_EQ(sel.kind, ForceKernel::kAvx2);
  EXPECT_STREQ(sel.name, "avx2");
}

TEST(ForceKernelDispatch, AutoPicksWidestSupportedIsa) {
  if (kernels::force_kernel_compiled(ForceKernel::kAvx512)) {
    const auto sel = kernels::select_force_kernel(
        ForceKernel::kAuto, avx512_features(), false, kLanes);
    EXPECT_EQ(sel.kind, ForceKernel::kAvx512);
    EXPECT_STREQ(sel.name, "avx512");
  }
  if (kernels::force_kernel_compiled(ForceKernel::kAvx2)) {
    const auto sel = kernels::select_force_kernel(
        ForceKernel::kAuto, avx2_features(), false, kLanes);
    EXPECT_EQ(sel.kind, ForceKernel::kAvx2);
    EXPECT_STREQ(sel.name, "avx2");
  }
}

TEST(ForceKernelDispatch, Avx2NeedsFmaToo) {
  // The AVX2 translation unit is built with -mavx2 -mfma, so a CPU with
  // AVX2 but no FMA must not dispatch into it.
  CpuFeatures f;
  f.avx2 = true;
  f.fma = false;
  const auto sel = kernels::select_force_kernel(ForceKernel::kAvx2, f, false);
  EXPECT_EQ(sel.kind, ForceKernel::kScalar);
}

TEST(ForceKernelDispatch, AutoPrefersDenseWhenPlaneAvailable) {
  const auto sel = kernels::select_force_kernel(ForceKernel::kAuto,
                                                no_features(), true, kLanes);
  EXPECT_EQ(sel.kind, ForceKernel::kDense);
  EXPECT_STREQ(sel.name, "dense-scalar");
}

TEST(ForceKernelDispatch, DenseNameCarriesIsaTier) {
  if (!kernels::force_kernel_compiled(ForceKernel::kAvx2)) {
    GTEST_SKIP() << "AVX2 kernels not compiled into this binary";
  }
  const auto sel = kernels::select_force_kernel(ForceKernel::kDense,
                                                avx2_features(), true);
  EXPECT_EQ(sel.kind, ForceKernel::kDense);
  EXPECT_STREQ(sel.name, "dense-avx2");
}

TEST(ForceKernelDispatch, DenseRequestWithoutPlaneFallsBackToCsr) {
  const auto sel = kernels::select_force_kernel(ForceKernel::kDense,
                                                no_features(), false);
  EXPECT_EQ(sel.kind, ForceKernel::kScalar);
  EXPECT_STREQ(sel.name, "scalar");
}

TEST(ForceKernelDispatch, ExplicitCsrRequestIgnoresDensePlane) {
  const auto sel = kernels::select_force_kernel(ForceKernel::kScalar,
                                                avx512_features(), true);
  EXPECT_EQ(sel.kind, ForceKernel::kScalar);
  EXPECT_STREQ(sel.name, "scalar");
}

TEST(ForceKernelDispatch, SelectableKernelsResolveToThemselves) {
  for (bool dense : {false, true}) {
    const auto kinds = kernels::selectable_force_kernels(dense);
    ASSERT_FALSE(kinds.empty());
    EXPECT_EQ(kinds.front(), ForceKernel::kScalar);
    for (ForceKernel k : kinds) {
      const auto sel =
          kernels::select_force_kernel(k, cpu_features(), dense, 1);
      EXPECT_EQ(sel.kind, k) << kernels::force_kernel_name(k);
    }
  }
}

// ------------------------------------------------------- dispatch at R = 1

TEST(ForceKernelDispatch, OneReplicaResolvesRowBlockAtWidestIsa) {
  // auto at R = 1 takes the row-block layout at the widest tier the
  // masked "CPU" runs, through the same chain as CSR.
  CpuFeatures no_fma;
  no_fma.avx2 = true;
  const auto scalar =
      kernels::select_force_kernel(ForceKernel::kAuto, no_features(), false, 1);
  EXPECT_EQ(scalar.kind, ForceKernel::kRowBlock);
  EXPECT_STREQ(scalar.name, "rowblock-scalar");
  ASSERT_NE(scalar.continuous, nullptr);
  ASSERT_NE(scalar.discrete, nullptr);
  EXPECT_STREQ(
      kernels::select_force_kernel(ForceKernel::kAuto, no_fma, false, 1).name,
      "rowblock-scalar");
  if (kernels::force_kernel_compiled(ForceKernel::kAvx2)) {
    const auto sel = kernels::select_force_kernel(ForceKernel::kAuto,
                                                  avx2_features(), false, 1);
    EXPECT_EQ(sel.kind, ForceKernel::kRowBlock);
    EXPECT_STREQ(sel.name, "rowblock-avx2");
  }
  if (kernels::force_kernel_compiled(ForceKernel::kAvx512)) {
    const auto sel = kernels::select_force_kernel(ForceKernel::kAuto,
                                                  avx512_features(), false, 1);
    EXPECT_EQ(sel.kind, ForceKernel::kRowBlock);
    EXPECT_STREQ(sel.name, "rowblock-avx512");
  }
}

TEST(ForceKernelDispatch, AutoAtOneReplicaPrefersRowBlockOverDensePlane) {
  // The dense kernel's lane loop is one scalar chain per row at R = 1 too.
  const auto sel =
      kernels::select_force_kernel(ForceKernel::kAuto, no_features(), true, 1);
  EXPECT_EQ(sel.kind, ForceKernel::kRowBlock);
  EXPECT_STREQ(sel.name, "rowblock-scalar");
}

TEST(ForceKernelDispatch, ExplicitRequestsAtOneReplicaKeepTheirLayout) {
  // The CSR tiers stay selectable at R = 1 as the parity reference, and an
  // explicit dense request is honored when the plane exists.
  const auto scalar = kernels::select_force_kernel(ForceKernel::kScalar,
                                                   avx512_features(), true, 1);
  EXPECT_EQ(scalar.kind, ForceKernel::kScalar);
  EXPECT_STREQ(scalar.name, "scalar");
  const auto dense = kernels::select_force_kernel(ForceKernel::kDense,
                                                  no_features(), true, 1);
  EXPECT_EQ(dense.kind, ForceKernel::kDense);
  EXPECT_STREQ(dense.name, "dense-scalar");
}

// ---------------------------------------------------------------- registry

TEST(ForceKernelRegistry, PropAcceptsKernelKey) {
  for (const char* name : {"auto", "scalar", "avx2", "avx512", "dense"}) {
    EXPECT_NO_THROW(SolverRegistry::global().make_from_spec(
        std::string("prop,kernel=") + name));
  }
}

TEST(ForceKernelRegistry, PropRejectsBogusKernel) {
  EXPECT_THROW(SolverRegistry::global().make_from_spec("prop,kernel=sse9"),
               std::invalid_argument);
}

// ------------------------------------------------------------- dense plane

TEST(DensePlane, MaterializedAboveThresholdAndMatchesCsr) {
  Rng rng(31);
  const auto model = random_model(40, 0.98, rng);
  ASSERT_TRUE(model.has_dense_plane());
  const std::size_t stride = model.dense_stride();
  EXPECT_GE(stride, model.num_spins());
  EXPECT_EQ(stride % 8, 0u);
  const auto plane = model.dense_plane();
  ASSERT_EQ(plane.size(), model.num_spins() * stride);
  for (std::size_t i = 0; i < model.num_spins(); ++i) {
    std::vector<double> row(stride, 0.0);
    for (const auto& [j, w] : model.neighbors(i)) {
      row[j] = w;
    }
    for (std::size_t j = 0; j < stride; ++j) {
      EXPECT_EQ(plane[i * stride + j], row[j]) << i << "," << j;
    }
  }
}

TEST(DensePlane, NotMaterializedBelowThreshold) {
  // A ring is ~2/n dense; far below any sensible threshold at n = 64.
  IsingModel m(64);
  for (std::size_t i = 0; i < 64; ++i) {
    m.add_coupling(i, (i + 1) % 64, 1.0);
  }
  m.finalize();
  EXPECT_LT(m.edge_density(), 0.05);
  EXPECT_FALSE(m.has_dense_plane());
  EXPECT_EQ(m.dense_stride(), 0u);
  EXPECT_TRUE(m.dense_plane().empty());
}

TEST(DensePlane, ColumnCopModelStaysBelowMeasuredCrossover) {
  // The paper's column-COP models are near-half dense -- well short of the
  // measured ~0.95 crossover where the dense kernel stops losing to the
  // lane-batched CSR kernels (DESIGN.md §4.6) -- so finalize() must not
  // spend O(n^2) memory on a plane auto-dispatch would never profit from.
  const auto model = column_cop_model();
  EXPECT_GT(model.edge_density(), 0.10);
  EXPECT_LT(model.edge_density(), 0.95);
  EXPECT_FALSE(model.has_dense_plane());
}

TEST(DensePlane, RefinalizeRebuildsPlane) {
  Rng rng(32);
  IsingModel m = random_model(16, 1.0, rng);
  ASSERT_TRUE(m.has_dense_plane());
  m.add_coupling(0, 15, 2.5);
  m.finalize();
  ASSERT_TRUE(m.has_dense_plane());
  EXPECT_EQ(m.dense_plane()[0 * m.dense_stride() + 15],
            m.dense_plane()[15 * m.dense_stride() + 0]);
}

// ------------------------------------------------- force-plane bit parity

/// The requests the parity suites compare: every kernel that resolves to
/// itself, then auto -- the row-block layout at R = 1, the widest CSR or
/// the dense tier past it.
std::vector<ForceKernel> parity_kernels(bool dense_available) {
  auto kinds = kernels::selectable_force_kernels(dense_available);
  kinds.push_back(ForceKernel::kAuto);
  return kinds;
}

/// Runs compute_forces() once per parity kernel on identical positions
/// and expects bit-identical force planes.
void expect_force_parity(const IsingModel& model, bool discrete,
                         std::size_t replicas, std::uint64_t seed) {
  SbParams params = quick_params(seed);
  params.discrete = discrete;

  std::vector<double> reference;
  for (ForceKernel k : parity_kernels(model.has_dense_plane())) {
    params.kernel = k;
    BsbBatchEngine engine(model, params, replicas);
    Rng rng(seed);
    auto x = engine.positions();
    for (double& v : x) {
      v = rng.next_double(-1.0, 1.0);
    }
    engine.compute_forces();
    const auto f = engine.forces();
    if (reference.empty()) {
      reference.assign(f.begin(), f.end());
      continue;
    }
    ASSERT_EQ(f.size(), reference.size());
    EXPECT_EQ(std::memcmp(f.data(), reference.data(),
                          f.size() * sizeof(double)),
              0)
        << "kernel " << kernels::force_kernel_name(k) << " R=" << replicas
        << (discrete ? " discrete" : " continuous");
  }
}

TEST(ForceKernelParity, ForcePlanesBitIdenticalSparseModel) {
  Rng rng(41);
  const auto model = random_model(33, 0.3, rng);
  for (std::size_t replicas : {1u, 2u, 8u, 13u}) {
    expect_force_parity(model, false, replicas, 900 + replicas);
    expect_force_parity(model, true, replicas, 900 + replicas);
  }
}

TEST(ForceKernelParity, ForcePlanesBitIdenticalColumnCopModel) {
  const auto model = column_cop_model();
  for (std::size_t replicas : {1u, 2u, 8u, 13u}) {
    expect_force_parity(model, false, replicas, 700 + replicas);
    expect_force_parity(model, true, replicas, 700 + replicas);
  }

  // Two matrix rows: row block 0 holds V1[0..1], V2[0..1] and T[0..3],
  // and the 68-spin model ends in a 4-row tail block with a masked store.
  const auto straddling = column_cop_model(7, 1);
  ASSERT_EQ(straddling.num_spins(), 68u);

  // V1[0] and V2[0] are uncoupled with a requested bias of -0.0, and the
  // row-block layout adds +-0.0 terms to their accumulators: exact only
  // because the model stores that bias as +0.0.
  const auto zero_row = zero_row_column_cop_model();
  ASSERT_TRUE(zero_row.neighbors(0).empty());
  ASSERT_TRUE(zero_row.neighbors(16).empty());
  EXPECT_FALSE(std::signbit(zero_row.bias(0)));
  EXPECT_FALSE(std::signbit(zero_row.bias(16)));

  for (const IsingModel* m : {&straddling, &zero_row}) {
    for (std::size_t replicas : {1u, 2u, 8u}) {
      expect_force_parity(*m, false, replicas, 600 + replicas);
      expect_force_parity(*m, true, replicas, 600 + replicas);
    }
  }
}

TEST(ForceKernelParity, ForcePlanesBitIdenticalDenseModel) {
  // Near-complete models: the dense plane is materialized, so the parity
  // sweep includes the dense kernel at the host's widest ISA tier. In the
  // second, the dense kernel walks 48 zero columns in an uncoupled row
  // whose bias was set to -0.0; with a -0.0 accumulator those +-0.0 terms
  // flipped the sign of its force against CSR at every replica count.
  Rng rng(43);
  const auto model = random_model(48, 1.0, rng);
  const auto signed_zero = signed_zero_dense_model();
  ASSERT_TRUE(signed_zero.neighbors(48).empty());
  for (const IsingModel* m : {&model, &signed_zero}) {
    ASSERT_TRUE(m->has_dense_plane());
    for (std::size_t replicas : {1u, 2u, 8u, 13u}) {
      expect_force_parity(*m, false, replicas, 800 + replicas);
      expect_force_parity(*m, true, replicas, 800 + replicas);
    }
  }
}

TEST(ForceKernelParity, RowBlockTiersBitIdenticalToScalarCsr) {
  // Engines run only the host's widest row-block tier, so this drives each
  // tier the host can execute (portable, AVX2, AVX-512) directly on the
  // row-block layout and compares it with the scalar CSR kernel. The
  // 33- and 68-spin models end in masked tail blocks of 1 and 4 rows.
  Rng rng(45);
  const IsingModel models[] = {random_model(33, 0.3, rng),
                               column_cop_model(7, 1),
                               zero_row_column_cop_model()};
  const auto reference =
      kernels::select_force_kernel(ForceKernel::kScalar, no_features(), false);
  int tiers = 0;
  for (const CpuFeatures& f :
       {no_features(), avx2_features(), avx512_features()}) {
    const auto sel = kernels::select_force_kernel(ForceKernel::kAuto, f,
                                                  false, 1);
    ASSERT_EQ(sel.kind, ForceKernel::kRowBlock);
    if ((f.avx2 && !kernels::force_kernel_supported(ForceKernel::kAvx2,
                                                    cpu_features())) ||
        (f.avx512f && !kernels::force_kernel_supported(ForceKernel::kAvx512,
                                                       cpu_features()))) {
      continue;  // this host (or build) cannot execute the tier
    }
    ++tiers;
    for (const IsingModel& model : models) {
      const CsrPlanes csr = flatten_csr(model);
      kernels::ForcePlanes planes;
      planes.h = csr.h.data();
      planes.row_start = csr.row_start.data();
      planes.cols = csr.cols.data();
      planes.weights = csr.weights.data();
      planes.n = model.num_spins();
      planes.replicas = 1;
      const auto blocks = kernels::build_row_blocks(planes);
      blocks.bind(planes);
      std::vector<double> x(planes.n);
      Rng xr(83);
      for (double& v : x) {
        v = xr.next_double(-1.0, 1.0);
      }
      planes.x = x.data();
      for (bool discrete : {false, true}) {
        std::vector<double> want(planes.n);
        planes.force = want.data();
        (discrete ? reference.discrete : reference.continuous)(planes, 0,
                                                               planes.n);
        std::vector<double> got(planes.n);
        planes.force = got.data();
        (discrete ? sel.discrete : sel.continuous)(planes, 0, planes.n);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              planes.n * sizeof(double)),
                  0)
            << sel.name << " n=" << planes.n
            << (discrete ? " discrete" : " continuous");
      }
    }
  }
  EXPECT_GE(tiers, 1);
}

// ------------------------------------------------- full-solve bit parity

TEST(ForceKernelParity, SolveBitIdenticalAcrossKernels) {
  Rng rng(47);
  const IsingModel models[] = {column_cop_model(),
                               random_model(48, 1.0, rng)};
  ASSERT_TRUE(models[1].has_dense_plane());
  for (const IsingModel& model : models) {
    for (bool discrete : {false, true}) {
      for (std::size_t replicas : {1u, 2u, 8u}) {
        SbParams params = quick_params(55);
        params.discrete = discrete;
        params.kernel = ForceKernel::kScalar;
        const auto reference = solve_sb_batch(model, params, replicas);
        for (ForceKernel k : parity_kernels(model.has_dense_plane())) {
          params.kernel = k;
          const auto got = solve_sb_batch(model, params, replicas);
          EXPECT_EQ(got.energy, reference.energy)
              << kernels::force_kernel_name(k);
          EXPECT_EQ(got.spins, reference.spins)
              << kernels::force_kernel_name(k);
          EXPECT_EQ(got.iterations, reference.iterations);
          EXPECT_EQ(got.stopped_early, reference.stopped_early);
        }
      }
    }
  }
}

TEST(ForceKernelParity, EngineReportsResolvedKernelName) {
  const auto model = column_cop_model();
  SbParams params = quick_params(1);
  params.kernel = ForceKernel::kScalar;
  BsbBatchEngine scalar_engine(model, params, 2);
  EXPECT_STREQ(scalar_engine.kernel_name(), "scalar");
  EXPECT_EQ(scalar_engine.kernel_kind(), ForceKernel::kScalar);

  params.kernel = ForceKernel::kAuto;
  BsbBatchEngine auto_engine(model, params, 2);
  EXPECT_EQ(auto_engine.kernel_kind(),
            kernels::select_force_kernel(ForceKernel::kAuto, cpu_features(),
                                         model.has_dense_plane(),
                                         auto_engine.replicas())
                .kind);

  // R = 1: auto takes the row-block layout and reports its ISA tier.
  BsbBatchEngine single_engine(model, params, 1);
  const auto single = kernels::select_force_kernel(
      ForceKernel::kAuto, cpu_features(), model.has_dense_plane(), 1);
  EXPECT_EQ(single_engine.kernel_kind(), ForceKernel::kRowBlock);
  EXPECT_STREQ(single_engine.kernel_name(), single.name);
  EXPECT_EQ(std::string(single_engine.kernel_name()).rfind("rowblock-", 0),
            0u);
}

/// A sparse model past the engine's sharding threshold at R = 1 (8192
/// lanes): ~4 random couplings per spin, and 8300 spins so the last block
/// has 4 rows and the pool's default row grain on 4 workers (8300 / 16 =
/// 518 rows) would split blocks if the engine handed out rows.
IsingModel large_sparse_model() {
  constexpr std::size_t n = 8300;
  Rng rng(61);
  IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.set_bias(i, rng.next_double(-1.0, 1.0));
    for (int k = 0; k < 2; ++k) {
      const std::size_t j = rng.next_below(n);
      if (j != i) {
        m.add_coupling(i, j, rng.next_double(-1.0, 1.0));
      }
    }
  }
  m.finalize();
  return m;
}

TEST(ForceKernelParity, ShardedRowBlockForcePlaneBitIdentical) {
  // Four workers each take whole blocks of the row-block plane; the result
  // must equal the unsharded pass and the scalar CSR reference bit for bit.
  const auto model = large_sparse_model();
  RunContext::Options opts;
  opts.threads = 4;
  const RunContext ctx(opts);
  for (bool discrete : {false, true}) {
    SbParams params = quick_params(71);
    params.discrete = discrete;
    std::vector<std::vector<double>> planes;
    for (const auto& [kind, sharded] :
         {std::pair{ForceKernel::kScalar, false},
          std::pair{ForceKernel::kAuto, false},
          std::pair{ForceKernel::kAuto, true}}) {
      params.kernel = kind;
      BsbBatchEngine engine(model, params, 1);
      ASSERT_EQ(engine.kernel_kind(), kind == ForceKernel::kAuto
                                          ? ForceKernel::kRowBlock
                                          : ForceKernel::kScalar);
      if (sharded) {
        engine.set_context(&ctx);
      }
      Rng rng(73);
      for (double& v : engine.positions()) {
        v = rng.next_double(-1.0, 1.0);
      }
      engine.compute_forces();
      planes.emplace_back(engine.forces().begin(), engine.forces().end());
    }
    for (std::size_t k = 1; k < planes.size(); ++k) {
      ASSERT_EQ(planes[k].size(), planes[0].size());
      EXPECT_EQ(std::memcmp(planes[k].data(), planes[0].data(),
                            planes[0].size() * sizeof(double)),
                0)
          << "plane " << k << (discrete ? " discrete" : " continuous");
    }
  }
}

// -------------------------------------------------- DALTA-level bit parity

TEST(ForceKernelParity, DaltaResultBitIdenticalAcrossKernels) {
  const auto exact = make_continuous_table(continuous_spec("exp"), 7, 7);
  const auto dist = InputDistribution::uniform(7);
  DaltaParams params;
  params.free_size = 3;
  params.num_partitions = 4;
  params.rounds = 1;
  params.seed = 7;
  params.parallel = false;

  const auto reference_solver =
      SolverRegistry::global().make_from_spec("prop,n=7,kernel=scalar");
  const auto reference = run_dalta(exact, dist, params, *reference_solver);

  for (ForceKernel k : parity_kernels(true)) {
    const auto solver = SolverRegistry::global().make_from_spec(
        std::string("prop,n=7,kernel=") + kernels::force_kernel_name(k));
    const auto got = run_dalta(exact, dist, params, *solver);
    EXPECT_EQ(got.approx, reference.approx) << kernels::force_kernel_name(k);
    EXPECT_EQ(got.med, reference.med) << kernels::force_kernel_name(k);
    EXPECT_EQ(got.error_rate, reference.error_rate);
    EXPECT_EQ(got.cop_solves, reference.cop_solves);
  }
}

}  // namespace
}  // namespace adsd
