// Tests for the dispatched force-kernel layer (DESIGN.md §4.6): the
// choice between the bipartite layout and the CSR kernel, the cpuid
// ISA chain of the families that have tiers on masked feature sets, and
// the layer's central contract — every dispatched variant (the CSR kernel
// and each bipartite tier alike) produces bit-identical force planes,
// solve results, and DALTA runs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/column_cop.hpp"
#include "core/cop_solvers.hpp"
#include "core/dalta.hpp"
#include "funcs/continuous.hpp"
#include "ising/bsb.hpp"
#include "ising/bsb_batch.hpp"
#include "ising/engine.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "ising/model.hpp"
#include "support/cpu_features.hpp"
#include "support/rng.hpp"

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

/// A column-COP Ising model over the trivial (free, n - free) partition:
/// r = 2^free matrix rows and c = 2^(n - free) columns, so V1/V2/T spins
/// start at 0, r and 2r. Joint mode by default; the default shape is the
/// paper's n = 9 model, about half of whose possible couplings are
/// present. Separate mode uses the matrix of output bit 0.
IsingModel column_cop_model(unsigned n = 9, unsigned free_size = 4,
                            bool joint = true) {
  const auto exact = make_continuous_table(continuous_spec("exp"), n, n);
  const auto w = InputPartition::trivial(n, free_size);
  const auto m = BooleanMatrix::from_function(exact, 0, w);
  const auto dist = InputDistribution::uniform(n);
  const auto probs = matrix_probs(dist, w);
  if (!joint) {
    return ColumnCop::separate(m, probs).to_ising();
  }
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

/// An n = 9 column COP over the trivial (4, 5) partition under a random
/// input distribution: joint mode with integer D, or separate mode on
/// output bit 4. The probabilities are not one power of two apart, so the
/// model fails IsingModel::exact_arithmetic().
IsingModel weighted_column_cop_model(bool joint) {
  const auto exact = make_continuous_table(continuous_spec("exp"), 9, 9);
  const auto w = InputPartition::trivial(9, 4);
  Rng rng(29);
  std::vector<double> weights(std::size_t{1} << 9);
  for (double& v : weights) {
    v = rng.next_double(0.5, 1.5);
  }
  const auto probs =
      matrix_probs(InputDistribution::from_weights(weights), w);
  if (!joint) {
    return ColumnCop::separate(BooleanMatrix::from_function(exact, 4, w), probs)
        .to_ising();
  }
  const auto m = BooleanMatrix::from_function(exact, 0, w);
  std::vector<double> d(m.rows() * m.cols());
  for (auto& v : d) {
    v = std::floor(rng.next_double(-6.0, 6.0));
  }
  return ColumnCop::joint(m, probs, d, 2.0).to_ising();
}

/// A complete 48-spin model plus one uncoupled spin whose bias is set to
/// -0.0, which the model stores as +0.0: every tier must give that row a
/// +0.0 force.
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

// ---------------------------------------------------------------- dispatch

TEST(ForceKernelDispatch, NoFeaturesResolvesScalar) {
  const auto sel = kernels::select_force_kernel(
      ForceKernel::kAuto, no_features(), 1, kernels::ModelShape::kGeneric);
  EXPECT_EQ(sel.kind, ForceKernel::kScalar);
  EXPECT_STREQ(sel.name, "scalar");
  ASSERT_NE(sel.continuous, nullptr);
  ASSERT_NE(sel.discrete, nullptr);
}

TEST(ForceKernelDispatch, SimdRequestsFallBackToScalarWithoutFeatures) {
  // A masked feature set must walk the whole chain down to the portable
  // tier even when the SIMD code is compiled in: the OS/CPU probe is the
  // authority. The force request keeps the one CSR kernel.
  const auto portable_step =
      kernels::select_bsb_step(ForceKernel::kScalar, no_features());
  const auto portable_reset =
      kernels::select_theorem3_reset(ForceKernel::kScalar, no_features());
  for (ForceKernel k : {ForceKernel::kAvx2, ForceKernel::kAvx512}) {
    EXPECT_EQ(kernels::select_bsb_step(k, no_features()), portable_step);
    EXPECT_EQ(kernels::select_theorem3_reset(k, no_features()),
              portable_reset);
    const auto sel = kernels::select_force_kernel(k, no_features());
    EXPECT_EQ(sel.kind, ForceKernel::kScalar);
    EXPECT_STREQ(sel.name, "scalar");
  }
}

TEST(ForceKernelDispatch, Avx512RequestFallsBackToAvx2) {
  if (!kernels::force_kernel_compiled(ForceKernel::kAvx2)) {
    GTEST_SKIP() << "AVX2 kernels not compiled into this binary";
  }
  const CpuFeatures f = avx2_features();
  const auto avx2_step = kernels::select_bsb_step(ForceKernel::kAvx2, f);
  EXPECT_NE(avx2_step, kernels::select_bsb_step(ForceKernel::kScalar, f));
  EXPECT_EQ(kernels::select_bsb_step(ForceKernel::kAvx512, f), avx2_step);
  EXPECT_EQ(kernels::select_theorem3_reset(ForceKernel::kAvx512, f),
            kernels::select_theorem3_reset(ForceKernel::kAvx2, f));
  EXPECT_STREQ(kernels::select_force_kernel(ForceKernel::kAuto, f).name,
               "bipartite-avx2");
}

TEST(ForceKernelDispatch, AutoPicksWidestSupportedIsa) {
  // The tiered families take the widest ISA; on a generic model the force
  // pass is the CSR kernel on every host.
  const struct {
    ForceKernel isa;
    CpuFeatures features;
    const char* bipartite;
  } widest[] = {{ForceKernel::kAvx512, avx512_features(), "bipartite-avx512"},
                {ForceKernel::kAvx2, avx2_features(), "bipartite-avx2"}};
  for (const auto& w : widest) {
    if (!kernels::force_kernel_compiled(w.isa)) {
      continue;
    }
    EXPECT_EQ(kernels::select_bsb_step(ForceKernel::kAuto, w.features),
              kernels::select_bsb_step(w.isa, w.features));
    EXPECT_EQ(kernels::select_theorem3_reset(ForceKernel::kAuto, w.features),
              kernels::select_theorem3_reset(w.isa, w.features));
    EXPECT_STREQ(
        kernels::select_force_kernel(ForceKernel::kAuto, w.features).name,
        w.bipartite);
    EXPECT_STREQ(kernels::select_force_kernel(ForceKernel::kAuto, w.features,
                                              1, kernels::ModelShape::kGeneric)
                     .name,
                 "scalar");
  }
}

TEST(ForceKernelDispatch, Avx2NeedsFmaToo) {
  // The AVX2 translation unit is built with -mavx2 -mfma, so a CPU with
  // AVX2 but no FMA must not dispatch into it.
  CpuFeatures f;
  f.avx2 = true;
  f.fma = false;
  EXPECT_EQ(kernels::select_bsb_step(ForceKernel::kAvx2, f),
            kernels::select_bsb_step(ForceKernel::kScalar, f));
  EXPECT_EQ(kernels::select_theorem3_reset(ForceKernel::kAvx2, f),
            kernels::select_theorem3_reset(ForceKernel::kScalar, f));
  EXPECT_STREQ(kernels::select_force_kernel(ForceKernel::kAuto, f).name,
               "bipartite-scalar");
}

TEST(ForceKernelDispatch, SelectableKernelsResolveToThemselves) {
  // selectable_force_kernels() lists the ISA tiers this host runs; each
  // pins its own bSB step and Theorem-3 reset tier (no two share one, so
  // none fell down the chain), while a force request resolves to the CSR
  // kernel on either model shape.
  const auto kinds = kernels::selectable_force_kernels();
  ASSERT_FALSE(kinds.empty());
  EXPECT_EQ(kinds.front(), ForceKernel::kScalar);
  std::set<kernels::BsbStepFn> steps;
  std::set<kernels::Theorem3ResetFn> resets;
  for (ForceKernel k : kinds) {
    steps.insert(kernels::select_bsb_step(k, cpu_features()));
    resets.insert(kernels::select_theorem3_reset(k, cpu_features()));
    for (const kernels::ModelShape shape :
         {kernels::ModelShape::kBipartite, kernels::ModelShape::kGeneric}) {
      const auto sel = kernels::select_force_kernel(k, cpu_features(), 1, shape);
      EXPECT_EQ(sel.kind, ForceKernel::kScalar)
          << kernels::force_kernel_name(k);
    }
  }
  EXPECT_EQ(steps.size(), kinds.size());
  EXPECT_EQ(resets.size(), kinds.size());
  // The widest listed tier is the one auto picks.
  EXPECT_EQ(kernels::select_bsb_step(ForceKernel::kAuto, cpu_features()),
            kernels::select_bsb_step(kinds.back(), cpu_features()));
}

// ----------------------------------------------- dispatch on a column COP

TEST(ForceKernelDispatch, OneReplicaResolvesBipartiteAtWidestIsa) {
  // auto on a column COP takes the bipartite layout at the widest tier
  // the masked "CPU" runs.
  CpuFeatures no_fma;
  no_fma.avx2 = true;
  const auto scalar =
      kernels::select_force_kernel(ForceKernel::kAuto, no_features());
  EXPECT_EQ(scalar.kind, ForceKernel::kBipartite);
  EXPECT_STREQ(scalar.name, "bipartite-scalar");
  ASSERT_NE(scalar.continuous, nullptr);
  ASSERT_NE(scalar.discrete, nullptr);
  EXPECT_STREQ(kernels::select_force_kernel(ForceKernel::kAuto, no_fma).name,
               "bipartite-scalar");
  if (kernels::force_kernel_compiled(ForceKernel::kAvx2)) {
    const auto sel =
        kernels::select_force_kernel(ForceKernel::kAuto, avx2_features());
    EXPECT_EQ(sel.kind, ForceKernel::kBipartite);
    EXPECT_STREQ(sel.name, "bipartite-avx2");
  }
  if (kernels::force_kernel_compiled(ForceKernel::kAvx512)) {
    const auto sel =
        kernels::select_force_kernel(ForceKernel::kAuto, avx512_features());
    EXPECT_EQ(sel.kind, ForceKernel::kBipartite);
    EXPECT_STREQ(sel.name, "bipartite-avx512");
  }
  for (const CpuFeatures& f :
       {no_features(), avx2_features(), avx512_features()}) {
    // The end-to-end benchmark's frozen provenance call passes `false`
    // (a count of 0) for the kept third parameter: it resolves exactly
    // like the engines' 1.
    EXPECT_STREQ(kernels::select_force_kernel(ForceKernel::kAuto, f, false)
                     .name,
                 kernels::select_force_kernel(ForceKernel::kAuto, f, 1).name);
    // A generic model has no bipartite layout: auto keeps CSR.
    const auto generic = kernels::select_force_kernel(
        ForceKernel::kAuto, f, 1, kernels::ModelShape::kGeneric);
    EXPECT_EQ(generic.kind, ForceKernel::kScalar);
    EXPECT_STREQ(generic.name, "scalar");
  }
}

TEST(ForceKernelDispatch, ExplicitRequestsAtOneReplicaKeepTheirLayout) {
  // The CSR kernel stays reachable on a column COP as the parity
  // reference.
  const auto scalar =
      kernels::select_force_kernel(ForceKernel::kScalar, avx512_features());
  EXPECT_EQ(scalar.kind, ForceKernel::kScalar);
  EXPECT_STREQ(scalar.name, "scalar");
}

// ------------------------------------------------- force-plane bit parity

/// The requests the parity suites compare: every ISA tier the host runs
/// (each the CSR kernel with that tier's bSB step), then auto -- the
/// bipartite layout on a column COP, the CSR kernel otherwise.
std::vector<ForceKernel> parity_kernels() {
  auto kinds = kernels::selectable_force_kernels();
  kinds.push_back(ForceKernel::kAuto);
  return kinds;
}

/// Runs compute_forces() once per parity kernel on identical positions
/// and expects bit-identical force planes.
void expect_force_parity(const IsingModel& model, bool discrete,
                         std::uint64_t seed) {
  SbParams params = quick_params(seed);
  params.discrete = discrete;

  std::vector<double> reference;
  for (ForceKernel k : parity_kernels()) {
    params.kernel = k;
    BsbBatchEngine engine(model, params);
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
        << "kernel " << kernels::force_kernel_name(k) << " seed " << seed
        << (discrete ? " discrete" : " continuous");
  }
}

TEST(ForceKernelParity, ForcePlanesBitIdenticalSparseModel) {
  Rng rng(41);
  const auto model = random_model(33, 0.3, rng);
  for (const std::uint64_t seed : {901u, 902u, 908u, 913u}) {
    expect_force_parity(model, false, seed);
    expect_force_parity(model, true, seed);
  }
}

TEST(ForceKernelParity, ForcePlanesBitIdenticalColumnCopModel) {
  const auto model = column_cop_model();
  for (const std::uint64_t seed : {701u, 702u, 708u, 713u}) {
    expect_force_parity(model, false, seed);
    expect_force_parity(model, true, seed);
  }

  // Two matrix rows and 64 columns: one V block with 2 of its 16 rows
  // live, and two whole T blocks.
  const auto two_rows = column_cop_model(7, 1);
  ASSERT_EQ(two_rows.num_spins(), 68u);

  // V1[0] and V2[0] are uncoupled with a requested bias of -0.0, and the
  // bipartite layout adds +-0.0 terms to their accumulators: exact only
  // because the model stores that bias as +0.0.
  const auto zero_row = zero_row_column_cop_model();
  ASSERT_TRUE(zero_row.neighbors(0).empty());
  ASSERT_TRUE(zero_row.neighbors(16).empty());
  EXPECT_FALSE(std::signbit(zero_row.bias(0)));
  EXPECT_FALSE(std::signbit(zero_row.bias(16)));

  for (const IsingModel* m : {&two_rows, &zero_row}) {
    for (const std::uint64_t seed : {601u, 602u, 608u}) {
      expect_force_parity(*m, false, seed);
      expect_force_parity(*m, true, seed);
    }
  }
}

TEST(ForceKernelParity, ForcePlanesBitIdenticalDenseModel) {
  // Near-complete generic models through the CSR kernel under every
  // request (auto keeps CSR on them). In the second model the uncoupled
  // row's bias was set to -0.0.
  Rng rng(43);
  const auto model = random_model(48, 1.0, rng);
  const auto signed_zero = signed_zero_dense_model();
  ASSERT_TRUE(signed_zero.neighbors(48).empty());
  EXPECT_FALSE(std::signbit(signed_zero.bias(48)));
  for (const IsingModel* m : {&model, &signed_zero}) {
    for (const std::uint64_t seed : {801u, 802u, 808u, 813u}) {
      expect_force_parity(*m, false, seed);
      expect_force_parity(*m, true, seed);
    }
  }
}

TEST(ForceKernelParity, BipartiteTiersBitIdenticalToScalarCsr) {
  // Engines run only the host's widest bipartite tier, so this drives each
  // tier the host can execute (portable, AVX2, AVX-512) directly on the
  // bipartite layout and compares it with the scalar CSR kernel. The
  // (r, c) shapes cover V blocks with 2, 8, 16 and 128 rows and T blocks
  // with 4, 16, 32 and 512 columns, so every masked tail runs; the
  // zero-row model has +-0.0 gains and a -0.0 bias request.
  struct Shape {
    unsigned n;
    unsigned free_size;
  };
  std::vector<IsingModel> models;
  for (const Shape& s : {Shape{3, 1}, Shape{7, 3}, Shape{9, 4}, Shape{16, 7}}) {
    for (bool joint : {true, false}) {
      models.push_back(column_cop_model(s.n, s.free_size, joint));
    }
  }
  models.push_back(zero_row_column_cop_model());
  const auto reference =
      kernels::select_force_kernel(ForceKernel::kScalar, no_features());
  int tiers = 0;
  for (const CpuFeatures& f :
       {no_features(), avx2_features(), avx512_features()}) {
    const auto sel = kernels::select_force_kernel(ForceKernel::kAuto, f);
    ASSERT_EQ(sel.kind, ForceKernel::kBipartite);
    if ((f.avx2 && !kernels::force_kernel_supported(ForceKernel::kAvx2,
                                                    cpu_features())) ||
        (f.avx512f && !kernels::force_kernel_supported(ForceKernel::kAvx512,
                                                       cpu_features()))) {
      continue;  // this host (or build) cannot execute the tier
    }
    ++tiers;
    for (const IsingModel& model : models) {
      // The tiles come from the plane, the reference walks the CSR the
      // model derives from it.
      const BipartiteShape shape = model.bipartite_shape().value();
      const CsrPlanes csr = flatten_csr(model);
      kernels::ForcePlanes planes;
      planes.h = csr.h.data();
      planes.row_start = csr.row_start.data();
      planes.cols = csr.cols.data();
      planes.weights = csr.weights.data();
      planes.n = model.num_spins();
      const auto layout = kernels::build_bipartite(
          model.bipartite_plane().data(), shape.rows, shape.cols);
      layout.bind(planes);
      std::vector<double> x(planes.n);
      Rng xr(83);
      for (double& v : x) {
        v = xr.next_double(-1.0, 1.0);
      }
      planes.x = x.data();
      for (bool discrete : {false, true}) {
        std::vector<double> want(planes.n);
        planes.force = want.data();
        (discrete ? reference.discrete : reference.continuous)(planes);
        std::vector<double> got(planes.n);
        planes.force = got.data();
        (discrete ? sel.discrete : sel.continuous)(planes);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              planes.n * sizeof(double)),
                  0)
            << sel.name << " r=" << shape.rows << " c=" << shape.cols
            << (discrete ? " discrete" : " continuous");
      }
    }
  }
  EXPECT_GE(tiers, 1);
}

// ------------------------------------------------- full-solve bit parity

TEST(ForceKernelParity, SolveBitIdenticalAcrossKernels) {
  // The weighted column COPs fail IsingModel::exact_arithmetic(), so every
  // solve recomputes threatening energies from scratch: under auto their
  // tracker takes grouped flip fields from the plane, under the CSR
  // requests it walks CSR per flip.
  Rng rng(47);
  const IsingModel weighted_joint = weighted_column_cop_model(true);
  const IsingModel weighted_separate = weighted_column_cop_model(false);
  ASSERT_FALSE(weighted_joint.exact_arithmetic());
  ASSERT_FALSE(weighted_separate.exact_arithmetic());
  const IsingModel models[] = {column_cop_model(), weighted_joint,
                               weighted_separate, random_model(48, 1.0, rng)};
  for (const IsingModel& model : models) {
    for (bool discrete : {false, true}) {
      SbParams params = quick_params(55);
      params.discrete = discrete;
      params.kernel = ForceKernel::kScalar;
      const auto reference = solve_sb(model, params);
      for (ForceKernel k : parity_kernels()) {
        params.kernel = k;
        const auto got = solve_sb(model, params);
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

TEST(ForceKernelParity, EngineReportsResolvedKernelName) {
  const auto model = column_cop_model();
  SbParams params = quick_params(1);
  params.kernel = ForceKernel::kScalar;
  BsbBatchEngine scalar_engine(model, params);
  EXPECT_STREQ(scalar_engine.kernel_name(), "scalar");
  EXPECT_EQ(scalar_engine.kernel_kind(), ForceKernel::kScalar);

  // auto takes the bipartite layout on a column COP and reports its ISA
  // tier.
  params.kernel = ForceKernel::kAuto;
  BsbBatchEngine auto_engine(model, params);
  const auto bipartite =
      kernels::select_force_kernel(ForceKernel::kAuto, cpu_features());
  EXPECT_EQ(auto_engine.kernel_kind(), ForceKernel::kBipartite);
  EXPECT_STREQ(auto_engine.kernel_name(), bipartite.name);
  EXPECT_EQ(std::string(auto_engine.kernel_name()).rfind("bipartite-", 0),
            0u);

  // A generic model resolves to CSR and reports that tier.
  Rng rng(3);
  const auto generic = random_model(20, 0.4, rng);
  ASSERT_FALSE(generic.bipartite_shape().has_value());
  BsbBatchEngine generic_engine(generic, params);
  const auto csr = kernels::select_force_kernel(
      ForceKernel::kAuto, cpu_features(), 1, kernels::ModelShape::kGeneric);
  EXPECT_NE(generic_engine.kernel_kind(), ForceKernel::kBipartite);
  EXPECT_EQ(generic_engine.kernel_kind(), csr.kind);
  EXPECT_STREQ(generic_engine.kernel_name(), csr.name);
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

  // No spec string sets the kernel; the options reach the CSR reference.
  auto options = IsingCoreSolver::Options::paper_defaults(7);
  options.sb.kernel = ForceKernel::kScalar;
  const IsingCoreSolver reference_solver(options);
  const auto reference = run_dalta(exact, dist, params, reference_solver);

  for (ForceKernel k : parity_kernels()) {
    options.sb.kernel = k;
    const IsingCoreSolver solver(options);
    const auto got = run_dalta(exact, dist, params, solver);
    EXPECT_EQ(got.approx, reference.approx) << kernels::force_kernel_name(k);
    EXPECT_EQ(got.med, reference.med) << kernels::force_kernel_name(k);
    EXPECT_EQ(got.error_rate, reference.error_rate);
    EXPECT_EQ(got.cop_solves, reference.cop_solves);
  }
}

}  // namespace
}  // namespace adsd
