#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "boolean/boolean_matrix.hpp"
#include "boolean/error_metrics.hpp"
#include "boolean/nondisjoint.hpp"
#include "boolean/partition.hpp"
#include "boolean/truth_table.hpp"
#include "boolean/decomposition.hpp"
#include "core/column_cop.hpp"
#include "core/cop_passes.hpp"
#include "core/cop_solvers.hpp"
#include "ising/bsb_batch.hpp"
#include "ising/doch.hpp"
#include "ising/kernels/force_kernels.hpp"
#include "support/cpu_features.hpp"
#include "support/rng.hpp"

namespace adsd {
namespace {

BooleanMatrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  BooleanMatrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      m.set(i, j, rng.next_bool());
    }
  }
  return m;
}

ColumnSetting random_setting(std::size_t r, std::size_t c, Rng& rng) {
  ColumnSetting s;
  s.v1 = BitVec(r);
  s.v2 = BitVec(r);
  s.t = BitVec(c);
  for (std::size_t i = 0; i < r; ++i) {
    s.v1.set(i, rng.next_bool());
    s.v2.set(i, rng.next_bool());
  }
  for (std::size_t j = 0; j < c; ++j) {
    s.t.set(j, rng.next_bool());
  }
  return s;
}

std::vector<double> uniform_probs(std::size_t r, std::size_t c, unsigned n) {
  return std::vector<double>(r * c, 1.0 / static_cast<double>(1u << n));
}

// ------------------------------------------------------ matrix_probs

TEST(MatrixProbs, UniformFillsConstant) {
  const auto w = InputPartition::trivial(6, 3);
  const auto d = InputDistribution::uniform(6);
  const auto p = matrix_probs(d, w);
  ASSERT_EQ(p.size(), 64u);
  for (double v : p) {
    EXPECT_DOUBLE_EQ(v, 1.0 / 64.0);
  }
}

TEST(MatrixProbs, NonUniformRouting) {
  std::vector<double> weights(16, 0.0);
  weights[0b0110] = 1.0;  // single input pattern carries all mass
  const auto d = InputDistribution::from_weights(std::move(weights));
  const InputPartition w({0, 1}, {2, 3});
  const auto p = matrix_probs(d, w);
  // Pattern 0110: row bits (x0,x1) = (0,1) -> row 2; col (x2,x3) = (1,0)
  // -> col 1.
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(p[i * 4 + j], (i == 2 && j == 1) ? 1.0 : 0.0);
    }
  }
}

// --------------------------------------------------- Separate-mode COP

TEST(ColumnCopSeparate, ObjectiveIsWeightedErrorRate) {
  Rng rng(1);
  const std::size_t r = 4;
  const std::size_t c = 8;
  const auto m = random_matrix(r, c, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(r, c, 5));
  for (int trial = 0; trial < 30; ++trial) {
    const auto s = random_setting(r, c, rng);
    const double expected =
        static_cast<double>(mismatch_count(m, s)) / 32.0;
    EXPECT_NEAR(cop.objective(s), expected, 1e-12);
  }
}

TEST(ColumnCopSeparate, PerfectSettingHasZeroObjective) {
  Rng rng(2);
  const auto w = InputPartition::trivial(6, 2);
  TruthTable tt(6, 1);
  tt.set_output(0, random_decomposable_output(w, rng));
  const auto m = BooleanMatrix::from_function(tt, 0, w);
  const auto cs = check_column_decomposition(m);
  ASSERT_TRUE(cs.has_value());
  const auto cop = ColumnCop::separate(m, uniform_probs(4, 16, 6));
  EXPECT_NEAR(cop.objective(*cs), 0.0, 1e-15);
}

TEST(ColumnCopSeparate, IsingEnergyEqualsObjective) {
  Rng rng(3);
  const std::size_t r = 3;
  const std::size_t c = 5;
  const auto m = random_matrix(r, c, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(r, c, 4));
  const IsingModel model = cop.to_ising();
  EXPECT_EQ(model.num_spins(), 2 * r + c);
  for (int trial = 0; trial < 100; ++trial) {
    const auto s = random_setting(r, c, rng);
    const auto spins = cop.encode(s);
    EXPECT_NEAR(model.energy(spins), cop.objective(s), 1e-12)
        << "Eq. (9) energy must equal the weighted ER";
  }
}

TEST(ColumnCopSeparate, DecodeEncodeRoundTrip) {
  Rng rng(4);
  const auto m = random_matrix(5, 6, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(5, 6, 5));
  const auto s = random_setting(5, 6, rng);
  const auto spins = cop.encode(s);
  const auto back = cop.decode(spins);
  EXPECT_EQ(back.v1, s.v1);
  EXPECT_EQ(back.v2, s.v2);
  EXPECT_EQ(back.t, s.t);
}

// ------------------------------------------------------ Joint-mode COP

/// Brute-force |2^k * Ohat + D| objective for validation.
double true_joint_objective(const BooleanMatrix& m, const ColumnSetting& s,
                            const std::vector<double>& probs,
                            const std::vector<double>& d, double weight) {
  double total = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      const double ohat = s.value(i, j) ? 1.0 : 0.0;
      total += probs[i * m.cols() + j] *
               std::fabs(weight * ohat + d[i * m.cols() + j]);
    }
  }
  return total;
}

TEST(ColumnCopJoint, LinearizationIsExactForAllDCases) {
  Rng rng(5);
  const std::size_t r = 3;
  const std::size_t c = 4;
  const double weight = 4.0;  // bit 2
  const auto m = random_matrix(r, c, rng);
  const auto probs = uniform_probs(r, c, 4);
  // Ds covering all three regimes: D > 0, -w <= D <= 0, D < -w.
  std::vector<double> d(r * c);
  for (auto& v : d) {
    v = std::floor(rng.next_double(-10.0, 10.0));
  }
  const auto cop = ColumnCop::joint(m, probs, d, weight);
  for (int trial = 0; trial < 60; ++trial) {
    const auto s = random_setting(r, c, rng);
    EXPECT_NEAR(cop.objective(s), true_joint_objective(m, s, probs, d, weight),
                1e-12)
        << "Eqs. (13)/(15) must reproduce |2^(k-1) Ohat + D| exactly";
  }
}

TEST(ColumnCopJoint, IsingEnergyEqualsObjective) {
  Rng rng(6);
  const std::size_t r = 4;
  const std::size_t c = 4;
  const auto m = random_matrix(r, c, rng);
  const auto probs = uniform_probs(r, c, 4);
  std::vector<double> d(r * c);
  for (auto& v : d) {
    v = std::floor(rng.next_double(-6.0, 6.0));
  }
  const auto cop = ColumnCop::joint(m, probs, d, 2.0);
  const IsingModel model = cop.to_ising();
  for (int trial = 0; trial < 100; ++trial) {
    const auto s = random_setting(r, c, rng);
    EXPECT_NEAR(model.energy(cop.encode(s)), cop.objective(s), 1e-12)
        << "Eq. (16) energy must equal the linearized MED";
  }
}

TEST(ColumnCopJoint, ZeroDReducesToScaledSeparate) {
  Rng rng(7);
  const std::size_t r = 4;
  const std::size_t c = 6;
  const auto m = random_matrix(r, c, rng);
  const auto probs = uniform_probs(r, c, 5);
  const std::vector<double> d(r * c, 0.0);
  const auto joint = ColumnCop::joint(m, probs, d, 8.0);
  const auto sep = ColumnCop::separate(m, probs);
  for (int trial = 0; trial < 20; ++trial) {
    const auto s = random_setting(r, c, rng);
    // D = 0: |8*Ohat - 0| = 8*Ohat... but the exact value only contributes
    // through D, so joint cost = 8 * Ohat regardless of O. Compare against
    // the closed form directly.
    double expect = 0.0;
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        expect += probs[i * c + j] * 8.0 * (s.value(i, j) ? 1.0 : 0.0);
      }
    }
    EXPECT_NEAR(joint.objective(s), expect, 1e-12);
    (void)sep;
  }
}

TEST(ColumnCopJoint, ConsistentDGivesZeroAtExactSetting) {
  // If the other outputs are exact and this output's matrix decomposes
  // exactly, then D = -2^k * O and the exact setting has zero cost.
  Rng rng(8);
  const auto w = InputPartition::trivial(5, 2);
  TruthTable tt(5, 1);
  tt.set_output(0, random_decomposable_output(w, rng));
  const auto m = BooleanMatrix::from_function(tt, 0, w);
  const auto cs = check_column_decomposition(m);
  ASSERT_TRUE(cs.has_value());
  const double weight = 4.0;
  const std::size_t r = m.rows();
  const std::size_t c = m.cols();
  std::vector<double> d(r * c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      d[i * c + j] = -weight * (m.at(i, j) ? 1.0 : 0.0);
    }
  }
  const auto cop = ColumnCop::joint(m, uniform_probs(r, c, 5), d, weight);
  EXPECT_NEAR(cop.objective(*cs), 0.0, 1e-15);
}

// --------------------------------------------------------- Theorem 3

TEST(Theorem3, ResetNeverIncreasesObjective) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t r = 4;
    const std::size_t c = 8;
    const auto m = random_matrix(r, c, rng);
    const auto cop = ColumnCop::separate(m, uniform_probs(r, c, 5));
    auto s = random_setting(r, c, rng);
    const double before = cop.objective(s);
    cop.reset_optimal_t(s);
    EXPECT_LE(cop.objective(s), before + 1e-12);
  }
}

TEST(Theorem3, ResetIsOptimalOverAllT) {
  Rng rng(10);
  const std::size_t r = 3;
  const std::size_t c = 4;
  const auto m = random_matrix(r, c, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(r, c, 4));
  auto s = random_setting(r, c, rng);
  cop.reset_optimal_t(s);
  const double opt = cop.objective(s);
  // Exhaustive check over all 2^c type vectors with the same V1/V2.
  for (std::uint64_t bits = 0; bits < (1u << c); ++bits) {
    auto alt = s;
    for (std::size_t j = 0; j < c; ++j) {
      alt.t.set(j, (bits >> j) & 1);
    }
    EXPECT_GE(cop.objective(alt), opt - 1e-12);
  }
}

TEST(Theorem3, VResetNeverIncreasesAndIsOptimal) {
  Rng rng(11);
  const std::size_t r = 3;
  const std::size_t c = 5;
  const auto m = random_matrix(r, c, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(r, c, 4));
  auto s = random_setting(r, c, rng);
  const double before = cop.objective(s);
  cop.reset_optimal_v(s);
  const double after = cop.objective(s);
  EXPECT_LE(after, before + 1e-12);
  // Exhaustive over all V1 for fixed V2, T.
  for (std::uint64_t bits = 0; bits < (1u << r); ++bits) {
    auto alt = s;
    for (std::size_t i = 0; i < r; ++i) {
      alt.v1.set(i, (bits >> i) & 1);
    }
    EXPECT_GE(cop.objective(alt), after - 1e-12);
  }
}

TEST(Theorem3, PlaneResetMatchesPerReplicaReset) {
  // The row-outer plane sweep against reset_optimal_t, one sign pattern at
  // a time: T positions, zeroed T momenta, untouched V planes and the
  // degenerate flag. The patterns of a batch are drawn as one interleaved
  // plane (spin i of pattern q at i * count + q) and reset one by one.
  // Pattern 0 is pinned to one of two edge cases. "tie": V1 sets only
  // rows a and b, whose column-0 gains cancel exactly, and V2 is empty, so
  // column 0 ties at 0.0 and must pick pattern 1. "equal": V2 spells the
  // same signs as V1 (degenerate). Positions include +0.0 and -0.0, which
  // read as set.
  const std::size_t r = 8;
  const std::size_t c = 16;
  Rng rng(15);
  for (bool joint : {false, true}) {
    const auto m = random_matrix(r, c, rng);
    std::size_t a = 0;
    std::size_t b = 1;
    while (m.at(a, 0) == m.at(b, 0)) {
      ++b;  // needs two rows with opposite column-0 bits
    }
    std::vector<double> d(r * c);
    for (auto& v : d) {
      v = std::floor(rng.next_double(-6.0, 6.0));
    }
    const auto probs = uniform_probs(r, c, 7);
    const auto cop = joint ? ColumnCop::joint(m, probs, d, 4.0)
                           : ColumnCop::separate(m, probs);
    const std::size_t n = cop.num_spins();
    for (std::size_t count : {1u, 3u, 8u}) {
      for (bool tie : {true, false}) {
        std::vector<double> xs(n * count);
        std::vector<double> ys(n * count);
        for (std::size_t k = 0; k < xs.size(); ++k) {
          xs[k] = k % 13 == 5 ? 0.0
                  : k % 13 == 6 ? -0.0
                                : rng.next_double(-1.0, 1.0);
          ys[k] = rng.next_double(-1.0, 1.0);
        }
        for (std::size_t i = 0; i < r; ++i) {
          double& x1 = xs[cop.v1_spin(i) * count];
          double& x2 = xs[cop.v2_spin(i) * count];
          if (tie) {
            x1 = i == a || i == b ? 0.5 : -0.5;
            x2 = -0.5;
          } else {
            x2 = x1 >= 0.0 ? 0.25 : -0.25;
          }
        }

        for (std::size_t q = 0; q < count; ++q) {
          std::vector<double> x(n);
          std::vector<double> y(n);
          for (std::size_t i = 0; i < n; ++i) {
            x[i] = xs[i * count + q];
            y[i] = ys[i * count + q];
          }
          ColumnSetting s;
          s.v1 = BitVec(r);
          s.v2 = BitVec(r);
          s.t = BitVec(c);
          for (std::size_t i = 0; i < r; ++i) {
            s.v1.set(i, x[cop.v1_spin(i)] >= 0.0);
            s.v2.set(i, x[cop.v2_spin(i)] >= 0.0);
          }
          cop.reset_optimal_t(s);
          std::vector<double> want_x = x;
          std::vector<double> want_y = y;
          for (std::size_t j = 0; j < c; ++j) {
            want_x[cop.t_spin(j)] = s.t.get(j) ? 1.0 : -1.0;
            want_y[cop.t_spin(j)] = 0.0;
          }
          const std::size_t on2 = s.t.count();
          const bool want_degenerate = on2 == 0 || on2 == c || s.v1 == s.v2;
          if (q == 0 && tie && !joint) {
            EXPECT_EQ(want_x[cop.t_spin(0)], -1.0);  // pattern 1
          }
          if (q == 0 && !tie) {
            EXPECT_TRUE(want_degenerate);
          }

          bool degenerate = false;
          cop.reset_optimal_t_planes(x, y, &degenerate);
          const std::string where = std::string(joint ? "joint" : "separate") +
                                    " pattern " + std::to_string(q) + "/" +
                                    std::to_string(count) +
                                    (tie ? " tie" : " equal");
          EXPECT_EQ(std::memcmp(x.data(), want_x.data(), n * sizeof(double)),
                    0)
              << where;
          EXPECT_EQ(std::memcmp(y.data(), want_y.data(), n * sizeof(double)),
                    0)
              << where;
          EXPECT_EQ(degenerate, want_degenerate) << where;
        }
      }
    }
  }
}

TEST(Theorem3, ResetTiersMatchPortableLoop) {
  // Every reset tier the host can execute against the portable loop and
  // against a per-column branchy reference, on gain planes with +-0.0
  // entries and exact-cancel ties (cost1 == cost2 picks pattern 1). The
  // column counts cover chunk tails of every tier (8 / 16 / 32). The sign
  // patterns of a batch are drawn as one interleaved plane (spin i of
  // pattern q at i * count + q) and reset one by one.
  const double values[] = {-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0};
  Rng rng(31);
  const auto portable = kernels::select_theorem3_reset(
      kernels::ForceKernel::kScalar, cpu_features());
  for (const std::size_t c : {4u, 16u, 40u, 512u}) {
    const std::size_t r = c == 512 ? 128 : 16;
    std::vector<double> gain(r * c);
    for (double& g : gain) {
      g = values[rng.next_below(7)];
    }
    for (const std::size_t count : {1u, 2u, 3u, 8u}) {
      const std::size_t n = 2 * r + c;
      std::vector<double> xs(n * count);
      std::vector<double> ys(n * count);
      for (std::size_t k = 0; k < xs.size(); ++k) {
        xs[k] = k % 11 == 4 ? -0.0 : rng.next_double(-1.0, 1.0);
        ys[k] = rng.next_double(-1.0, 1.0);
      }
      for (std::size_t q = 0; q < count; ++q) {
        std::vector<double> x0(n);
        std::vector<double> y0(n);
        for (std::size_t i = 0; i < n; ++i) {
          x0[i] = xs[i * count + q];
          y0[i] = ys[i * count + q];
        }
        // Reference: column by column, rows ascending.
        std::vector<double> want_x = x0;
        std::vector<double> want_y = y0;
        std::size_t on2 = 0;
        for (std::size_t j = 0; j < c; ++j) {
          double cost1 = 0.0;
          double cost2 = 0.0;
          for (std::size_t i = 0; i < r; ++i) {
            if (x0[i] >= 0.0) {
              cost1 += gain[i * c + j];
            }
            if (x0[r + i] >= 0.0) {
              cost2 += gain[i * c + j];
            }
          }
          const bool two = cost2 < cost1;
          want_x[2 * r + j] = two ? 1.0 : -1.0;
          want_y[2 * r + j] = 0.0;
          on2 += two ? 1 : 0;
        }
        const bool want_one = on2 == 0 || on2 == c;
        for (const kernels::ForceKernel k :
             kernels::selectable_force_kernels()) {
          for (const auto fn :
               {portable, kernels::select_theorem3_reset(k, cpu_features())}) {
            std::vector<double> x = x0;
            std::vector<double> y = y0;
            bool one = !want_one;
            kernels::Theorem3Planes planes;
            planes.gain = gain.data();
            planes.x = x.data();
            planes.y = y.data();
            planes.one_pattern = &one;
            planes.rows = r;
            planes.cols = c;
            fn(planes);
            const std::string where =
                std::string(kernels::force_kernel_name(k)) +
                " c=" + std::to_string(c) + " pattern " + std::to_string(q) +
                "/" + std::to_string(count);
            EXPECT_EQ(std::memcmp(x.data(), want_x.data(), n * sizeof(double)),
                      0)
                << where;
            EXPECT_EQ(std::memcmp(y.data(), want_y.data(), n * sizeof(double)),
                      0)
                << where;
            EXPECT_EQ(one, want_one) << where;
          }
        }
      }
    }
  }
}

TEST(ColumnCop, ToIsingEqualsShuffledGeneralBuild) {
  // to_ising() builds a column-COP model that holds its coupling plane and
  // derives CSR from it. Adding the same couplings in shuffled order and
  // random orientation, through the general path (triplets, sort, merge,
  // CSR), must give the same model bit for bit.
  Rng rng(16);
  for (const auto& [r, c] : {std::pair<std::size_t, std::size_t>{4, 8},
                             std::pair<std::size_t, std::size_t>{16, 32}}) {
    for (bool joint : {false, true}) {
      const auto m = random_matrix(r, c, rng);
      std::vector<double> probs(r * c);
      std::vector<double> d(r * c);
      for (std::size_t k = 0; k < r * c; ++k) {
        probs[k] = k % 7 == 3 ? 0.0 : rng.next_double(0.0, 0.01);
        d[k] = std::floor(rng.next_double(-6.0, 6.0));
      }
      const auto cop = joint ? ColumnCop::joint(m, probs, d, 4.0)
                             : ColumnCop::separate(m, probs);
      const IsingModel fast = cop.to_ising();
      ASSERT_TRUE(fast.bipartite_shape().has_value());
      EXPECT_EQ(fast.bipartite_shape()->rows, r);
      EXPECT_EQ(fast.bipartite_shape()->cols, c);
      const std::size_t n = fast.num_spins();

      struct Edge {
        std::size_t i;
        std::size_t j;
        double w;
      };
      std::vector<Edge> edges;
      for (std::size_t i = 0; i < 2 * r; ++i) {
        for (const auto& [j, w] : fast.neighbors(i)) {
          edges.push_back({i, j, w});
        }
      }
      for (std::size_t k = edges.size(); k > 1; --k) {
        std::swap(edges[k - 1], edges[rng.next_below(k)]);
      }
      IsingModel general(n);
      for (const Edge& e : edges) {
        if (rng.next_bool()) {
          general.add_coupling(e.i, e.j, e.w);
        } else {
          general.add_coupling(e.j, e.i, e.w);
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        general.set_bias(i, fast.bias(i));
      }
      general.set_constant(fast.constant());
      general.finalize();

      const std::string where = std::string(joint ? "joint" : "separate") +
                                " r=" + std::to_string(r);
      const double kf = fast.constant();
      const double kg = general.constant();
      EXPECT_EQ(std::memcmp(&kf, &kg, sizeof(double)), 0) << where;
      EXPECT_EQ(fast.num_couplings(), general.num_couplings()) << where;
      for (std::size_t i = 0; i < n; ++i) {
        const double hf = fast.bias(i);
        const double hg = general.bias(i);
        EXPECT_EQ(std::memcmp(&hf, &hg, sizeof(double)), 0) << where;
        const auto nf = fast.neighbors(i);
        const auto ng = general.neighbors(i);
        ASSERT_EQ(nf.size(), ng.size()) << where << " row " << i;
        for (std::size_t k = 0; k < nf.size(); ++k) {
          EXPECT_EQ(nf[k].first, ng[k].first) << where << " row " << i;
          EXPECT_EQ(std::memcmp(&nf[k].second, &ng[k].second,
                                sizeof(double)),
                    0)
              << where << " row " << i;
        }
      }
      EXPECT_EQ(fast.coupling_rms(), general.coupling_rms()) << where;
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::int8_t> spins(n);
        for (auto& sgn : spins) {
          sgn = rng.next_bool() ? 1 : -1;
        }
        EXPECT_EQ(fast.energy(spins), general.energy(spins)) << where;
      }

      // One solve per oscillator engine: the plane model runs the
      // bipartite tiles and the plane flip telescope, the general model
      // CSR; both must follow the same trajectory, dynamic stop included.
      DynamicStopParams stop;
      stop.enabled = true;
      stop.sample_interval = 7;
      stop.window = 4;
      const auto same = [&where](const IsingSolveResult& a,
                                 const IsingSolveResult& b,
                                 const char* engine) {
        EXPECT_EQ(a.spins, b.spins) << where << " " << engine;
        EXPECT_EQ(a.energy, b.energy) << where << " " << engine;
        EXPECT_EQ(a.iterations, b.iterations) << where << " " << engine;
        EXPECT_EQ(a.stopped_early, b.stopped_early) << where << " " << engine;
      };
      SbParams sb;
      sb.max_iterations = 400;
      sb.seed = 5;
      sb.stop = stop;
      EXPECT_EQ(BsbBatchEngine(fast, sb).kernel_kind(),
                kernels::ForceKernel::kBipartite);
      EXPECT_NE(BsbBatchEngine(general, sb).kernel_kind(),
                kernels::ForceKernel::kBipartite);
      same(solve_sb(fast, sb), solve_sb(general, sb), "bsb");
      DochParams doch;
      doch.max_iterations = 400;
      doch.seed = 5;
      doch.stop = stop;
      same(solve_doch(fast, doch), solve_doch(general, doch), "doch");
    }
  }
}

TEST(ColumnCop, IdealBoundIsALowerBound) {
  Rng rng(12);
  for (int trial = 0; trial < 40; ++trial) {
    const auto m = random_matrix(4, 6, rng);
    const auto cop = ColumnCop::separate(m, uniform_probs(4, 6, 5));
    const auto s = random_setting(4, 6, rng);
    EXPECT_LE(cop.ideal_bound(), cop.objective(s) + 1e-12);
  }
}

TEST(ColumnCop, ObjectiveMatchesCellCostSum) {
  // objective() must be the row-major sum of cell_cost() bit for bit, in
  // both modes. Weighted: row 0 has probability zero, so its base and gain
  // entries are +-0.0, and the sums round, so objective() runs the chain.
  // Uniform: probabilities 2^-9 with integer D, so every sum is exact and
  // objective() runs the certified masked sum. The widths put T in one
  // partial word (5), one whole word (64) and several words (100, 512);
  // 16 x 32 and 128 x 512 are the n = 9 and n = 16 shapes.
  Rng rng(15);
  struct Shape {
    std::size_t r;
    std::size_t c;
  };
  for (const Shape sh : {Shape{3, 5}, Shape{3, 64}, Shape{3, 100},
                         Shape{3, 512}, Shape{16, 32}, Shape{128, 512}}) {
    const std::size_t r = sh.r;
    const std::size_t c = sh.c;
    for (const bool uniform : {false, true}) {
      std::vector<double> probs(r * c, 0x1p-9);
      if (!uniform) {
        for (std::size_t k = 0; k < r * c; ++k) {
          probs[k] = k < c ? 0.0
                           : rng.next_double(
                                 0.0, 1.0 / static_cast<double>(r * c));
        }
      }
      std::vector<double> d(r * c);
      for (double& v : d) {
        v = std::floor(rng.next_double(-6.0, 6.0));
      }
      const auto m = random_matrix(r, c, rng);
      const ColumnCop cops[] = {ColumnCop::separate(m, probs),
                                ColumnCop::joint(m, probs, d, 2.0)};
      for (const ColumnCop& cop : cops) {
        const std::string what = "r=" + std::to_string(r) +
                                 " c=" + std::to_string(c) +
                                 (uniform ? " uniform" : " weighted");
        EXPECT_EQ(cop.exact_sums(), uniform) << what;
        for (int trial = 0; trial < 8; ++trial) {
          const auto s = random_setting(r, c, rng);
          double want = 0.0;
          for (std::size_t i = 0; i < r; ++i) {
            for (std::size_t j = 0; j < c; ++j) {
              want += cop.cell_cost(i, j, s.value(i, j));
            }
          }
          const double got = cop.objective(s);
          EXPECT_EQ(got, want) << what << " trial " << trial;
          EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
              << what << " trial " << trial;
        }
      }
    }
  }
}

TEST(ColumnCop, SpinLayoutIndices) {
  Rng rng(13);
  const auto m = random_matrix(4, 6, rng);
  const auto cop = ColumnCop::separate(m, uniform_probs(4, 6, 5));
  EXPECT_EQ(cop.num_spins(), 14u);
  EXPECT_EQ(cop.v1_spin(0), 0u);
  EXPECT_EQ(cop.v2_spin(0), 4u);
  EXPECT_EQ(cop.t_spin(0), 8u);
  EXPECT_EQ(cop.t_spin(5), 13u);
}

TEST(ColumnCop, ValidationErrors) {
  Rng rng(14);
  const auto m = random_matrix(2, 2, rng);
  EXPECT_THROW((void)ColumnCop::separate(m, {0.25}), std::invalid_argument);
  std::vector<double> probs(4, 0.25);
  std::vector<double> d(3, 0.0);
  EXPECT_THROW((void)ColumnCop::joint(m, probs, d, 1.0),
               std::invalid_argument);
  d.resize(4, 0.0);
  EXPECT_THROW((void)ColumnCop::joint(m, probs, d, 0.0),
               std::invalid_argument);
  const auto cop = ColumnCop::separate(m, probs);
  EXPECT_THROW((void)cop.decode(std::vector<std::int8_t>(3)),
               std::invalid_argument);
}

// Parameterized sweep: energy/objective agreement across shapes and modes.
struct ShapeParam {
  std::size_t r;
  std::size_t c;
  bool joint;
};

// Names each case by its fields ("16x32_joint"), so the test IDs do not
// depend on the struct's uninitialized padding bytes.
void PrintTo(const ShapeParam& p, std::ostream* os) {
  *os << p.r << "x" << p.c << (p.joint ? "_joint" : "_separate");
}

class CopEnergySweep : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(CopEnergySweep, EnergyMatchesObjectiveEverywhere) {
  const auto param = GetParam();
  Rng rng(77 + param.r * 13 + param.c + (param.joint ? 1000 : 0));
  const auto m = random_matrix(param.r, param.c, rng);
  std::vector<double> probs(param.r * param.c);
  double total = 0.0;
  for (auto& p : probs) {
    p = rng.next_double(0.0, 1.0);
    total += p;
  }
  for (auto& p : probs) {
    p /= total;  // arbitrary non-uniform input distribution
  }
  ColumnCop cop = [&] {
    if (!param.joint) {
      return ColumnCop::separate(m, probs);
    }
    std::vector<double> d(param.r * param.c);
    for (auto& v : d) {
      v = std::floor(rng.next_double(-9.0, 9.0));
    }
    return ColumnCop::joint(m, probs, d, 4.0);
  }();
  const IsingModel model = cop.to_ising();
  for (int trial = 0; trial < 40; ++trial) {
    const auto s = random_setting(param.r, param.c, rng);
    EXPECT_NEAR(model.energy(cop.encode(s)), cop.objective(s), 1e-11);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CopEnergySweep,
    ::testing::Values(ShapeParam{2, 2, false}, ShapeParam{2, 8, false},
                      ShapeParam{8, 2, false}, ShapeParam{4, 16, false},
                      ShapeParam{16, 4, false}, ShapeParam{2, 2, true},
                      ShapeParam{4, 8, true}, ShapeParam{8, 8, true},
                      ShapeParam{16, 32, true}));

// ------------------------------------------------- one-pass COP build

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The joint-mode case analysis written out branch by branch (Eqs. 12-15),
/// independent of the library's per-cell code: (base, gain) of one cell.
std::pair<double, double> case_analysis_cell(double p, double dij,
                                             double bw) {
  double q;
  double b;
  if (dij >= -bw && dij <= 0.0) {
    q = bw + 2.0 * dij;
    b = -dij;
  } else {
    const double sgn = dij > 0.0 ? 1.0 : -1.0;
    q = bw * sgn;
    b = std::fabs(dij);
  }
  return {p * b, p * q};
}

TruthTable random_table(unsigned n, unsigned m, Rng& rng) {
  TruthTable tt(n, m);
  for (std::uint64_t x = 0; x < tt.num_patterns(); ++x) {
    tt.set_word(x, rng.next_u64());
  }
  return tt;
}

InputDistribution weighted_dist(unsigned n, Rng& rng) {
  std::vector<double> w(std::size_t{1} << n);
  for (double& v : w) {
    // Some patterns never occur, so zero probabilities are covered too.
    v = rng.next_below(4) == 0 ? 0.0 : rng.next_double(0.1, 3.0);
  }
  return InputDistribution::from_weights(std::move(w));
}

/// D per input pattern for output k, drawn from the case boundaries of
/// bw = 2^k (0, -0.0, -bw, -bw/2, +-bw +-1) and from wide integers.
std::vector<double> boundary_d(unsigned n, unsigned m, unsigned k, Rng& rng) {
  const double bw = static_cast<double>(std::uint64_t{1} << k);
  const double picks[] = {0.0,      -0.0,     -bw,      -bw / 2.0, bw + 1.0,
                          bw - 1.0, -bw + 1.0, -bw - 1.0};
  const auto span = static_cast<std::int64_t>(std::uint64_t{1} << m);
  std::vector<double> d(std::size_t{1} << n);
  for (double& v : d) {
    v = rng.next_bool()
            ? picks[rng.next_below(std::size(picks))]
            : static_cast<double>(
                  static_cast<std::int64_t>(rng.next_below(2 * span + 1)) -
                  span);
  }
  return d;
}

/// Asserts two COPs are the same bit for bit: shape, exact matrix, every
/// cell cost, and the Ising plane, biases and constant.
void expect_same_cop(const ColumnCop& got, const ColumnCop& want,
                     const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(got.exact_matrix(), want.exact_matrix()) << what;
  std::size_t cost_mismatches = 0;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      for (const bool ohat : {false, true}) {
        cost_mismatches += !same_bits(got.cell_cost(i, j, ohat),
                                      want.cell_cost(i, j, ohat));
      }
    }
  }
  EXPECT_EQ(cost_mismatches, 0u) << what;
  const IsingModel a = got.to_ising();
  const IsingModel b = want.to_ising();
  ASSERT_EQ(a.num_spins(), b.num_spins()) << what;
  const auto pa = a.bipartite_plane();
  const auto pb = b.bipartite_plane();
  ASSERT_EQ(pa.size(), pb.size()) << what;
  EXPECT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(double)), 0)
      << what;
  std::size_t bias_mismatches = 0;
  for (std::size_t s = 0; s < a.num_spins(); ++s) {
    bias_mismatches += !same_bits(a.bias(s), b.bias(s));
  }
  EXPECT_EQ(bias_mismatches, 0u) << what;
  EXPECT_TRUE(same_bits(a.constant(), b.constant())) << what;
}

TEST(CopBuild, GatherMatchesReferencePathBitwise) {
  // The one-pass build against the kept reference path (from_function_into,
  // matrix_probs_into, a D table scattered through the indexer, and
  // separate()/joint()), and the joint cells against the case analysis
  // written out independently. r = 64 fills one column word; r = 128
  // takes two.
  struct Shape {
    unsigned n;
    unsigned free;
  };
  Rng rng(2024);
  for (const Shape sh : {Shape{3, 1}, Shape{3, 2}, Shape{9, 4}, Shape{9, 5},
                         Shape{12, 6}, Shape{12, 3}, Shape{16, 7}}) {
    const unsigned m = 4;
    const TruthTable tt = random_table(sh.n, m, rng);
    Rng part_rng(sh.n * 100 + sh.free);
    const InputPartition w =
        InputPartition::random(sh.n, sh.free, part_rng);
    CellPatterns cells;
    cells.assign(w);
    const PartitionIndexer idx(w);
    for (const bool uniform : {true, false}) {
      const InputDistribution dist = uniform
                                         ? InputDistribution::uniform(sh.n)
                                         : weighted_dist(sh.n, rng);
      std::vector<double> probs;
      matrix_probs_into(dist, w, idx, probs);
      BooleanMatrix matrix(1, 1);
      for (const unsigned k : {0u, 3u}) {
        BooleanMatrix::from_function_into(tt, k, w, idx, matrix);
        const std::string what = "n=" + std::to_string(sh.n) +
                                 " free=" + std::to_string(sh.free) +
                                 " k=" + std::to_string(k) +
                                 (uniform ? " uniform" : " weighted");
        // Separate mode.
        const ColumnCop sep = ColumnCop::gather(
            CopSource{tt.output(k), dist, DecompMode::kSeparate}, cells);
        expect_same_cop(sep, ColumnCop::separate(matrix, probs),
                        what + " separate");

        // Joint mode.
        const std::vector<double> d_by_input = boundary_d(sh.n, m, k, rng);
        const std::size_t c = w.num_cols();
        std::vector<double> d(w.num_rows() * c);
        for (std::uint64_t x = 0; x < tt.num_patterns(); ++x) {
          d[idx.row_of(x) * c + idx.col_of(x)] = d_by_input[x];
        }
        const double bw = static_cast<double>(std::uint64_t{1} << k);
        const ColumnCop joint = ColumnCop::gather(
            CopSource{tt.output(k), dist, DecompMode::kJoint, d_by_input, bw},
            cells);
        expect_same_cop(joint, ColumnCop::joint(matrix, probs, d, bw),
                        what + " joint");
        std::size_t case_mismatches = 0;
        for (std::size_t i = 0; i < joint.rows(); ++i) {
          for (std::size_t j = 0; j < c; ++j) {
            const auto [base, gain] =
                case_analysis_cell(probs[i * c + j], d[i * c + j], bw);
            // cell_cost() adds +0.0 for Ohat = 0, as the reference does.
            case_mismatches +=
                !same_bits(joint.cell_cost(i, j, false), base + 0.0) ||
                !same_bits(joint.cell_cost(i, j, true), base + gain);
          }
        }
        EXPECT_EQ(case_mismatches, 0u) << what << " case analysis";
      }
    }
  }
}

TEST(CopBuild, GatherIntoRebuildsAcrossShapesAndModes) {
  // One slot rebuilt through shrinking and growing shapes, both modes and
  // both distributions, equals a fresh build every time.
  Rng rng(77);
  std::optional<ColumnCop> slot;
  CellPatterns cells;
  for (const unsigned n : {9u, 12u, 5u, 9u}) {
    const TruthTable tt = random_table(n, 3, rng);
    for (const bool uniform : {false, true}) {
      const InputDistribution dist = uniform ? InputDistribution::uniform(n)
                                             : weighted_dist(n, rng);
      const std::vector<double> d = boundary_d(n, 3, 2, rng);
      for (const DecompMode mode :
           {DecompMode::kJoint, DecompMode::kSeparate}) {
        cells.assign(InputPartition::random(n, 1 + rng.next_below(n - 1), rng));
        const CopSource src{tt.output(2), dist, mode, d, 4.0};
        const ColumnCop& got = ColumnCop::gather_into(src, cells, slot);
        EXPECT_EQ(&got, &*slot);
        expect_same_cop(got, ColumnCop::gather(src, cells),
                        "n=" + std::to_string(n));
      }
    }
  }
}

TEST(CopBuild, SliceCellsMatchSliceMatrix) {
  // run_dalta_nd's slices: cell (i, j) of slice sl is input_of(sl, i, j),
  // so the gathered COP equals the reference built from slice_matrix and
  // per-cell input_of tables.
  Rng rng(91);
  for (const unsigned shared : {1u, 2u}) {
    const unsigned n = 9;
    const TruthTable tt = random_table(n, 4, rng);
    const NonDisjointPartition w =
        NonDisjointPartition::random(n, 3, shared, rng);
    const InputDistribution dist = weighted_dist(n, rng);
    const std::vector<double> d_by_input = boundary_d(n, 4, 2, rng);
    CellPatterns cells;
    for (std::uint64_t sl = 0; sl < w.num_slices(); ++sl) {
      slice_cells(w, sl, cells);
      const BooleanMatrix matrix = slice_matrix(tt, 2, w, sl);
      const std::size_t r = w.num_rows();
      const std::size_t c = w.num_cols();
      std::vector<double> probs(r * c);
      std::vector<double> d(r * c);
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          const std::uint64_t x = w.input_of(sl, i, j);
          EXPECT_EQ(cells.rows[i] | cells.cols[j], x);
          probs[i * c + j] = dist.prob(x);
          d[i * c + j] = d_by_input[x];
        }
      }
      const std::string what =
          "shared=" + std::to_string(shared) + " slice=" + std::to_string(sl);
      expect_same_cop(
          ColumnCop::gather(CopSource{tt.output(2), dist, DecompMode::kJoint,
                                      d_by_input, 4.0},
                            cells),
          ColumnCop::joint(matrix, probs, d, 4.0), what + " joint");
      expect_same_cop(
          ColumnCop::gather(
              CopSource{tt.output(2), dist, DecompMode::kSeparate}, cells),
          ColumnCop::separate(matrix, probs), what + " separate");
    }
  }
}

TEST(CopBuild, RejectsMismatchedSources) {
  Rng rng(5);
  const TruthTable tt = random_table(6, 2, rng);
  const InputDistribution dist = InputDistribution::uniform(6);
  const std::vector<double> d(64, 0.0);
  CellPatterns cells;
  cells.assign(InputPartition::trivial(6, 2));
  // Output column of another width.
  const TruthTable other = random_table(5, 1, rng);
  EXPECT_THROW(
      (void)ColumnCop::gather(
          CopSource{other.output(0), dist, DecompMode::kSeparate}, cells),
      std::invalid_argument);
  // Joint mode needs D per pattern and a positive bit weight.
  EXPECT_THROW((void)ColumnCop::gather(
                   CopSource{tt.output(1), dist, DecompMode::kJoint,
                             std::span<const double>(d).first(32), 2.0},
                   cells),
               std::invalid_argument);
  EXPECT_THROW(
      (void)ColumnCop::gather(
          CopSource{tt.output(1), dist, DecompMode::kJoint, d, 0.0}, cells),
      std::invalid_argument);
  // Cells reaching past the table.
  CellPatterns wide;
  wide.assign(InputPartition::trivial(7, 3));
  EXPECT_THROW(
      (void)ColumnCop::gather(
          CopSource{tt.output(0), dist, DecompMode::kSeparate}, wide),
      std::invalid_argument);
}

// ------------------------------------------------ greedy's half-steps

/// A COP whose gains are small integers (joint mode, unit probabilities,
/// D in [-3, 3], bw = 2: gains in {-2, 0, 2}), so sums are exact in any
/// order and column and row costs tie often.
ColumnCop integer_cop(std::size_t r, std::size_t c, Rng& rng) {
  std::vector<double> d(r * c);
  for (double& v : d) {
    v = static_cast<double>(static_cast<int>(rng.next_below(7)) - 3);
  }
  return ColumnCop::joint(random_matrix(r, c, rng),
                          std::vector<double>(r * c, 1.0), d, 2.0);
}

/// gain_ij read back bit for bit: the Ising plane holds gain / 4.
double plane_gain(const IsingModel& model, const ColumnCop& cop,
                  std::size_t i, std::size_t j) {
  return 4.0 * model.bipartite_plane()[i * cop.cols() + j];
}

TEST(HalfSteps, ResetsMatchCellCostAndPlaneReferences) {
  // reset_optimal_t: T_j = 1 iff the V2 column cost is strictly below the
  // V1 one (ties keep pattern 1), each summed over ascending i. reset_
  // optimal_v: V1_i = 1 iff the T = 0 gains of row i sum below zero (ties
  // keep 0), V2 over T = 1, each in ascending j. On integer COPs the
  // reference takes gains from cell_cost; on real-valued COPs from the
  // Ising plane, in the same order, so the decisions match bit for bit.
  // r = 72 and 136 end in a part word; r = 128 is two whole words.
  Rng rng(313);
  std::size_t ties = 0;
  for (const std::size_t r : {1u, 2u, 16u, 64u, 72u, 128u, 136u}) {
    for (const std::size_t c : {1u, 3u, 32u, 64u, 100u}) {
      for (int trial = 0; trial < 3; ++trial) {
        for (const bool integer : {true, false}) {
          const ColumnCop cop =
              integer ? integer_cop(r, c, rng)
                      : ColumnCop::separate(
                            random_matrix(r, c, rng),
                            std::vector<double>(r * c, 1.0 / 3.0));
          const IsingModel model = cop.to_ising();
          const auto gain = [&](std::size_t i, std::size_t j) {
            return integer ? cop.cell_cost(i, j, true) -
                                 cop.cell_cost(i, j, false)
                           : plane_gain(model, cop, i, j);
          };
          ColumnSetting s = random_setting(r, c, rng);
          ColumnSetting want_t = s;
          for (std::size_t j = 0; j < c; ++j) {
            double cost1 = 0.0;
            double cost2 = 0.0;
            for (std::size_t i = 0; i < r; ++i) {
              cost1 += s.v1.get(i) ? gain(i, j) : 0.0;
              cost2 += s.v2.get(i) ? gain(i, j) : 0.0;
            }
            ties += cost1 == cost2;
            want_t.t.set(j, cost2 < cost1);
          }
          cop.reset_optimal_t(s);
          EXPECT_EQ(s.t, want_t.t) << "r=" << r << " c=" << c;
          EXPECT_EQ(s.v1, want_t.v1);

          s.t = random_setting(r, c, rng).t;
          ColumnSetting want_v = s;
          for (std::size_t i = 0; i < r; ++i) {
            double sum1 = 0.0;
            double sum2 = 0.0;
            for (std::size_t j = 0; j < c; ++j) {
              sum1 += s.t.get(j) ? 0.0 : gain(i, j);
              sum2 += s.t.get(j) ? gain(i, j) : 0.0;
            }
            ties += sum1 == 0.0;
            want_v.v1.set(i, sum1 < 0.0);
            want_v.v2.set(i, sum2 < 0.0);
          }
          cop.reset_optimal_v(s);
          EXPECT_EQ(s.v1, want_v.v1) << "r=" << r << " c=" << c;
          EXPECT_EQ(s.v2, want_v.v2) << "r=" << r << " c=" << c;
          EXPECT_EQ(s.t, want_v.t);
        }
      }
    }
  }
  EXPECT_GT(ties, 100u);  // the tie rules were exercised
}

// ------------------------------------------- COP-pass tiers and exit

/// The (r, c) shapes of the tier and exit pins: rows and columns that end
/// mid-word, fill one word, and run past one word; (5, 1100) runs past
/// the T reset's 512-column block.
constexpr std::pair<std::size_t, std::size_t> kTierShapes[] = {
    {2, 4}, {3, 65}, {16, 32}, {70, 64}, {128, 512}, {5, 1100}};

/// Cells of an r x c matrix: the first r row patterns of a random
/// partition with enough free variables and the first c column patterns of
/// its bound ones. Returns the partition's input count.
unsigned shape_cells(std::size_t r, std::size_t c, Rng& rng,
                     CellPatterns& cells) {
  const auto free = static_cast<unsigned>(std::bit_width(r - 1));
  const auto bound = static_cast<unsigned>(std::bit_width(c - 1));
  const unsigned n = free + bound;
  cells.assign(InputPartition::random(n, free, rng));
  cells.rows.resize(r);
  cells.cols.resize(c);
  return n;
}

/// Every COP-pass tier this host runs, the portable one first.
std::vector<CopPasses> host_cop_tiers() {
  std::vector<CopPasses> out;
  for (const kernels::ForceKernel isa :
       {kernels::ForceKernel::kScalar, kernels::ForceKernel::kAvx512}) {
    if (cop_pass_tier_supported(isa, cpu_features())) {
      out.push_back(select_cop_passes(isa, cpu_features()));
      EXPECT_EQ(out.back().isa, isa) << kernels::force_kernel_name(isa);
    }
  }
  return out;
}

/// One build pass of `tier` into fresh planes pre-filled with garbage, so
/// a word or cell the pass skips shows up.
struct BuiltPlanes {
  std::vector<std::uint64_t> bits;
  std::vector<double> base;
  std::vector<double> gain;
};

BuiltPlanes run_build(const CopPasses& tier, CopBuildPlanes planes) {
  BuiltPlanes out;
  out.bits.assign((planes.r * planes.c + 63) / 64, ~std::uint64_t{0});
  out.base.assign(planes.r * planes.c, std::nan(""));
  out.gain.assign(planes.r * planes.c, std::nan(""));
  planes.bits = out.bits.data();
  planes.base = out.base.data();
  planes.gain = out.gain.data();
  tier.build(planes);
  return out;
}

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(CopBuild, TiersMatchPortableTierBitwise) {
  // Every tier the host runs writes the portable tier's matrix words,
  // base and gain bit for bit, in both modes, under uniform and weighted
  // distributions (with zero-probability patterns) and D on the joint
  // case boundaries; and ColumnCop::gather, which runs the host's tier,
  // holds the same COP.
  const std::vector<CopPasses> tiers = host_cop_tiers();
  ASSERT_FALSE(tiers.empty());
  Rng rng(2406);
  for (const auto& [r, c] : kTierShapes) {
    CellPatterns cells;
    const unsigned n = shape_cells(r, c, rng, cells);
    const TruthTable tt = random_table(n, 4, rng);
    const std::vector<double> d = boundary_d(n, 4, 2, rng);
    for (const bool uniform : {true, false}) {
      const InputDistribution dist = uniform ? InputDistribution::uniform(n)
                                             : weighted_dist(n, rng);
      for (const bool joint : {false, true}) {
        const std::string what =
            "r=" + std::to_string(r) + " c=" + std::to_string(c) +
            (uniform ? " uniform" : " weighted") +
            (joint ? " joint" : " separate");
        CopBuildPlanes planes;
        planes.output = tt.output(2).words().data();
        planes.rows = cells.rows.data();
        planes.cols = cells.cols.data();
        planes.r = r;
        planes.c = c;
        planes.probs = dist.prob_data();
        planes.uniform_prob = dist.prob(0);
        planes.joint = joint;
        planes.d = d.data();
        planes.bit_weight = 4.0;
        const BuiltPlanes want = run_build(tiers.front(), planes);
        for (const CopPasses& tier : tiers) {
          const BuiltPlanes got = run_build(tier, planes);
          const std::string where =
              what + " tier " + kernels::force_kernel_name(tier.isa);
          EXPECT_EQ(got.bits, want.bits) << where;
          EXPECT_TRUE(same_doubles(got.base, want.base)) << where;
          EXPECT_TRUE(same_doubles(got.gain, want.gain)) << where;
        }
        const ColumnCop cop = ColumnCop::gather(
            CopSource{tt.output(2), dist,
                      joint ? DecompMode::kJoint : DecompMode::kSeparate, d,
                      4.0},
            cells);
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < r; ++i) {
          for (std::size_t j = 0; j < c; ++j) {
            const std::size_t idx = i * c + j;
            mismatches +=
                cop.exact_matrix().at(i, j) !=
                    (((want.bits[idx / 64] >> (idx % 64)) & 1) != 0) ||
                !same_bits(cop.cell_cost(i, j, false), want.base[idx] + 0.0) ||
                !same_bits(cop.cell_cost(i, j, true),
                           want.base[idx] + want.gain[idx]);
          }
        }
        EXPECT_EQ(mismatches, 0u) << what;
      }
    }
  }
}

TEST(CopBuild, TierSelectionFallsBackDownTheChain) {
  // With a feature the AVX-512 tier needs switched off, selection falls
  // back to the portable tier instead of picking a tier the CPU cannot
  // run; explicit requests never climb above what they name, and AVX2
  // (which has no tier) runs the portable one.
  using kernels::ForceKernel;
  CpuFeatures all;
  all.avx2 = true;
  all.fma = true;
  all.avx512f = true;
  all.bmi2 = true;
  const bool avx512 = cop_pass_tier_supported(ForceKernel::kAvx512, all);
  const ForceKernel widest =
      avx512 ? ForceKernel::kAvx512 : ForceKernel::kScalar;
  EXPECT_EQ(select_cop_passes(ForceKernel::kAuto, all).isa, widest);
  EXPECT_EQ(select_cop_passes(ForceKernel::kAvx512, all).isa, widest);
  EXPECT_EQ(select_cop_passes(ForceKernel::kAvx2, all).isa,
            ForceKernel::kScalar);
  EXPECT_EQ(select_cop_passes(ForceKernel::kScalar, all).isa,
            ForceKernel::kScalar);
  EXPECT_TRUE(cop_pass_tier_supported(ForceKernel::kScalar, CpuFeatures{}));
  EXPECT_FALSE(cop_pass_tier_supported(ForceKernel::kAvx2, all));

  CpuFeatures no_bmi2 = all;
  no_bmi2.bmi2 = false;  // the AVX-512 tier is built with -mbmi2
  EXPECT_FALSE(cop_pass_tier_supported(ForceKernel::kAvx512, no_bmi2));
  EXPECT_EQ(select_cop_passes(ForceKernel::kAuto, no_bmi2).isa,
            ForceKernel::kScalar);

  CpuFeatures no_avx512 = all;
  no_avx512.avx512f = false;
  EXPECT_FALSE(cop_pass_tier_supported(ForceKernel::kAvx512, no_avx512));
  EXPECT_EQ(select_cop_passes(ForceKernel::kAuto, no_avx512).isa,
            ForceKernel::kScalar);
  EXPECT_EQ(select_cop_passes(ForceKernel::kAvx512, no_avx512).isa,
            ForceKernel::kScalar);

  EXPECT_EQ(select_cop_passes(ForceKernel::kAuto, CpuFeatures{}).isa,
            ForceKernel::kScalar);
  for (const CopPasses& tier : {select_cop_passes(ForceKernel::kAuto, all),
                                select_cop_passes(ForceKernel::kAuto,
                                                  CpuFeatures{})}) {
    EXPECT_NE(tier.build, nullptr);
    EXPECT_NE(tier.reset_t, nullptr);
    EXPECT_NE(tier.reset_v, nullptr);
    EXPECT_NE(tier.objective, nullptr);
    EXPECT_NE(tier.base_total, nullptr);
  }
}

/// One half-step of `tier` on a copy of s, its output words pre-filled
/// with ones so a word the pass skips shows up. Returns the V reset's
/// changed flag (false for the T reset).
bool run_half_step(const CopPasses& tier, bool v_step,
                   const std::vector<double>& gain, ColumnSetting& s) {
  HalfStepPlanes planes;
  planes.gain = gain.data();
  planes.v1 = s.v1.word_data();
  planes.v2 = s.v2.word_data();
  planes.t = s.t.word_data();
  planes.r = s.v1.size();
  planes.c = s.t.size();
  if (v_step) {
    return tier.reset_v(planes);
  }
  for (std::size_t w = 0; w < s.t.words().size(); ++w) {
    s.t.set_word(w, ~std::uint64_t{0});
  }
  tier.reset_t(planes);
  return false;
}

TEST(HalfSteps, TiersMatchPortableTierBitwise) {
  // The T and V resets through every COP-pass tier against the portable
  // tier, against ColumnCop's own half-steps (the host's tier) and, for
  // T, against the portable Theorem-3 plane reset on the same signs: the
  // same T, V1 and V2 words and the same changed flag, whatever the
  // output words held before.
  const std::vector<CopPasses> tiers = host_cop_tiers();
  ASSERT_FALSE(tiers.empty());
  const auto plane_reset = kernels::select_theorem3_reset(
      kernels::ForceKernel::kScalar, cpu_features());
  Rng rng(2407);
  std::size_t moved = 0;
  std::size_t kept = 0;
  for (const auto& [r, c] : kTierShapes) {
    CellPatterns cells;
    const unsigned n = shape_cells(r, c, rng, cells);
    const TruthTable tt = random_table(n, 4, rng);
    const std::vector<double> d = boundary_d(n, 4, 2, rng);
    for (const bool uniform : {true, false}) {
      const InputDistribution dist = uniform ? InputDistribution::uniform(n)
                                             : weighted_dist(n, rng);
      for (const bool joint : {false, true}) {
        const ColumnCop cop = ColumnCop::gather(
            CopSource{tt.output(2), dist,
                      joint ? DecompMode::kJoint : DecompMode::kSeparate, d,
                      4.0},
            cells);
        const IsingModel model = cop.to_ising();
        std::vector<double> gain(r * c);
        for (std::size_t idx = 0; idx < r * c; ++idx) {
          gain[idx] = plane_gain(model, cop, idx / c, idx % c);
        }
        const std::string what =
            "r=" + std::to_string(r) + " c=" + std::to_string(c) +
            (uniform ? " uniform" : " weighted") +
            (joint ? " joint" : " separate");
        for (int trial = 0; trial < 4; ++trial) {
          // Trial 0 starts from the dominant column pair, as greedy does.
          ColumnSetting s = random_setting(r, c, rng);
          if (trial == 0) {
            std::tie(s.v1, s.v2) = dominant_column_pair(cop.exact_matrix());
          }
          ColumnSetting want = s;
          cop.reset_optimal_t(want);

          // The plane reset on oscillators whose signs spell V1 and V2.
          std::vector<double> x(2 * r + c);
          std::vector<double> y(2 * r + c);
          for (std::size_t i = 0; i < r; ++i) {
            x[i] = s.v1.get(i) ? 1.0 : -1.0;
            x[r + i] = s.v2.get(i) ? 1.0 : -1.0;
          }
          kernels::Theorem3Planes planes;
          planes.gain = gain.data();
          planes.x = x.data();
          planes.y = y.data();
          planes.rows = r;
          planes.cols = c;
          plane_reset(planes);
          std::size_t plane_mismatches = 0;
          for (std::size_t j = 0; j < c; ++j) {
            plane_mismatches += want.t.get(j) != (x[2 * r + j] > 0.0);
          }
          EXPECT_EQ(plane_mismatches, 0u) << what << " T vs plane reset";

          for (const CopPasses& tier : tiers) {
            ColumnSetting got = s;
            run_half_step(tier, false, gain, got);
            EXPECT_EQ(got.t.words(), want.t.words())
                << what << " T tier " << kernels::force_kernel_name(tier.isa);
          }

          // V from a fresh random T, over V words that start random or,
          // on odd trials, already reset for that T.
          want.t = random_setting(r, c, rng).t;
          if (trial % 2 == 1) {
            cop.reset_optimal_v(want);
          }
          const ColumnSetting before = want;
          const bool want_moved = cop.reset_optimal_v(want);
          moved += want_moved ? 1 : 0;
          kept += want_moved ? 0 : 1;
          for (const CopPasses& tier : tiers) {
            ColumnSetting got = before;
            const std::string where =
                what + " V tier " + kernels::force_kernel_name(tier.isa);
            EXPECT_EQ(run_half_step(tier, true, gain, got), want_moved)
                << where;
            EXPECT_EQ(got.v1, want.v1) << where;
            EXPECT_EQ(got.v2, want.v2) << where;
            // A second reset from the same T rewrites nothing.
            EXPECT_FALSE(run_half_step(tier, true, gain, got)) << where;
          }
        }
      }
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_GT(kept, 0u);
}

/// The fixpoint loop without the V-unchanged exit: every sweep until one
/// fails to lower the best objective by more than 1e-15.
FixpointRun full_fixpoint_loop(const ColumnCop& cop, ColumnSetting& s,
                               std::size_t max_sweeps) {
  FixpointRun run;
  double best = cop.objective(s);
  double now = best;
  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    cop.reset_optimal_t(s);
    cop.reset_optimal_v(s);
    ++run.sweeps;
    now = cop.objective(s);
    if (now >= best - 1e-15) {
      best = std::min(best, now);
      break;
    }
    best = now;
  }
  run.best = best;
  run.last = now;
  return run;
}

TEST(HalfSteps, FixpointExitKeepsTheFullLoopsResult) {
  // The loop that stops once a sweep leaves V1 and V2 unchanged ends on
  // the full loop's setting, best and last objective, bit for bit, one
  // sweep earlier where it exits; and the sweep it skips rebuilds the
  // setting it ended on.
  Rng rng(2408);
  std::size_t exits = 0;
  for (const auto& [r, c] : kTierShapes) {
    CellPatterns cells;
    const unsigned n = shape_cells(r, c, rng, cells);
    const TruthTable tt = random_table(n, 4, rng);
    const std::vector<double> d = boundary_d(n, 4, 2, rng);
    for (const bool uniform : {true, false}) {
      const InputDistribution dist = uniform ? InputDistribution::uniform(n)
                                             : weighted_dist(n, rng);
      for (const bool joint : {false, true}) {
        const ColumnCop cop = ColumnCop::gather(
            CopSource{tt.output(2), dist,
                      joint ? DecompMode::kJoint : DecompMode::kSeparate, d,
                      4.0},
            cells);
        for (int trial = 0; trial < 4; ++trial) {
          ColumnSetting start = random_setting(r, c, rng);
          if (trial == 0) {
            std::tie(start.v1, start.v2) =
                dominant_column_pair(cop.exact_matrix());
          }
          for (const std::size_t max_sweeps : {1u, 2u, 4u, 64u}) {
            const std::string what =
                "r=" + std::to_string(r) + " c=" + std::to_string(c) +
                (uniform ? " uniform" : " weighted") +
                (joint ? " joint" : " separate") +
                " trial=" + std::to_string(trial) +
                " max=" + std::to_string(max_sweeps);
            ColumnSetting got = start;
            ColumnSetting want = start;
            const FixpointRun got_run =
                alternate_to_fixpoint(cop, got, max_sweeps);
            const FixpointRun want_run =
                full_fixpoint_loop(cop, want, max_sweeps);
            EXPECT_EQ(got.v1.words(), want.v1.words()) << what;
            EXPECT_EQ(got.v2.words(), want.v2.words()) << what;
            EXPECT_EQ(got.t.words(), want.t.words()) << what;
            EXPECT_TRUE(same_bits(got_run.best, want_run.best)) << what;
            EXPECT_TRUE(same_bits(got_run.last, want_run.last)) << what;
            EXPECT_TRUE(same_bits(got_run.last, cop.objective(got))) << what;
            ASSERT_LE(got_run.sweeps, want_run.sweeps) << what;
            if (got_run.sweeps < want_run.sweeps) {
              ++exits;
              EXPECT_EQ(got_run.sweeps + 1, want_run.sweeps) << what;
              ColumnSetting again = got;
              cop.reset_optimal_t(again);
              EXPECT_FALSE(cop.reset_optimal_v(again)) << what;
              EXPECT_EQ(again.t, got.t) << what;
              EXPECT_EQ(again.v1, got.v1) << what;
              EXPECT_EQ(again.v2, got.v2) << what;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(exits, 10u);  // the exit fired
}

// ------------------------------------------ exact sums (the certificate)

/// D per input pattern for output k as run_flow builds it, and the bound
/// it passes along: the approximate word without bit k minus the exact
/// word, as integers.
struct FlowD {
  std::vector<double> d;
  double bound = 0.0;
};

FlowD flow_d(const TruthTable& exact, const TruthTable& approx,
                 unsigned k) {
  FlowD out;
  out.d.resize(exact.num_patterns());
  const std::int64_t weight = std::int64_t{1} << k;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  for (std::uint64_t x = 0; x < exact.num_patterns(); ++x) {
    const auto word = static_cast<std::int64_t>(approx.word(x));
    const std::int64_t d = word - (((word >> k) & 1) != 0 ? weight : 0) -
                           static_cast<std::int64_t>(exact.word(x));
    out.d[x] = static_cast<double>(d);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  out.bound = std::max(-static_cast<double>(lo), static_cast<double>(hi));
  return out;
}

/// Asserts that objective() equals the row-major cell-cost chain bit for
/// bit on random settings (the first with every Ohat clear, the second
/// with every Ohat set) and, on a certified COP, that so do the certified
/// passes of every COP-pass tier the host runs: the base total against
/// the row-major chain of the bases, and the objective fed the gains read
/// back from the Ising plane and that base total.
void expect_objective_is_the_chain(const ColumnCop& cop, Rng& rng,
                                   const std::string& what) {
  const std::size_t r = cop.rows();
  const std::size_t c = cop.cols();
  const IsingModel model = cop.to_ising();
  std::vector<double> gain(r * c);
  std::vector<double> base(r * c);
  double base_total = 0.0;
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      gain[i * c + j] = plane_gain(model, cop, i, j);
      base[i * c + j] = cop.cell_cost(i, j, false);
      base_total += base[i * c + j];
    }
  }
  const std::vector<CopPasses> tiers = host_cop_tiers();
  std::size_t mismatches = 0;
  std::size_t tier_runs = 0;
  if (cop.exact_sums()) {
    for (const CopPasses& tier : tiers) {
      mismatches +=
          !same_bits(tier.base_total(base.data(), base.size()), base_total);
    }
  }
  for (int trial = 0; trial < 12; ++trial) {
    ColumnSetting s = random_setting(r, c, rng);
    if (trial < 2) {
      s.v1 = BitVec(r, trial == 1);
      s.v2 = BitVec(r, trial == 1);
    }
    double want = 0.0;
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        want += cop.cell_cost(i, j, s.value(i, j));
      }
    }
    mismatches += !same_bits(cop.objective(s), want);
    if (!cop.exact_sums()) {
      continue;
    }
    ObjectivePlanes planes;
    planes.gain = gain.data();
    planes.v1 = s.v1.words().data();
    planes.v2 = s.v2.words().data();
    planes.t = s.t.words().data();
    planes.r = r;
    planes.c = c;
    planes.base_total = base_total;
    for (const CopPasses& tier : tiers) {
      mismatches += !same_bits(tier.objective(planes), want);
      ++tier_runs;
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
  EXPECT_EQ(tier_runs, cop.exact_sums() ? 12 * tiers.size() : std::size_t{0})
      << what;
}

/// The cells of one candidate: a disjoint partition, or every slice of a
/// non-disjoint one with `shared` shared bits.
std::vector<CellPatterns> candidate_cells(unsigned n, unsigned free,
                                          unsigned shared, Rng& rng) {
  std::vector<CellPatterns> out;
  if (shared == 0) {
    out.emplace_back().assign(InputPartition::random(n, free, rng));
    return out;
  }
  const NonDisjointPartition w =
      NonDisjointPartition::random(n, free, shared, rng);
  for (std::uint64_t sl = 0; sl < w.num_slices(); ++sl) {
    slice_cells(w, sl, out.emplace_back());
  }
  return out;
}

struct CandidateShape {
  unsigned n;
  unsigned free;
  unsigned shared;
};

TEST(ExactSums, FlowSourcesAreCertifiedAndMatchTheChain) {
  // COPs gathered from sources shaped as run_flow builds them (uniform
  // distribution; in joint mode integer D and their bound) are certified
  // in both modes, for disjoint partitions and for the slices of one and
  // two shared bits, and their objective is the row-major cell-cost chain
  // bit for bit, through every COP-pass tier the host runs.
  Rng rng(2810);
  std::size_t certified = 0;
  for (const CandidateShape sh :
       {CandidateShape{5, 2, 0}, CandidateShape{9, 4, 0},
        CandidateShape{9, 5, 0}, CandidateShape{12, 6, 0},
        CandidateShape{16, 7, 0}, CandidateShape{9, 3, 1},
        CandidateShape{9, 3, 2}, CandidateShape{11, 4, 1}}) {
    const unsigned m = 6;
    const TruthTable exact = random_table(sh.n, m, rng);
    const TruthTable approx = random_table(sh.n, m, rng);
    const InputDistribution dist = InputDistribution::uniform(sh.n);
    const std::vector<CellPatterns> cells =
        candidate_cells(sh.n, sh.free, sh.shared, rng);
    for (const unsigned k : {0u, m - 1}) {
      const FlowD dd = flow_d(exact, approx, k);
      const double bw = static_cast<double>(std::uint64_t{1} << k);
      for (const DecompMode mode :
           {DecompMode::kJoint, DecompMode::kSeparate}) {
        const CopSource src{exact.output(k), dist, mode, dd.d, bw, dd.bound};
        for (std::size_t sl = 0; sl < cells.size(); ++sl) {
          const ColumnCop cop = ColumnCop::gather(src, cells[sl]);
          const std::string what =
              "n=" + std::to_string(sh.n) + " free=" +
              std::to_string(sh.free) + " shared=" +
              std::to_string(sh.shared) + " slice=" + std::to_string(sl) +
              " k=" + std::to_string(k) +
              (mode == DecompMode::kJoint ? " joint" : " separate");
          EXPECT_TRUE(cop.exact_sums()) << what;
          certified += cop.exact_sums();
          expect_objective_is_the_chain(cop, rng, what);
        }
      }
    }
  }
  EXPECT_EQ(certified, 4u * (5 + 2 + 4 + 2));
}

TEST(ExactSums, UncertifiedCopsKeepTheChain) {
  // A weighted distribution (even beside run_flow's D bound), a
  // non-integer D (a source without a bound) and integer D past the bound
  // leave a COP uncertified, and its objective is still the row-major
  // chain bit for bit. Sums on these COPs round, so a masked sum in
  // another order would show.
  Rng rng(2811);
  for (const CandidateShape sh :
       {CandidateShape{9, 4, 0}, CandidateShape{12, 6, 0},
        CandidateShape{16, 7, 0}, CandidateShape{9, 3, 1}}) {
    const unsigned m = 6;
    const unsigned k = 3;
    const double bw = 8.0;
    const TruthTable exact = random_table(sh.n, m, rng);
    const FlowD dd = flow_d(exact, random_table(sh.n, m, rng), k);
    const InputDistribution uniform = InputDistribution::uniform(sh.n);
    const InputDistribution weighted = weighted_dist(sh.n, rng);
    std::vector<double> fractional = dd.d;
    for (double& v : fractional) {
      v += rng.next_double(-0.5, 0.5);
    }
    // Integers up to 2^45: r c (3 max|D| + bw) passes 2^52 from r c = 2^8.
    std::vector<double> wide(dd.d.size());
    double wide_bound = 0.0;
    for (double& v : wide) {
      v = static_cast<double>(
          static_cast<std::int64_t>(rng.next_below(std::uint64_t{1} << 46)) -
          (std::int64_t{1} << 45));
      wide_bound = std::max(wide_bound, std::fabs(v));
    }
    const struct {
      const char* name;
      CopSource src;
    } sources[] = {
        {"weighted joint", {exact.output(k), weighted, DecompMode::kJoint,
                            dd.d, bw, dd.bound}},
        {"weighted separate",
         {exact.output(k), weighted, DecompMode::kSeparate}},
        {"fractional D", {exact.output(k), uniform, DecompMode::kJoint,
                          fractional, bw}},
        {"D past the bound", {exact.output(k), uniform, DecompMode::kJoint,
                              wide, bw, wide_bound}},
    };
    for (const CellPatterns& cells :
         candidate_cells(sh.n, sh.free, sh.shared, rng)) {
      for (const auto& [name, src] : sources) {
        const std::string what = "n=" + std::to_string(sh.n) +
                                 " shared=" + std::to_string(sh.shared) +
                                 " " + name;
        const ColumnCop cop = ColumnCop::gather(src, cells);
        EXPECT_FALSE(cop.exact_sums()) << what;
        expect_objective_is_the_chain(cop, rng, what);
      }
    }
  }
}

TEST(ExactSums, RegatherDropsTheCertificate) {
  // One slot regathered from a certified source, then from uncertified
  // ones (weighted; joint without a D bound), then from the certified one
  // again: the flag follows the source every time, and every objective is
  // the chain.
  Rng rng(2812);
  const unsigned n = 9;
  const TruthTable exact = random_table(n, 5, rng);
  const FlowD dd = flow_d(exact, random_table(n, 5, rng), 2);
  const InputDistribution uniform = InputDistribution::uniform(n);
  const InputDistribution weighted = weighted_dist(n, rng);
  const CopSource certified{exact.output(2), uniform, DecompMode::kJoint,
                            dd.d, 4.0, dd.bound};
  const CopSource no_bound{exact.output(2), uniform, DecompMode::kJoint,
                           dd.d, 4.0};
  const CopSource heavy{exact.output(2), weighted, DecompMode::kJoint, dd.d,
                        4.0, dd.bound};
  CellPatterns cells;
  cells.assign(InputPartition::random(n, 4, rng));
  std::optional<ColumnCop> slot;
  for (const auto& [src, want] :
       {std::pair{&certified, true}, std::pair{&heavy, false},
        std::pair{&certified, true}, std::pair{&no_bound, false},
        std::pair{&no_bound, false}, std::pair{&certified, true}}) {
    const ColumnCop& cop = ColumnCop::gather_into(*src, cells, slot);
    EXPECT_EQ(cop.exact_sums(), want);
    expect_objective_is_the_chain(cop, rng, want ? "certified" : "not");
  }
}

TEST(ExactSums, GridScanAgreesWhereverGatherCertifies) {
  // Wherever the O(1) derivation certifies a gathered COP, the reference
  // build of the same cells (separate()/joint(), which scan their
  // coefficients with GridScan) certifies it too: over sources shaped
  // as run_flow builds them, and at the joint bound's edge, where
  // r c (3 max|D| + bw) is exactly 2^52 at 16 x 32 (certified, and its
  // objective still the chain) and one step past it (not).
  Rng rng(2813);
  std::size_t agreed = 0;
  for (const CandidateShape sh :
       {CandidateShape{5, 2, 0}, CandidateShape{9, 4, 0},
        CandidateShape{12, 6, 0}, CandidateShape{16, 7, 0}}) {
    const unsigned m = 7;
    const TruthTable exact = random_table(sh.n, m, rng);
    const InputPartition w = InputPartition::random(sh.n, sh.free, rng);
    const PartitionIndexer idx(w);
    CellPatterns cells;
    cells.assign(w);
    const InputDistribution dist = InputDistribution::uniform(sh.n);
    std::vector<double> probs;
    matrix_probs_into(dist, w, idx, probs);
    BooleanMatrix matrix(1, 1);
    const std::size_t c = w.num_cols();
    std::vector<double> d_cells(w.num_rows() * c);
    for (const unsigned k : {1u, m - 1}) {
      BooleanMatrix::from_function_into(exact, k, w, idx, matrix);
      const double bw = static_cast<double>(std::uint64_t{1} << k);
      FlowD dd = flow_d(exact, random_table(sh.n, m, rng), k);
      std::vector<FlowD> tables = {dd};
      if (sh.n == 9 && k == 1) {
        // r c = 2^9 and bw = 2: 2^9 (3 max|D| + 2) = 2^52 at max|D| =
        // (2^43 - 2) / 3, and passes it at max|D| + 1.
        const double edge = (0x1p43 - 2.0) / 3.0;
        for (const double top : {edge, edge + 1.0}) {
          FlowD wide;
          wide.d = dd.d;
          for (double& v : wide.d) {
            v = std::floor(rng.next_double(-top, top));
          }
          wide.d[rng.next_below(wide.d.size())] = -top;
          wide.bound = top;
          tables.push_back(std::move(wide));
        }
      }
      for (std::size_t t = 0; t < tables.size(); ++t) {
        for (std::uint64_t x = 0; x < exact.num_patterns(); ++x) {
          d_cells[idx.row_of(x) * c + idx.col_of(x)] = tables[t].d[x];
        }
        const std::string what = "n=" + std::to_string(sh.n) +
                                 " k=" + std::to_string(k) +
                                 " table=" + std::to_string(t);
        const ColumnCop joint = ColumnCop::gather(
            CopSource{exact.output(k), dist, DecompMode::kJoint,
                      tables[t].d, bw, tables[t].bound},
            cells);
        const ColumnCop separate = ColumnCop::gather(
            CopSource{exact.output(k), dist, DecompMode::kSeparate}, cells);
        EXPECT_EQ(joint.exact_sums(), t < 2) << what;
        EXPECT_TRUE(separate.exact_sums()) << what;
        if (joint.exact_sums()) {
          EXPECT_TRUE(
              ColumnCop::joint(matrix, probs, d_cells, bw).exact_sums())
              << what;
          ++agreed;
        }
        EXPECT_TRUE(ColumnCop::separate(matrix, probs).exact_sums()) << what;
        expect_objective_is_the_chain(joint, rng, what);
      }
    }
  }
  EXPECT_EQ(agreed, 4u * 2 + 1);
}

}  // namespace
}  // namespace adsd
