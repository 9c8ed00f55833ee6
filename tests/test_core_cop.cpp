#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "boolean/boolean_matrix.hpp"
#include "boolean/error_metrics.hpp"
#include "boolean/partition.hpp"
#include "boolean/truth_table.hpp"
#include "core/column_cop.hpp"
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
  // The row-outer plane sweep against reset_optimal_t, replica by replica:
  // T positions, zeroed T momenta, untouched V planes and the degenerate
  // flags. Replica 0 is pinned to one of two edge cases. "tie": V1 sets
  // only rows a and b, whose column-0 gains cancel exactly, and V2 is
  // empty, so column 0 ties at 0.0 and must pick pattern 1. "equal": V2
  // spells the same signs as V1 (degenerate). Positions include +0.0 and
  // -0.0, which read as set.
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
    for (std::size_t R : {1u, 3u, 8u}) {
      for (bool tie : {true, false}) {
        std::vector<double> x(n * R);
        std::vector<double> y(n * R);
        for (std::size_t k = 0; k < x.size(); ++k) {
          x[k] = k % 13 == 5 ? 0.0
                 : k % 13 == 6 ? -0.0
                               : rng.next_double(-1.0, 1.0);
          y[k] = rng.next_double(-1.0, 1.0);
        }
        for (std::size_t i = 0; i < r; ++i) {
          double& x1 = x[cop.v1_spin(i) * R];
          double& x2 = x[cop.v2_spin(i) * R];
          if (tie) {
            x1 = i == a || i == b ? 0.5 : -0.5;
            x2 = -0.5;
          } else {
            x2 = x1 >= 0.0 ? 0.25 : -0.25;
          }
        }

        std::vector<double> want_x = x;
        std::vector<double> want_y = y;
        std::vector<std::uint8_t> want_degenerate(R);
        for (std::size_t rep = 0; rep < R; ++rep) {
          ColumnSetting s;
          s.v1 = BitVec(r);
          s.v2 = BitVec(r);
          s.t = BitVec(c);
          for (std::size_t i = 0; i < r; ++i) {
            s.v1.set(i, x[cop.v1_spin(i) * R + rep] >= 0.0);
            s.v2.set(i, x[cop.v2_spin(i) * R + rep] >= 0.0);
          }
          cop.reset_optimal_t(s);
          for (std::size_t j = 0; j < c; ++j) {
            want_x[cop.t_spin(j) * R + rep] = s.t.get(j) ? 1.0 : -1.0;
            want_y[cop.t_spin(j) * R + rep] = 0.0;
          }
          const std::size_t on2 = s.t.count();
          want_degenerate[rep] = on2 == 0 || on2 == c || s.v1 == s.v2;
        }
        if (tie && !joint) {
          EXPECT_EQ(want_x[cop.t_spin(0) * R], -1.0);  // pattern 1
        }
        if (!tie) {
          EXPECT_EQ(want_degenerate[0], 1);
        }

        std::vector<std::uint8_t> degenerate;
        cop.reset_optimal_t_planes(x, y, R, &degenerate);
        const std::string where = std::string(joint ? "joint" : "separate") +
                                  " R=" + std::to_string(R) +
                                  (tie ? " tie" : " equal");
        EXPECT_EQ(std::memcmp(x.data(), want_x.data(),
                              x.size() * sizeof(double)),
                  0)
            << where;
        EXPECT_EQ(std::memcmp(y.data(), want_y.data(),
                              y.size() * sizeof(double)),
                  0)
            << where;
        EXPECT_EQ(degenerate, want_degenerate) << where;
      }
    }
  }
}

TEST(Theorem3, ResetTiersMatchPortableLoop) {
  // Every reset tier the host can execute against the portable loop and
  // against a per-(column, replica) branchy reference, on gain planes with
  // +-0.0 entries and exact-cancel ties (cost1 == cost2 picks pattern 1).
  // The column counts cover chunk tails of every tier (8 / 16 / 32).
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
    for (const std::size_t R : {1u, 2u, 3u, 8u}) {
      const std::size_t n = 2 * r + c;
      std::vector<double> x0(n * R);
      std::vector<double> y0(n * R);
      for (std::size_t k = 0; k < x0.size(); ++k) {
        x0[k] = k % 11 == 4 ? -0.0 : rng.next_double(-1.0, 1.0);
        y0[k] = rng.next_double(-1.0, 1.0);
      }
      // Reference: replica by replica, column by column, rows ascending.
      std::vector<double> want_x = x0;
      std::vector<double> want_y = y0;
      std::vector<std::uint8_t> want_one(R);
      for (std::size_t q = 0; q < R; ++q) {
        std::size_t on2 = 0;
        for (std::size_t j = 0; j < c; ++j) {
          double cost1 = 0.0;
          double cost2 = 0.0;
          for (std::size_t i = 0; i < r; ++i) {
            if (x0[i * R + q] >= 0.0) {
              cost1 += gain[i * c + j];
            }
            if (x0[(r + i) * R + q] >= 0.0) {
              cost2 += gain[i * c + j];
            }
          }
          const bool two = cost2 < cost1;
          want_x[(2 * r + j) * R + q] = two ? 1.0 : -1.0;
          want_y[(2 * r + j) * R + q] = 0.0;
          on2 += two ? 1 : 0;
        }
        want_one[q] = on2 == 0 || on2 == c ? 1 : 0;
      }
      for (const kernels::ForceKernel k : kernels::selectable_force_kernels()) {
        for (const auto fn :
             {portable, kernels::select_theorem3_reset(k, cpu_features())}) {
          std::vector<double> x = x0;
          std::vector<double> y = y0;
          std::vector<std::uint8_t> one(R, 7);
          kernels::Theorem3Planes planes;
          planes.gain = gain.data();
          planes.x = x.data();
          planes.y = y.data();
          planes.one_pattern = one.data();
          planes.rows = r;
          planes.cols = c;
          planes.replicas = R;
          fn(planes);
          const std::string where = std::string(kernels::force_kernel_name(k)) +
                                    " c=" + std::to_string(c) +
                                    " R=" + std::to_string(R);
          EXPECT_EQ(std::memcmp(x.data(), want_x.data(),
                                x.size() * sizeof(double)),
                    0)
              << where;
          EXPECT_EQ(std::memcmp(y.data(), want_y.data(),
                                y.size() * sizeof(double)),
                    0)
              << where;
          EXPECT_EQ(one, want_one) << where;
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

      // One R = 1 solve per ensemble engine: the plane model runs the
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
      EXPECT_EQ(BsbBatchEngine(fast, sb, 1).kernel_kind(),
                kernels::ForceKernel::kBipartite);
      EXPECT_NE(BsbBatchEngine(general, sb, 1).kernel_kind(),
                kernels::ForceKernel::kBipartite);
      same(solve_sb_batch(fast, sb, 1), solve_sb_batch(general, sb, 1), "bsb");
      DochParams doch;
      doch.max_iterations = 400;
      doch.seed = 5;
      doch.stop = stop;
      same(solve_doch(fast, doch, 1), solve_doch(general, doch, 1), "doch");
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
  // both modes. Row 0 has probability zero, so its base and gain entries
  // are +-0.0; the widths put T in one partial word (5), one whole word
  // (64) and several words (100, 512).
  Rng rng(15);
  for (std::size_t c : {5u, 64u, 100u, 512u}) {
    const std::size_t r = 3;
    std::vector<double> probs(r * c);
    for (std::size_t k = c; k < r * c; ++k) {
      probs[k] = rng.next_double(0.0, 1.0 / static_cast<double>(r * c));
    }
    std::vector<double> d(r * c);
    for (double& v : d) {
      v = std::floor(rng.next_double(-6.0, 6.0));
    }
    const auto m = random_matrix(r, c, rng);
    const ColumnCop cops[] = {ColumnCop::separate(m, probs),
                              ColumnCop::joint(m, probs, d, 2.0)};
    for (const ColumnCop& cop : cops) {
      for (int trial = 0; trial < 8; ++trial) {
        const auto s = random_setting(r, c, rng);
        double want = 0.0;
        for (std::size_t i = 0; i < r; ++i) {
          for (std::size_t j = 0; j < c; ++j) {
            want += cop.cell_cost(i, j, s.value(i, j));
          }
        }
        const double got = cop.objective(s);
        EXPECT_EQ(got, want) << "c=" << c << " trial " << trial;
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
            << "c=" << c << " trial " << trial;
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

}  // namespace
}  // namespace adsd
