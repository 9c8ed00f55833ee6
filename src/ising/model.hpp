#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/aligned.hpp"

namespace adsd {

/// Second-order Ising model
///
///   E(sigma) = -sum_i h_i sigma_i - 1/2 sum_{i,j} J_{i,j} sigma_i sigma_j
///              + constant,
///
/// with sigma_i in {-1, +1}, J symmetric, J_{i,i} = 0 (Eq. (1) of the
/// paper). The constant term is carried along so that a COP mapped onto the
/// model has energies *equal* to its objective values, which the tests rely
/// on.
///
/// Couplings are accumulated as triplets and compacted into CSR by
/// `finalize()`; solvers require a finalized model. Problem instances in
/// this library are sparse (the core COP is bipartite between T-spins and
/// V-spins), so CSR keeps the bSB inner loop linear in the edge count.
class IsingModel {
 public:
  explicit IsingModel(std::size_t num_spins);

  std::size_t num_spins() const { return n_; }

  /// Biases are stored canonically: a -0.0 result is stored as +0.0, so
  /// every force kernel's h-seeded accumulator starts off -0.0.
  void set_bias(std::size_t i, double h);
  void add_bias(std::size_t i, double dh);
  double bias(std::size_t i) const { return h_[i]; }

  /// Accumulates J_{i,j} += j_value (and symmetrically J_{j,i}).
  /// Precondition: i != j.
  void add_coupling(std::size_t i, std::size_t j, double j_value);

  double constant() const { return constant_; }
  void set_constant(double c) { constant_ = c; }
  void add_constant(double dc) { constant_ += dc; }

  /// Merges duplicate couplings and builds the CSR adjacency. Idempotent;
  /// adding couplings afterwards requires another finalize().
  void finalize();
  bool finalized() const { return finalized_; }

  /// Number of distinct unordered coupled pairs (after finalize()).
  std::size_t num_couplings() const;

  /// Energy of a spin assignment (requires finalize()).
  double energy(std::span<const std::int8_t> spins) const;

  /// out[i] = h_i + sum_j J_{i,j} x[j]; the mean-field force used by the SB
  /// solvers, evaluated on continuous positions (requires finalize()).
  void local_fields(std::span<const double> x, std::span<double> out) const;

  /// Same force evaluated on the *signs* of x (discrete SB variant).
  void local_fields_signed(std::span<const double> x,
                           std::span<double> out) const;

  /// Energy change of flipping spin i within `spins` (requires finalize()).
  double flip_delta(std::span<const std::int8_t> spins, std::size_t i) const;

  /// Root-mean-square coupling magnitude over distinct pairs; used for the
  /// standard bSB coupling-strength normalization c0. Zero if no couplings.
  double coupling_rms() const;

  /// Neighbors of spin i as (index, J) pairs (requires finalize()).
  std::span<const std::pair<std::uint32_t, double>> neighbors(
      std::size_t i) const;

  /// Fraction of the n * (n - 1) possible couplings that are present
  /// (requires finalize()). Zero for a single spin.
  double edge_density() const;

  /// Dense fast path: when the edge density clears the measured crossover
  /// threshold (near-complete graphs only -- the lane-batched CSR kernels
  /// amortize the index gather over replicas, see DESIGN.md §4.6) and the
  /// model is small enough for an O(n^2) plane, finalize() additionally
  /// materializes a 64-byte-aligned padded row-major J plane -- row i lives
  /// at dense_plane()[i * dense_stride()], columns beyond n are zero
  /// padding -- so the bSB force kernels can run a blocked dense matrix x
  /// replica-plane product with no index lookups at all.
  bool has_dense_plane() const { return dense_stride_ != 0; }
  std::span<const double> dense_plane() const { return dense_; }
  std::size_t dense_stride() const { return dense_stride_; }

 private:
  std::size_t n_;
  std::vector<double> h_;
  double constant_ = 0.0;

  struct Triplet {
    std::uint32_t i;
    std::uint32_t j;
    double value;
  };
  std::vector<Triplet> triplets_;

  bool finalized_ = false;
  std::vector<std::size_t> row_start_;                     // n_+1 entries
  std::vector<std::pair<std::uint32_t, double>> entries_;  // both directions

  // Dense fast-path plane (empty unless the density threshold was met).
  AlignedVector<double> dense_;  // n_ * dense_stride_, row-major, padded
  std::size_t dense_stride_ = 0;
};

/// Result common to all Ising solvers.
struct IsingSolveResult {
  std::vector<std::int8_t> spins;  // each -1 or +1
  double energy = 0.0;             // includes the model constant
  std::size_t iterations = 0;      // Euler steps / sweeps actually executed
  bool stopped_early = false;      // dynamic stop criterion fired
};

}  // namespace adsd
