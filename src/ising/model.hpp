#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace adsd {

/// Spin layout of a column-COP model (ColumnCop::to_ising): V1 spins at
/// [0, rows), V2 at [rows, 2 rows), T at [2 rows, 2 rows + cols).
struct BipartiteShape {
  std::size_t rows = 0;
  std::size_t cols = 0;
};

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
/// A general model accumulates couplings as triplets and compacts them
/// into CSR in `finalize()`; solvers require a finalized model. A
/// column-COP model (bipartite()) holds its one r x c coupling plane
/// instead, and derives the same CSR from it only when a consumer walks
/// CSR (DESIGN.md §4.2).
class IsingModel {
 public:
  explicit IsingModel(std::size_t num_spins);

  /// The column-COP model of ColumnCop::to_ising(): spins laid out as in
  /// BipartiteShape, J(V1_i, T_j) = plane[i * cols + j] = -J(V2_i, T_j),
  /// and no other couplings; a 0.0 entry is no coupling. Requires rows,
  /// cols >= 1 and plane.size() == rows * cols. The model is finalized on
  /// construction (biases and the constant may still be set);
  /// add_coupling() throws std::logic_error on it.
  static IsingModel bipartite(BipartiteShape shape, std::vector<double> plane);

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

  /// The column-COP shape of a bipartite() model (which lets the engines
  /// run the bipartite force layout, DESIGN.md §4.6); empty otherwise.
  const std::optional<BipartiteShape>& bipartite_shape() const {
    return shape_;
  }

  /// The r x c V1-T coupling plane of a bipartite() model, row-major;
  /// empty otherwise.
  std::span<const double> bipartite_plane() const { return plane_; }

  /// Merges duplicate couplings and builds the CSR adjacency. Idempotent;
  /// adding couplings afterwards requires another finalize(). A no-op on a
  /// bipartite() model.
  void finalize();
  bool finalized() const { return finalized_; }

  /// Number of distinct unordered coupled pairs (after finalize()).
  std::size_t num_couplings() const;

  /// Energy of a spin assignment (requires finalize()).
  double energy(std::span<const std::int8_t> spins) const;

  /// True when no energy sum of this model can round: every bias, coupling
  /// and the constant is a finite integer multiple of one power of two
  /// 2^L, the constant is not -0.0, and S = |constant| + sum |h_i| + sum
  /// over coupled pairs |J_ij| is at most 2^(52+L) and at most 2^1022 (a
  /// plane entry is two pairs: V1 with w, V2 with -w). Then every partial
  /// sum of energy(), every local field h_i + sum_j J_ij s_j, every
  /// 2 s_i field and every energy reached by adding such flip deltas lies
  /// on the 2^L grid within 2^(53+L), so a sum in any order gives the same
  /// double, and energy() never returns -0.0. A uniform-distribution COP
  /// passes; a weighted one generally does not. One pass over the
  /// coefficients' bit fields (requires finalize()).
  bool exact_arithmetic() const;

  /// out[i] = h_i + sum_j J_{i,j} x[j]; the mean-field force used by the SB
  /// solvers, evaluated on continuous positions (requires finalize()).
  void local_fields(std::span<const double> x, std::span<double> out) const;

  /// Same force evaluated on the *signs* of x (discrete SB variant).
  void local_fields_signed(std::span<const double> x,
                           std::span<double> out) const;

  /// Energy change of flipping spin i within `spins` (requires finalize()).
  double flip_delta(std::span<const std::int8_t> spins, std::size_t i) const;

  /// Root-mean-square coupling magnitude over distinct pairs; used for the
  /// standard bSB coupling-strength normalization c0. Zero if no couplings
  /// (requires finalize()).
  double coupling_rms() const;

  /// Neighbors of spin i as (index, J) pairs, ascending by index
  /// (requires finalize()). On a
  /// bipartite() model the first call derives the CSR adjacency from the
  /// plane; concurrent calls on one shared model are safe.
  std::span<const std::pair<std::uint32_t, double>> neighbors(
      std::size_t i) const;

 private:
  struct Csr {
    std::vector<std::size_t> row_start;                     // n + 1 entries
    std::vector<std::pair<std::uint32_t, double>> entries;  // both directions
  };

  /// Owner of the CSR adjacency, published once through an atomic pointer
  /// so a bipartite() model can derive it lazily from const accessors that
  /// several threads may call. Copies carry a built adjacency along.
  class CsrCell {
   public:
    CsrCell() = default;
    CsrCell(const CsrCell& other);
    CsrCell& operator=(const CsrCell& other);
    CsrCell(CsrCell&& other) noexcept;
    CsrCell& operator=(CsrCell&& other) noexcept;
    ~CsrCell();

    const Csr* get() const { return ptr_.load(std::memory_order_acquire); }
    /// Replaces the adjacency (deleting the old one); never concurrent
    /// with readers, and a null `csr` clears it.
    void reset(Csr* csr);

   private:
    std::atomic<Csr*> ptr_{nullptr};
  };

  /// The CSR adjacency; derives it from the plane on first use.
  const Csr& csr() const;
  Csr plane_csr() const;

  std::size_t n_;
  std::vector<double> h_;
  double constant_ = 0.0;

  struct Triplet {
    std::uint32_t i;
    std::uint32_t j;
    double value;
  };
  std::vector<Triplet> triplets_;

  std::optional<BipartiteShape> shape_;
  std::vector<double> plane_;     // rows * cols, row-major
  std::size_t plane_nonzeros_ = 0;

  bool finalized_ = false;
  mutable CsrCell csr_;
};

/// Result common to all Ising solvers.
struct IsingSolveResult {
  std::vector<std::int8_t> spins;  // each -1 or +1
  double energy = 0.0;             // includes the model constant
  std::size_t iterations = 0;      // Euler steps / sweeps actually executed
  bool stopped_early = false;      // dynamic stop criterion fired
};

}  // namespace adsd
