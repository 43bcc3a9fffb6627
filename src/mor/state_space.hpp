// Dense state-space models (the output type of every reduction algorithm),
// the projection operation that produces them from sparse descriptor
// systems, and the deflating orthonormal basis that the Krylov and
// multipoint bases share (PRIMA, MPPROJ). PRIMA and PVL factor their
// expansion pencil s0·E − A through DescriptorSystem::factor_real.
#pragma once

#include <vector>

#include "circuit/descriptor.hpp"
#include "la/aligned.hpp"
#include "la/matrix.hpp"

namespace pmtbr::mor {

using la::cd;
using la::index;
using la::MatC;
using la::MatD;

/// Small dense descriptor model  E dz/dt = A z + B u, y = C z.
class DenseSystem {
 public:
  DenseSystem() = default;
  DenseSystem(MatD e, MatD a, MatD b, MatD c);

  /// E = I convenience constructor.
  static DenseSystem standard(MatD a, MatD b, MatD c);

  index n() const { return a_.rows(); }
  index num_inputs() const { return b_.cols(); }
  index num_outputs() const { return c_.rows(); }

  const MatD& e() const { return e_; }
  const MatD& a() const { return a_; }
  const MatD& b() const { return b_; }
  const MatD& c() const { return c_; }

  /// H(s) = C (sE - A)^{-1} B.
  MatC transfer(cd s) const;

  /// Generalized eigenvalues of (A, E) — the model's poles.
  std::vector<cd> poles() const;

  /// True if all poles have strictly negative real part.
  bool is_stable(double margin = 0.0) const;

 private:
  MatD e_, a_, b_, c_;
};

/// Result of any projection-based reduction.
struct ReducedModel {
  DenseSystem system;
  MatD v;                               // right projection basis (n×q)
  MatD w;                               // left projection basis (n×q); == v for congruence
  std::vector<double> singular_values;  // method-specific spectrum (may be longer than q)
};

/// Petrov–Galerkin projection of a sparse descriptor system:
///   Er = W^T E V, Ar = W^T A V, Br = W^T B, Cr = C V.
DenseSystem project(const DescriptorSystem& sys, const MatD& v, const MatD& w);

/// Galerkin (congruence) projection, W = V — preserves passivity for
/// RLC-MNA structure (paper Sec. V-E).
DenseSystem project_congruence(const DescriptorSystem& sys, const MatD& v);

/// Sparse E*V / A*V products used by project(); exposed for reuse.
MatD sparse_times_dense(const sparse::CsrD& m, const MatD& v);

/// Orthonormal basis grown block by block with deflation: PRIMA adds one
/// Krylov block per moment, MPPROJ one realified sample per frequency.
/// The basis is stored transposed (row l = l-th direction, contiguous), and
/// a block is copied into the same row layout, one row per column, as the
/// compressor does. It first gets two passes of block classical
/// Gram–Schmidt against the whole basis (mor/gram_schmidt.hpp's
/// project_rows and subtract_rows), then each column two passes of
/// modified Gram–Schmidt against the directions its own block added. A
/// column is dropped when its remainder is <= kDeflationTol times its norm
/// before projection; an exactly zero column is skipped.
class DeflatingBasis {
 public:
  static constexpr double kDeflationTol = 1e-10;

  /// `n` is the state dimension; `max_rank` > 0 caps the basis size (the
  /// cap may land in the middle of a block), < 0 leaves it uncapped.
  explicit DeflatingBasis(index n, index max_rank = -1);

  /// Appends the surviving directions of `block` (n×k), in column order,
  /// and returns how many it added.
  index extend(const MatD& block);

  index rank() const { return rank_; }
  bool full() const { return max_rank_ > 0 && rank_ >= max_rank_; }

  /// Directions [c0, c1) as an n×(c1 − c0) matrix.
  MatD columns(index c0, index c1) const;
  /// The whole basis, n×rank.
  MatD matrix() const { return columns(0, rank_); }

 private:
  index n_;
  index max_rank_;
  index rank_ = 0;
  la::AlignedVector<double> basis_t_;  // one row of n per direction (la/aligned.hpp)
};

}  // namespace pmtbr::mor
