// Incremental sample-matrix compressor for on-the-fly order control
// (paper Sec. V-C).
//
// Maintains a growing factorization  Z_(i) W = Q R  with Q orthonormal
// (n×rank), so absorbing a new sample block costs O(n·k·rank) flops
// instead of a fresh SVD of everything. R (rank×m, m = columns absorbed) is
// kept as P, its columns in the order they arrived (each as long as the
// rank when it arrived; missing trailing entries are zero).
//
// settle() folds P once: one la::svd_right of the tall m×rank matrix
// T = Pᵀ, whose singular values σ (descending) are those of Z W and whose
// right vectors U (rank×rank, orthogonal) make Q·U its left singular
// vectors, since Tᵀ·T = R·Rᵀ; U of T is never formed. svd_right's R-only
// QR skips the zeros of P's trailing entries. This plays the role the
// paper assigns to updatable rank-revealing factorizations (RRQR/UTV):
// trailing-singular-value estimates after any sample, plus an orthonormal
// basis for the dominant subspace.
//
// Queries (singular_values, basis, order_for_tolerance, scratch_fold) are
// pure. On a settled compressor they read U and σ in place; before
// settle() they fold P into a scratch copy through the same code, so they
// return exactly what settle() would then commit, and cost one fold each.
// settle() is the only commit, and it is final: a settled compressor
// absorbs no more columns. A caller that already holds a scratch_fold() of
// every absorbed column commits it through settle(Fold) without folding
// again.
// So the state is a function of the add_columns sequence, never of the
// queries: a model is a function of its absorbed columns. Any number of
// threads may query one compressor at once while none absorbs or settles.
// A caller that queries often (adaptive order control, mor/pmtbr.cpp) asks
// tail_order_lower_bound below first and folds only when the bound cannot
// decide.
//
// Two absorption paths, both pushing their R columns into the same P:
//  - kBlocked (default): two passes of block classical Gram–Schmidt
//    against the existing basis, then a Householder QR of the n×k residual
//    block and an SVD of its small R factor to decide which new directions
//    survive drop_tol; the kept ones are re-orthogonalized (one more CGS
//    pass, a second only for a direction that lost over half its squared
//    norm, then one MGS pass among themselves). One factorization per block
//    instead of per column. The block never leaves the basis' row layout:
//    it is copied transposed into k rows of length n, every CGS pass runs
//    through two register-tiled row kernels (C = Q·Xᵀ, then X −= Cᵀ·Q), the
//    QR builds each reflector along a row and applies it along the rows
//    below, and each kept direction is formed by applying the reflectors
//    in reverse to [U(:, l) ; 0] straight in its new basis row. No GEMM, no
//    explicit Q, and no workspace allocation once the buffers have grown.
//    The basis grows in place up to the capacity reserve() set, so a run
//    that knows its largest rank allocates it once.
//  - kReference: the seed per-column modified Gram–Schmidt loop, kept as
//    the comparison oracle for tests and bench_kernels.
//
// Both paths are deterministic for any thread count: absorption runs
// serially, and so does the fold.
#pragma once

#include <span>
#include <vector>

#include "la/aligned.hpp"
#include "la/matrix.hpp"

namespace pmtbr::mor {

using la::index;
using la::MatD;

enum class CompressorMode {
  kBlocked,    // block Gram–Schmidt + Householder QR + small SVD
  kReference,  // seed per-column modified Gram–Schmidt
};

class IncrementalCompressor {
 public:
  /// `n` is the state dimension; `drop_tol` is the relative norm below which
  /// a new direction adds nothing to Q.
  explicit IncrementalCompressor(index n, double drop_tol = 1e-13,
                                 CompressorMode mode = CompressorMode::kBlocked);

  /// Absorbs the columns of `block` (already weight-scaled by the caller).
  /// Returns the Frobenius norm of the block's component orthogonal to the
  /// basis as it stood BEFORE the call — the "novelty" of the block, free
  /// of charge from the Gram–Schmidt projection (adaptive sampling used
  /// to recompute this with two n×k products per sample). Throws
  /// std::invalid_argument once settle() has run.
  double add_columns(const MatD& block);

  index n() const { return n_; }
  index rank() const { return rank_; }
  index columns_absorbed() const { return m_; }

  /// Sizes the basis for `max_rank` directions (clamped to n), so it never
  /// regrows below that rank. Never changes a result bit.
  void reserve(index max_rank);

  /// U and σ of the absorbed columns, and how many columns they cover.
  struct Fold {
    MatD u;
    std::vector<double> sigma;
    index columns = 0;
  };

  /// Folds the absorbed R columns into (U, σ), once; later calls are
  /// no-ops, and add_columns is closed from then on.
  void settle();

  /// settle() that commits `fold`, a scratch_fold() of this compressor
  /// taken after its last add_columns, instead of folding again: the same
  /// bits for one SVD less. std::invalid_argument when `fold` covers
  /// another number of columns than were absorbed, or has another rank
  /// (σ of rank() values, U of rank() × rank()).
  void settle(Fold fold);

  /// settle(), then releases what only absorption needs (the block
  /// workspace, P and the basis' spare capacity), so the compressor holds
  /// rank·n + rank² + rank doubles.
  void shrink_to_fit();

  /// Bytes held by the basis (its capacity), U and σ: (rank·n + rank² +
  /// rank)·8 after shrink_to_fit().
  std::size_t resident_bytes() const;

  // Pure queries: before settle(), each folds P into a scratch copy (a
  // settle() that commits nothing).
  /// The fold settle() would commit now (on a settled compressor, the
  /// committed one), for a caller that needs σ first and may commit it
  /// later through settle(Fold).
  Fold scratch_fold() const;

  /// Singular values of the absorbed matrix, descending (length = rank()).
  std::vector<double> singular_values() const;

  /// Orthonormal basis for the dominant `order`-dimensional left singular
  /// subspace (order clamped to rank()).
  MatD basis(index order) const;

  /// tail_order(singular_values(), tol).
  index order_for_tolerance(double tol) const;

 private:
  /// Per-block workspace reused across add_columns calls; resize keeps the
  /// allocations once they have grown to the working size.
  struct Workspace {
    la::AlignedVector<double> rows;  // the block transposed, k rows of n (residual, projected)
    std::vector<double> colsq;  // the block's squared column norms
    std::vector<double> kept_sq;  // kept directions' squared norms before re-orthogonalizing
    std::vector<double> beta;   // 2/‖v_j‖² of the residual QR's reflectors
    std::vector<double> rdiag;  // diagonal of that QR's R
    MatD r;                     // R of the residual QR
    MatD proj;   // rank×k Gram–Schmidt coefficients of one pass
    MatD coeff;  // rank×k accumulated coefficients over both passes
  };

  double add_block(const MatD& block);

  /// The fold behind settle() and the scratch queries, traced under
  /// `scope`; reads only.
  Fold fold(const char* scope) const;

  /// Seed path: returns the squared norm of v's component orthogonal to the
  /// first `basis_rank` basis directions (the basis size before the
  /// enclosing add_columns call started).
  double add_column(std::vector<double> v, index basis_rank);

  const double* basis_row(index l) const {
    return basis_t_.data() + static_cast<std::size_t>(l * n_);
  }

  index n_;
  double drop_tol_;
  CompressorMode mode_;
  index m_ = 0;     // columns absorbed
  index rank_ = 0;  // basis directions kept
  // Basis stored TRANSPOSED: row l (contiguous, length n) is the l-th
  // orthonormal direction, so appending a direction appends n values and
  // the absorption row kernels stream it one direction at a time. Like the
  // block rows, it starts on a cache line (la/aligned.hpp).
  la::AlignedVector<double> basis_t_;
  // Square-root SVD of R once settled, R·Rᵀ = U·diag(σ)²·Uᵀ with U
  // rank×rank; both empty before settle().
  MatD u_;
  std::vector<double> sigma_;
  std::vector<std::vector<double>> pending_;  // P: R's columns until settle()
  bool settled_ = false;
  Workspace ws_;
};

/// Smallest order q whose trailing singular-value sum satisfies
/// sum_{i>q} σ_i <= tol·σ_1 (σ descending) — the paper's "small tail"
/// criterion; at least 1, and 0 for an empty list.
index tail_order(std::span<const double> sigma, double tol);

/// A lower bound on tail_order(σ', tol), where σ are the singular values
/// of a matrix R and σ' those of [R B] with ‖B‖²_F <= added_sq (rows of R
/// may grow as zeros). Adding columns never lowers a singular value,
/// σ_i([R B]) >= σ_i(R), and σ_1([R B])² <= σ_1(R)² + ‖B‖²_F, so the tail
/// rule applied to σ with σ_1 raised to √(σ_1² + added_sq) cannot exceed
/// the exact order. The tail sums are first shrunk by an allowance of
/// 1e3·|σ|·ε times that σ_1, so that rounding in either σ only lowers the
/// bound. No fold needed: adaptive order control asks this after each
/// sample and folds only when the run could stop.
index tail_order_lower_bound(std::span<const double> sigma, double added_sq, double tol);

}  // namespace pmtbr::mor
