// Incremental sample-matrix compressor for on-the-fly order control
// (paper Sec. V-C).
//
// Maintains a growing factorization  Z_(i) W = Q R  with Q orthonormal
// (n×rank), so absorbing a new sample block costs O(n·k·rank) flops
// instead of a fresh SVD of everything. R (rank×m, m = columns absorbed) is
// never stored. The compressor keeps a square-root SVD of it instead:
//
//   - U, an orthogonal rank×rank matrix, and σ, sorted descending, with
//     R·Rᵀ = U·diag(σ)²·Uᵀ over the columns folded so far — once every
//     column is folded, σ are the singular values of Z W and Q·U its left
//     singular vectors;
//   - P, the R columns absorbed since the last query (each as long as the
//     rank when it arrived; missing trailing entries are zero).
//
// Every query (singular_values, basis, order_for_tolerance) on a mutable
// compressor first folds P in (settle()): one la::svd_right of the tall
// matrix T = [diag(σ) ; Pᵀ·blkdiag(U, I)], of size (|σ|+|P|)×rank, whose
// singular values are the new σ and whose right vectors V give the new
// U = blkdiag(U, I)·V; U of T is never formed.
// svd_right's R-only QR skips the zeros of diag(σ), so it costs
// O((|P|+1)·rank²), and T's leading columns are already orthogonal, so the
// row-wise Jacobi on R starts warm at O(rank³) per sweep however many
// columns were absorbed. With P empty a query costs no SVD at all: order
// choice, basis and the singular-value list after the last sample share
// one fold. This plays the role the paper assigns to updatable
// rank-revealing factorizations (RRQR/UTV): cheap trailing-singular-value
// estimates after every sample, plus an orthonormal basis for the dominant
// subspace. On a const, settled compressor the same queries only read, so
// one settled compressor can be queried from many threads at once (a
// PMTBR span, mor/pmtbr.hpp, is projected that way at every order).
//
// Where the folds fall changes the last bits of σ and U, so the state is a
// deterministic function of the sequence of add_columns AND query calls,
// not of the columns alone. Callers that must reproduce a model bit for bit
// must repeat the same call sequence, queries included.
//
// Two absorption paths, both pushing their R columns into the same P:
//  - kBlocked (default): two passes of block classical Gram–Schmidt
//    against the existing basis, then a Householder QR of the n×k residual
//    block and an SVD of its small R factor to decide which new directions
//    survive drop_tol; the kept ones are re-orthogonalized (two more CGS
//    passes, then MGS among themselves). One factorization per block
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
  /// to recompute this with two n×k products per sample).
  double add_columns(const MatD& block);

  index n() const { return n_; }
  index rank() const { return rank_; }
  index columns_absorbed() const { return m_; }

  /// Sizes the basis for `max_rank` directions (clamped to n), so it never
  /// regrows below that rank. Never changes a result bit.
  void reserve(index max_rank);

  /// Folds the pending R columns into (U, σ); a no-op when none are pending.
  void settle();

  /// settle(), then releases what only absorption needs (the block
  /// workspace, the pending list and the basis' spare capacity), so the
  /// compressor holds rank·n + rank² + rank doubles. Absorbing afterwards
  /// is allowed and regrows them.
  void shrink_to_fit();

  /// Bytes held by the basis (its capacity), U and σ: (rank·n + rank² +
  /// rank)·8 after shrink_to_fit().
  std::size_t resident_bytes() const;

  // The mutable queries settle() first. The const ones require a settled
  // compressor (no columns absorbed since the last fold) and only read it.
  /// Singular values of the absorbed matrix, descending (length = rank()).
  std::vector<double> singular_values();
  std::vector<double> singular_values() const;

  /// Orthonormal basis for the dominant `order`-dimensional left singular
  /// subspace (order clamped to rank()).
  MatD basis(index order);
  MatD basis(index order) const;

  /// Smallest order q whose trailing singular-value sum satisfies
  /// sum_{i>q} σ_i <= tol * σ_1 — the paper's "small tail" criterion.
  index order_for_tolerance(double tol);
  index order_for_tolerance(double tol) const;

 private:
  /// Per-block workspace reused across add_columns calls; resize keeps the
  /// allocations once they have grown to the working size.
  struct Workspace {
    la::AlignedVector<double> rows;  // the block transposed, k rows of n (residual, projected)
    std::vector<double> colsq;  // the block's squared column norms
    std::vector<double> beta;   // 2/‖v_j‖² of the residual QR's reflectors
    std::vector<double> rdiag;  // diagonal of that QR's R
    MatD r;                     // R of the residual QR
    MatD proj;   // rank×k Gram–Schmidt coefficients of one pass
    MatD coeff;  // rank×k accumulated coefficients over both passes
  };

  double add_block(const MatD& block);

  void require_settled() const;

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
  // Square-root SVD of the folded part of R: R·Rᵀ = U·diag(σ)²·Uᵀ, with U
  // |σ|×|σ| and |σ| the rank at the last fold.
  MatD u_;
  std::vector<double> sigma_;
  std::vector<std::vector<double>> pending_;  // P: R columns since the last fold
  Workspace ws_;
};

}  // namespace pmtbr::mor
