// Singular value decomposition via one-sided Jacobi rotations.
//
// One-sided Jacobi is unconditionally convergent and computes small
// singular values with high relative accuracy — which is exactly what
// PMTBR's order-control needs, since truncation decisions are made on
// trailing singular values many orders of magnitude below the leading one.
//
// Two kernels share the rotation and its convergence test:
//  - svd / singular_values rotate the columns of A itself and
//    accumulate V rotation by rotation; they return U as well.
//  - svd_right returns σ and V only, for callers that discard U (the
//    compressor's fold). It factors A = Q·R with an R-only Householder QR,
//    then rotates the rows of R until they are mutually orthogonal. That is
//    the Drmač–Veselić preconditioned Jacobi (SIAM J. Matrix Anal. Appl. 29,
//    2008): Rᵀ·U_R = V·Σ, so row i of the rotated R is σ_i·v_iᵀ and nothing
//    is accumulated. Rows are contiguous in the row-major MatD, so every dot
//    product and rotation streams through memory. It deliberately avoids
//    Cholesky QR: forming AᵀA squares the condition number and loses the
//    trailing singular values that order control reads.
//
// Complex sample matrices are handled upstream by realification
// (la::realify_columns), which is equivalent to including conjugate
// sample pairs (paper Algorithm 1, step 5).
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace pmtbr::la {

struct SvdResult {
  MatD u;               // m×k, orthonormal columns
  std::vector<double> s;  // k singular values, descending
  MatD v;               // n×k, orthonormal columns; A = U diag(S) V^T
};

/// Thin SVD of an m×n real matrix (any shape), k = min(m, n).
SvdResult svd(const MatD& a);

/// Singular values only (still O(mn^2) but skips accumulating V).
std::vector<double> singular_values(const MatD& a);

struct SvdRightResult {
  std::vector<double> s;  // n singular values, descending
  MatD v;                 // n×n; column i is the right singular vector of s[i]
};

/// σ and V of a tall m×n matrix (m >= n; throws std::invalid_argument on a
/// wide or empty one), without U. Each Householder step of the QR touches
/// only the rows where its reflector is nonzero, so a matrix whose leading
/// rows are diagonal, [diag(d) ; D], factors in O(rows(D)·n²). A zero
/// singular value leaves its column of V zero. Like svd(), it returns the
/// usable approximation if the Jacobi sweep budget runs out.
SvdRightResult svd_right(const MatD& a);

}  // namespace pmtbr::la
