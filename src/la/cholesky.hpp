// Cholesky factorization of symmetric positive-(semi)definite matrices.
//
// The TBR baseline factors Gramians X = L L^T; Gramians from the sign
// iteration can be slightly indefinite at round-off level, so a
// semidefinite-tolerant variant is provided that zero-clamps tiny negative
// pivots instead of failing.
#pragma once

#include "la/matrix.hpp"

namespace pmtbr::la {

/// Strict Cholesky A = L L^T; throws if A is not numerically SPD.
MatD cholesky(const MatD& a);

/// cholesky_psd's pivot floor, relative to the largest diagonal entry.
inline constexpr double kCholeskyPsdTol = 1e-13;

/// Semidefinite-tolerant factorization A ≈ L L^T for symmetric PSD A with
/// round-off-level negative eigenvalues. Columns with pivot below
/// kCholeskyPsdTol * max_diag are zeroed. Returns a full n×n
/// lower-triangular L (possibly with zero columns).
MatD cholesky_psd(const MatD& a);

}  // namespace pmtbr::la
