// Symmetric eigendecomposition via the cyclic Jacobi method.
//
// Used to factor Gramians (which are symmetric PSD) as X = V Λ V^T in the
// TBR baseline and to validate sign-function Lyapunov solutions.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace pmtbr::la {

struct EigSymResult {
  std::vector<double> values;  // descending
  MatD vectors;                // columns are eigenvectors, A = V diag(w) V^T
};

/// Eigendecomposition of a symmetric matrix (symmetry enforced by averaging
/// A and A^T, which also absorbs round-off asymmetry from upstream).
EigSymResult eig_sym(const MatD& a);

/// psd_factor's eigenvalue floor, relative to λ_max.
inline constexpr double kPsdFactorTol = 1e-14;

/// Factor of a symmetric PSD matrix: L with A ≈ L L^T, L = V_+ sqrt(Λ_+)
/// keeping eigenvalues above kPsdFactorTol * λ_max. L has one column per
/// retained eigenvalue (possibly fewer than n).
MatD psd_factor(const MatD& a);

}  // namespace pmtbr::la
