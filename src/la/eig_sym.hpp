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

/// Factor of a symmetric PSD matrix: L with A ≈ L L^T, L = V_+ sqrt(Λ_+)
/// keeping eigenvalues above rel_tol * λ_max. L has one column per retained
/// eigenvalue (possibly fewer than n).
MatD psd_factor(const MatD& a, double rel_tol = 1e-14);

}  // namespace pmtbr::la
