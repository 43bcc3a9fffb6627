// Dense Lyapunov and cross-Gramian solvers via the matrix sign function
// (Roberts iteration with determinant scaling).
//
// Solves A X + X A^T + Q = 0 for stable A using only LU inversions:
//   A_{k+1} = (c A_k + A_k^{-1}/c) / 2,   Q_{k+1} = (c Q_k + A_k^{-1} Q_k A_k^{-T}/c) / 2,
// with c = exp(-log|det A_k| / n); at convergence X = Q_inf / 2. The
// cross-Gramian's Sylvester equation A X + X A + B C = 0 (paper Sec. V-D)
// runs the same loop with A_k^{-1} in place of A_k^{-T}.
//
// This gives the exact-TBR baseline its Gramians without a real-Schur
// implementation (DESIGN.md decision 1). Cost is O(n^3) per iteration and
// convergence is quadratic; circuit matrices here converge in 10–25 steps.
#pragma once

#include "la/matrix.hpp"

namespace pmtbr::lyap {

/// Budget of every sign iteration here: it has converged when
/// ||A_k + I||_F <= kSignTolerance·max(||A_k||_F, 1), and throws after
/// kSignMaxIterations steps without converging.
inline constexpr int kSignMaxIterations = 100;
inline constexpr double kSignTolerance = 1e-12;

/// Solves A X + X A^T + Q = 0 (continuous-time controllability form) for
/// Hurwitz-stable A and symmetric PSD Q. Throws on non-convergence.
la::MatD solve_lyapunov(const la::MatD& a, const la::MatD& q);

/// Controllability Gramian: A X + X A^T + B B^T = 0.
la::MatD controllability_gramian(const la::MatD& a, const la::MatD& b);

/// Observability Gramian: A^T Y + Y A + C^T C = 0.
la::MatD observability_gramian(const la::MatD& a, const la::MatD& c);

/// Cross-Gramian: A X + X A + B C = 0 for Hurwitz-stable A and a square
/// system (as many inputs as outputs, so that B C is n×n). Throws on
/// non-convergence.
la::MatD cross_gramian(const la::MatD& a, const la::MatD& b, const la::MatD& c);

/// Residual ||A X + X A^T + Q||_F — used by tests and diagnostics.
double lyapunov_residual(const la::MatD& a, const la::MatD& x, const la::MatD& q);

/// Residual ||A X + X B + C||_F for n×n A, m×m B and n×m C and X.
double sylvester_residual(const la::MatD& a, const la::MatD& b, const la::MatD& c,
                          const la::MatD& x);

}  // namespace pmtbr::lyap
