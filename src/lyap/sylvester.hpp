// Dense Sylvester solver via the matrix sign function, used for the exact
// cross-Gramian baseline (paper Sec. V-D): A X_CG + X_CG A + B C = 0.
#pragma once

#include "la/matrix.hpp"

namespace pmtbr::lyap {

/// Solves A X + X B + C = 0 for Hurwitz-stable A and B (possibly different
/// sizes: A is n×n, B is m×m, C and X are n×m). Throws on non-convergence
/// (the budget of lyap/lyapunov.hpp, over A_k and B_k together).
la::MatD solve_sylvester(const la::MatD& a, const la::MatD& b, const la::MatD& c);

/// Cross-Gramian: A X + X A + B C = 0 for a square system (p inputs = q
/// outputs so that B*C is n×n).
la::MatD cross_gramian(const la::MatD& a, const la::MatD& b, const la::MatD& c);

/// Residual ||A X + X B + C||_F.
double sylvester_residual(const la::MatD& a, const la::MatD& b, const la::MatD& c,
                          const la::MatD& x);

}  // namespace pmtbr::lyap
