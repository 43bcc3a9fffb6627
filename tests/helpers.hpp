// Shared fixtures: seeded random matrices, random stable systems, and
// comparison helpers used across the test suite.
#pragma once

#include <cmath>
#include <vector>

#include "la/matrix.hpp"
#include "la/ops.hpp"
#include "util/rng.hpp"

namespace pmtbr::testing {

using la::cd;
using la::index;
using la::MatC;
using la::MatD;

inline MatD random_matrix(index rows, index cols, Rng& rng, double scale = 1.0) {
  MatD m(rows, cols);
  for (index i = 0; i < rows; ++i)
    for (index j = 0; j < cols; ++j) m(i, j) = rng.normal(0.0, scale);
  return m;
}

inline MatC random_complex_matrix(index rows, index cols, Rng& rng, double scale = 1.0) {
  MatC m(rows, cols);
  for (index i = 0; i < rows; ++i)
    for (index j = 0; j < cols; ++j) m(i, j) = cd(rng.normal(0.0, scale), rng.normal(0.0, scale));
  return m;
}

inline MatD random_spd(index n, Rng& rng) {
  const MatD g = random_matrix(n, n, rng);
  MatD s = la::matmul(g, la::transpose(g));
  for (index i = 0; i < n; ++i) s(i, i) += 0.1 * static_cast<double>(n);
  return s;
}

/// Random Hurwitz-stable matrix: A = S - G G^T - margin*I with S skew.
inline MatD random_stable(index n, Rng& rng, double margin = 0.5) {
  const MatD g = random_matrix(n, n, rng, 1.0 / std::sqrt(static_cast<double>(n)));
  const MatD skew_src = random_matrix(n, n, rng);
  MatD a = la::matmul(g, la::transpose(g));
  a *= -1.0;
  for (index i = 0; i < n; ++i) {
    for (index j = 0; j < n; ++j) a(i, j) += 0.5 * (skew_src(i, j) - skew_src(j, i));
    a(i, i) -= margin;
  }
  return a;
}

/// A(:, perm): the column order a pivoted QR factors.
inline MatD permute_columns(const MatD& a, const std::vector<index>& perm) {
  MatD out(a.rows(), static_cast<index>(perm.size()));
  for (index j = 0; j < out.cols(); ++j) out.set_col(j, a.col(perm[static_cast<std::size_t>(j)]));
  return out;
}

/// Checks Q^T Q ≈ I.
inline double orthonormality_defect(const MatD& q) {
  const MatD g = la::matmul(la::transpose(q), q);
  double worst = 0;
  for (index i = 0; i < g.rows(); ++i)
    for (index j = 0; j < g.cols(); ++j)
      worst = std::max(worst, std::abs(g(i, j) - (i == j ? 1.0 : 0.0)));
  return worst;
}

}  // namespace pmtbr::testing
