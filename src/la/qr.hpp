// Column-pivoted Householder QR for rank-revealing use: the cross-Gramian
// variant compresses its stacked samples with it (mor/cross_gramian.cpp),
// and orth() gives the orthonormal bases of signal/subspace.cpp. PMTBR's
// order control (paper Sec. V-C) does not use it: the compressor keeps the
// σ of its folded R instead (mor/compressor.hpp).
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace pmtbr::la {

struct QrResult {
  MatD q;                   // m×k with orthonormal columns (thin), k = min(m,n)
  MatD r;                   // k×n upper triangular; Q·R = A(:, perm)
  std::vector<index> perm;  // column permutation
  index rank = 0;           // numerical rank estimate
};

/// Column-pivoted thin QR of an m×n matrix (m < n allowed); `rank` counts
/// diagonal entries of R above rel_tol * |R(0,0)|.
QrResult qr_pivoted(const MatD& a, double rel_tol = 1e-12);

/// orth's rank threshold, relative to |R(0,0)|.
inline constexpr double kOrthRankTol = 1e-12;

/// Orthonormal basis of the column space of A: the first `rank` columns of
/// the pivoted Q at kOrthRankTol (at least one).
MatD orth(const MatD& a);

}  // namespace pmtbr::la
