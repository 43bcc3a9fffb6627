// Dot products of contiguous rows, shared by the row-layout kernels: the
// Jacobi row sweeps of la/svd.cpp and the Gram–Schmidt and Householder
// rows of mor/gram_schmidt.hpp. Each dot accumulates in eight partial sums,
// lane l taking the entries i ≡ l (mod 8) and lane 0 the tail, summed
// pairwise at the end, so the loop vectorizes (two independent 4-wide
// accumulators under AVX2) without reassociating a single running sum, and
// a dot's bits do not depend on the tile it is computed in. Both stay
// inline so the multiversioned callers keep them in their register loops.
#pragma once

#include "la/matrix.hpp"

namespace pmtbr::la::detail {

// c[b·ldc + r] = <x_r, q_b> for R rows x_r = x + r·n and B rows
// q_b = q + b·n.
template <index R, index B>
inline void dot_tile(index n, const double* x, const double* q, double* c, index ldc) {
  double s[R][B][8] = {};
  index i = 0;
  for (; i + 8 <= n; i += 8)
    for (index r = 0; r < R; ++r)
      for (index b = 0; b < B; ++b)
        for (index l = 0; l < 8; ++l) s[r][b][l] += x[r * n + i + l] * q[b * n + i + l];
  for (; i < n; ++i)
    for (index r = 0; r < R; ++r)
      for (index b = 0; b < B; ++b) s[r][b][0] += x[r * n + i] * q[b * n + i];
  for (index r = 0; r < R; ++r)
    for (index b = 0; b < B; ++b) {
      const double* t = s[r][b];
      c[b * ldc + r] = ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]));
    }
}

inline double row_dot(index n, const double* x, const double* y) {
  double d = 0;
  dot_tile<1, 1>(n, x, y, &d, 1);
  return d;
}

}  // namespace pmtbr::la::detail
