// Block Gram–Schmidt kernels in the row layout of an orthonormal basis:
// one contiguous row of length n per basis direction, and each incoming
// block copied transposed into k rows of length n, one per column. The
// compressor's absorption (compressor.cpp) and the deflating basis of
// PRIMA and MPPROJ (state_space.cpp) run their projections through them.
//
// project_rows and subtract_rows are serial and multiversioned
// (la/kernel_clones.hpp). They are defined in compressor.cpp, next to the
// absorption loop that calls them most: defined in a translation unit of
// their own, they would change that loop's register allocation. row_dot
// stays inline, so the compressor's Householder sweeps keep it in their
// register loops.
#pragma once

#include "la/matrix.hpp"

namespace pmtbr::mor::detail {

using la::index;

// c[b·ldc + r] = <x_r, q_b> for R rows x_r = x + r·n and B rows
// q_b = q + b·n. Each dot accumulates in eight partial sums, lane l taking
// the entries i ≡ l (mod 8) and lane 0 the tail, summed pairwise at the
// end (the order of la/svd.cpp's row_dot), so a dot's bits do not depend
// on the tile it is computed in.
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

/// C = Q·Xᵀ: C(l, j) = <q_l, x_j> for the m basis rows q_l = q + l·n and
/// the k block rows x_j = x + j·n, C m×k row-major. Every entry is a
/// dot_tile dot.
void project_rows(index n, const double* x, index k, const double* q, index m, double* c);

/// X −= Cᵀ·Q: x_j −= Σ_l C(l, j)·q_l, the terms subtracted in ascending l.
void subtract_rows(index n, double* x, index k, const double* q, index m, const double* c);

}  // namespace pmtbr::mor::detail
