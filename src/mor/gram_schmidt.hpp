// Block Gram–Schmidt kernels in the row layout of an orthonormal basis:
// one contiguous row of length n per basis direction, and each incoming
// block copied transposed into k rows of length n, one per column. The
// compressor's absorption (compressor.cpp) and the deflating basis of
// PRIMA and MPPROJ (state_space.cpp) run their projections through them.
//
// project_rows and subtract_rows are serial and multiversioned
// (la/kernel_clones.hpp). They are defined in compressor.cpp, next to the
// absorption loop that calls them most: defined in a translation unit of
// their own, they would change that loop's register allocation. Their dots
// are la/row_dot.hpp's.
#pragma once

#include "la/matrix.hpp"
#include "la/row_dot.hpp"

namespace pmtbr::mor::detail {

using la::index;
using la::detail::dot_tile;
using la::detail::row_dot;

/// C = Q·Xᵀ: C(l, j) = <q_l, x_j> for the m basis rows q_l = q + l·n and
/// the k block rows x_j = x + j·n, C m×k row-major. Every entry is a
/// dot_tile dot.
void project_rows(index n, const double* x, index k, const double* q, index m, double* c);

/// X −= Cᵀ·Q: x_j −= Σ_l C(l, j)·q_l, the terms subtracted in ascending l.
void subtract_rows(index n, double* x, index k, const double* q, index m, const double* c);

}  // namespace pmtbr::mor::detail
