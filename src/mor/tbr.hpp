// Exact truncated balanced realization (square-root method) — the baseline
// PMTBR is measured against, plus Hankel singular values and the Glover
// error bound 2·Σ tail.
//
// Gramians come from the sign-function Lyapunov solver, factors from the
// symmetric eigensolver; the balancing projection is the standard
// V = Lx V_svd Σ^{-1/2}, W = Ly U_svd Σ^{-1/2}. Requires nonsingular E
// (converted to standard form); all bundled generators satisfy this —
// handling singular E painlessly is precisely PMTBR's advantage
// (paper Sec. V-A).
#pragma once

#include <vector>

#include "mor/state_space.hpp"

namespace pmtbr::mor {

struct TbrOptions {
  index fixed_order = -1;   // if > 0, wins over error_tol
  double error_tol = 0.0;   // pick smallest order with 2·Σ_{i>q} σ_i <= error_tol·(2·Σσ)
};

struct TbrResult {
  ReducedModel model;
  std::vector<double> hsv;   // all Hankel singular values, descending
  double error_bound = 0.0;  // 2·Σ_{i>q} σ_i at the chosen order
};

/// Balanced truncation of a descriptor system (E must be invertible).
/// Dense standard-form matrices go in through from_dense().
TbrResult tbr(const DescriptorSystem& sys, const TbrOptions& opts = {});

/// Square-root balanced truncation of the standard-form system `d` from a
/// Gramian pair (X, Y), the kernel behind tbr() and fwbt(): with
/// X = Lx·Lxᵀ, Y = Ly·Lyᵀ and Lyᵀ·Lx = U·Σ·V_svdᵀ, it projects `d` onto
/// V = Lx·V_svd·Σ^{-1/2} and W = Ly·U·Σ^{-1/2}. The order is `fixed_order`
/// if > 0, else the smallest q whose tail Σ_{i>q} σ_i <= error_tol·Σσ, and
/// never more than the σ above 1e-13·σ1. `singular_values` holds every σ.
ReducedModel balanced_truncation(const DenseStandard& d, const MatD& x, const MatD& y,
                                 index fixed_order, double error_tol);

/// Nested re-truncation: the square-root balancing bases are ordered by
/// Hankel singular value, so the order-q TBR model is the projection onto
/// the first q columns of a higher-order result's bases. Lets order sweeps
/// reuse one Gramian computation.
TbrResult tbr_truncate(const DescriptorSystem& sys, const TbrResult& full, index order);

/// Hankel singular values only.
std::vector<double> hankel_singular_values(const DescriptorSystem& sys);

/// Glover bound 2·Σ_{i>order} σ_i.
double tbr_error_bound(const std::vector<double>& hsv, index order);

}  // namespace pmtbr::mor
