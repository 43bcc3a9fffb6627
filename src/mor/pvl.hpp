// PVL — Padé via Lanczos (Feldmann & Freund), the paper's second
// Krylov-subspace baseline. SISO: a nonsymmetric two-sided Lanczos
// iteration on K = (s0 E − A)^{-1} E with starting vectors
// r = (s0 E − A)^{-1} b and c matches 2q transfer-function moments about s0
// with a q-state model.
//
// The reduced model is returned in descriptor form E_r = T, A_r = s0 T − I,
// B_r = ||r|| e1, C_r = c^T V, which reproduces the Padé approximant
// H_q(s) = c^T V (I + (s − s0) T)^{-1} W^T r.
#pragma once

#include "mor/state_space.hpp"

namespace pmtbr::mor {

struct PvlOptions {
  index order = 10;          // Lanczos steps == model order
  double s0 = 0.0;           // real expansion point (rad/s)
};

/// The Lanczos iteration stops at a serious breakdown, |w_kᵀ v_k| below
/// this, and when a new direction's norm falls below it (Krylov space
/// exhausted).
inline constexpr double kPvlBreakdownTol = 1e-13;

struct PvlResult {
  ReducedModel model;
  index steps_completed = 0;  // < order on (near-)breakdown
};

/// PVL reduction of a SISO descriptor system; requires (s0 E - A)
/// nonsingular. Throws if the system is not SISO.
PvlResult pvl(const DescriptorSystem& sys, const PvlOptions& opts = {});

}  // namespace pmtbr::mor
