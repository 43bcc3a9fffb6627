// PRIMA: passive reduced-order interconnect macromodeling (block Arnoldi
// moment matching + congruence projection) — the paper's main
// Krylov-subspace baseline.
//
// The reduced model matches `num_moments` block moments of the transfer
// function about the expansion point s0, so its order is (up to deflation)
// num_moments × num_ports — the port-count blowup that motivates the
// input-correlated variant of PMTBR (paper Sec. IV-C).
#pragma once

#include "mor/state_space.hpp"

namespace pmtbr::mor {

struct PrimaOptions {
  index num_moments = 2;   // block Krylov iterations
  double s0 = 0.0;         // real expansion point (rad/s)
};

struct PrimaResult {
  ReducedModel model;
};

/// PRIMA reduction; requires (s0 E - A) nonsingular.
PrimaResult prima(const DescriptorSystem& sys, const PrimaOptions& opts = {});

}  // namespace pmtbr::mor
