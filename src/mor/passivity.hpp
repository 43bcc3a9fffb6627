// Passivity and stability verification for reduced models (paper Sec. V-E).
//
// Congruence projection of a PRIMA-form MNA system is passive by
// construction; these checks verify the property numerically — for models
// produced by non-congruence methods (TBR, cross-Gramian, PVL) they report
// whether the usual sufficient conditions hold on a frequency grid.
#pragma once

#include <vector>

#include "mor/state_space.hpp"

namespace pmtbr::mor {

struct PassivityReport {
  bool stable = false;            // all poles strictly in the open left half-plane
  bool dissipative_on_grid = false;  // Re{H(jω)} ⪰ 0 (as a Hermitian form) at every grid point
  double min_pole_margin = 0.0;   // -max Re(pole)
  double min_dissipation = 0.0;   // min over grid of λ_min(H + H^H)/2
  double worst_frequency_hz = 0.0;
};

/// Checks an immittance-form model (inputs = port currents, outputs = port
/// voltages or vice versa): passivity requires H(jω) + H(jω)^H ⪰ 0.
PassivityReport check_passivity(const DenseSystem& sys, const std::vector<double>& grid_hz);

/// is_structurally_passive's tolerance on symmetry, definiteness and
/// B = C^T, relative to the matrices' scale.
inline constexpr double kPassivityTol = 1e-9;

/// Structural passivity of a descriptor system: E = E^T ⪰ 0 and
/// A + A^T ⪯ 0 with B = C^T (the PRIMA-form sufficient condition that
/// congruence projection preserves), each up to kPassivityTol. Evaluated
/// via dense symmetric eigenvalues — intended for reduced or test-sized
/// systems.
bool is_structurally_passive(const DescriptorSystem& sys);

}  // namespace pmtbr::mor
