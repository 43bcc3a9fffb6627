// Reduced-model realization: pole/residue extraction and Foster RC
// synthesis back into a netlist — the downstream step a circuit user needs
// to consume a reduced macromodel in a SPICE-class simulator.
//
// Foster synthesis is exact for SISO driving-point impedances with simple
// real negative poles and positive residues — which every passive RC
// driving point (and every congruence-reduced model of one) satisfies.
#pragma once

#include <vector>

#include "circuit/netlist.hpp"
#include "mor/state_space.hpp"

namespace pmtbr::mor {

struct PoleResidue {
  std::vector<cd> poles;     // λ_i
  std::vector<cd> residues;  // r_i with H(s) ≈ Σ r_i / (s - λ_i)
};

/// Partial-fraction form of one transfer entry of a dense model (simple
/// poles assumed; near-defective systems yield inaccurate residues).
PoleResidue pole_residue(const DenseSystem& sys, index out_idx = 0, index in_idx = 0);

/// Evaluates a pole/residue model at s (for validation).
cd evaluate(const PoleResidue& pr, cd s);

/// Foster synthesis treats λ as a real pole when |Im λ| <= kFosterImagTol·|λ|
/// (and a residue as real likewise), and drops residues at or below
/// kFosterResidueTol times the largest.
inline constexpr double kFosterImagTol = 1e-6;
inline constexpr double kFosterResidueTol = 1e-12;

/// Synthesizes a series chain of parallel-RC blocks realizing the
/// driving-point impedance Σ r_i/(s + p_i): each term maps to
/// C = 1/r, R = r/p (p = -λ > 0, r > 0). Throws std::invalid_argument if
/// any retained pole is complex, unstable, or has a non-positive residue —
/// i.e. if the function is not an RC driving-point impedance.
circuit::Netlist synthesize_foster_rc(const PoleResidue& pr);

}  // namespace pmtbr::mor
