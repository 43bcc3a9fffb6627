// Frequency-weighted balanced truncation (Enns' method) — the classical
// answer to band-focused reduction that the paper argues against for
// narrowband use (Sec. IV-B: "construction and merging of such auxiliary
// systems is not desirable"). Implemented as a baseline so the
// frequency-selective PMTBR comparison can be made directly.
//
// Given stable weights W_i(s), W_o(s), Enns builds the Gramians of the
// cascades G·W_i and W_o·G and balances the original system with the
// corresponding diagonal blocks, through TBR's square-root kernel
// (balanced_truncation in mor/tbr.hpp). No global error bound survives the
// weighting; stability of the reduced model is likewise not guaranteed in
// general (both facts are part of the paper's argument).
#pragma once

#include <optional>

#include "mor/state_space.hpp"

namespace pmtbr::mor {

struct FwbtOptions {
  index fixed_order = -1;
  double error_tol = 0.0;  // on the weighted singular-value tail
};

struct FwbtResult {
  ReducedModel model;
  std::vector<double> weighted_hsv;
};

/// Weighted balanced truncation of a descriptor system (E invertible).
/// Either weight may be empty (std::nullopt == identity). Weights must be
/// stable dense systems with E = I; the input weight needs as many outputs
/// as the plant has inputs, the output weight as many inputs as the plant
/// has outputs.
FwbtResult fwbt(const DescriptorSystem& sys, const std::optional<DenseSystem>& input_weight,
                const std::optional<DenseSystem>& output_weight, const FwbtOptions& opts = {});

/// MIMO Butterworth low-pass weight: `channels` identical uncoupled
/// filters of the given order and -3 dB cutoff, unit dc gain (D = 0).
DenseSystem butterworth_lowpass(index order, double f_cutoff_hz, index channels);

}  // namespace pmtbr::mor
