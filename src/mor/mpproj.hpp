// Plain multipoint rational projection (MPPROJ): the same frequency samples
// PMTBR uses, but every (numerically independent) sample column enters the
// projection basis in arrival order — PRIMA's deflating Gram–Schmidt
// (DeflatingBasis) instead of SVD weighting and truncation.
//
// This is the baseline of paper Fig. 10: PMTBR's advantage over MPPROJ is
// exactly its ability to prune redundant directions.
#pragma once

#include "mor/sampling.hpp"
#include "mor/state_space.hpp"

namespace pmtbr::mor {

struct MpprojOptions {
  index max_order = -1;  // stop after this many basis columns (< 0: no cap)
};

struct MpprojResult {
  ReducedModel model;
};

/// Multipoint projection over explicit samples (weights ignored — MPPROJ
/// has no quadrature interpretation).
MpprojResult mpproj(const DescriptorSystem& sys, const std::vector<FrequencySample>& samples,
                    const MpprojOptions& opts = {});

}  // namespace pmtbr::mor
