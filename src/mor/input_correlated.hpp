// Input-correlated TBR (paper Algorithm 3): exploits correlation between
// port waveforms to reduce massively coupled networks far below the port
// count.
//
// Given samples of the input waveforms (matrix U, one column per time
// sample), the input correlation K = U U^T / N is factored by SVD and the
// PMTBR sample vectors are drawn as z = (sE - A)^{-1} B V_K r with
// r ~ N(0, S_K^2 / N) — so sampling effort concentrates on input directions
// that actually occur. A deterministic variant uses the whole scaled
// direction block B V_K S_K/√N at every frequency point. The samples are
// weighted and projected exactly as PMTBR's (weighted_sample and
// project_sampled in mor/pmtbr.hpp).
#pragma once

#include <cstdint>

#include "mor/sampling.hpp"
#include "mor/state_space.hpp"

namespace pmtbr::mor {

struct InputCorrelatedOptions {
  std::vector<Band> bands{Band{}};
  index num_freq_samples = 20;
  SamplingScheme scheme = SamplingScheme::kUniform;

  /// Random draws per frequency point (Algorithm 3 as published); set
  /// draws_per_frequency = 0 for the deterministic blocked variant.
  /// Negative values are rejected.
  index draws_per_frequency = 2;
  std::uint64_t seed = 1234;

  index fixed_order = -1;
  double truncation_tol = 1e-3;  // the paper's Fig. 13 setting
  index max_order = -1;
};

/// Input directions whose singular value is at or below this fraction of
/// the largest are dropped from V_K.
inline constexpr double kInputRankTol = 1e-6;

struct InputCorrelatedResult {
  ReducedModel model;
  std::vector<double> input_singular_values;  // S_K of the waveform matrix
  index input_rank = 0;                       // directions retained
  std::vector<double> hankel_estimates;       // squared ZW singular values
};

/// `input_samples` is p×N: one column per sampled instant of the p port
/// waveforms (see signal::sample_waveforms).
InputCorrelatedResult input_correlated_tbr(const DescriptorSystem& sys,
                                           const MatD& input_samples,
                                           const InputCorrelatedOptions& opts = {});

}  // namespace pmtbr::mor
