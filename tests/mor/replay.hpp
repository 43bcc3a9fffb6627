// PMTBR with adaptive stopping through public calls only, querying the
// compressor after every sample past min_samples, as a benchmark replay
// that times each layer does. Queries are pure, so mor::pmtbr, which folds
// only when its bound cannot decide, must stop at the same sample and
// return the same bits (same_reduction.hpp's expect_same_model).
#pragma once

#include <cmath>
#include <vector>

#include "la/ops.hpp"
#include "mor/compressor.hpp"
#include "mor/pmtbr.hpp"
#include "mor/sampling.hpp"

namespace pmtbr::testing {

using mor::FrequencySample;
using mor::PmtbrOptions;
using mor::PmtbrResult;

struct Replayed {
  PmtbrResult result;
  // Checks past min_samples at which tail_order_lower_bound, fed as
  // mor::pmtbr feeds it, could not rule out a stop: the checks that fold.
  la::index exact_checks = 0;
};

// No sample may fail: the replay has no degradation ladder.
inline Replayed replay_every_sample(const DescriptorSystem& sys, const PmtbrOptions& opts) {
  Replayed out;
  mor::IncrementalCompressor comp(sys.n());
  std::vector<double> sigma;
  double added_sq = 0.0;
  for (const FrequencySample& fs :
       mor::sample_bands(opts.bands, opts.num_samples, opts.scheme)) {
    const la::MatD block =
        mor::weighted_sample(sys.solve_shifted(fs.s, la::to_complex(sys.b())), fs);
    comp.add_columns(block);
    out.result.samples_used.push_back(fs);
    const double norm = la::norm_fro(block);
    added_sq += norm * norm;
    const auto used = static_cast<double>(out.result.samples_used.size());
    if (used < static_cast<double>(opts.min_samples)) continue;
    const auto est = static_cast<double>(comp.order_for_tolerance(opts.truncation_tol));
    const auto bound =
        static_cast<double>(mor::tail_order_lower_bound(sigma, added_sq, opts.truncation_tol));
    if (used >= opts.adaptive_excess * bound) {
      ++out.exact_checks;
      sigma = comp.singular_values();
      added_sq = 0.0;
    }
    if (used >= opts.adaptive_excess * est) break;
  }
  mor::SampledProjection p =
      mor::project_sampled(sys, comp, opts.fixed_order, opts.truncation_tol, opts.max_order);
  out.result.model = std::move(p.model);
  out.result.hankel_estimates = std::move(p.hankel_estimates);
  return out;
}

}  // namespace pmtbr::testing
