#include "mor/input_correlated.hpp"

#include <cmath>

#include "la/ops.hpp"
#include "la/svd.hpp"
#include "mor/pmtbr.hpp"
#include "util/rng.hpp"

namespace pmtbr::mor {

InputCorrelatedResult input_correlated_tbr(const DescriptorSystem& sys, const MatD& input_samples,
                                           const InputCorrelatedOptions& opts) {
  PMTBR_REQUIRE(input_samples.rows() == sys.num_inputs(),
                "input sample rows must equal the port count");
  PMTBR_REQUIRE(input_samples.cols() >= 1, "need at least one input sample");
  PMTBR_REQUIRE(opts.draws_per_frequency >= 0, "draws_per_frequency must be nonnegative");
  PMTBR_REQUIRE(opts.truncation_tol >= 0, "truncation_tol must be nonnegative");

  // Step 1: SVD of the waveform sample matrix; K = U U^T / N = V_K (S_K^2/N) V_K^T.
  const la::SvdResult f = la::svd(input_samples);
  const double nsamp = static_cast<double>(input_samples.cols());

  InputCorrelatedResult out;
  out.input_singular_values = f.s;
  index r = 0;
  const double s1 = f.s.empty() ? 0.0 : f.s.front();
  for (const double s : f.s)
    if (s > kInputRankTol * s1) ++r;
  r = std::max<index>(r, 1);
  out.input_rank = r;

  // Scaled direction matrix D = V_K diag(S_K)/sqrt(N): E[D g (D g)^T] = K.
  MatD dir(input_samples.rows(), r);
  for (index j = 0; j < r; ++j) {
    const double scale = f.s[static_cast<std::size_t>(j)] / std::sqrt(nsamp);
    for (index i = 0; i < input_samples.rows(); ++i) dir(i, j) = f.u(i, j) * scale;
  }
  const MatD bdir = la::matmul(sys.b(), dir);  // n×r

  const auto freq = sample_bands(opts.bands, opts.num_freq_samples, opts.scheme);
  IncrementalCompressor comp(sys.n());
  Rng rng(opts.seed);

  for (const auto& fs : freq) {
    la::MatC rhs;
    if (opts.draws_per_frequency > 0) {
      // Algorithm 3: random draws r ~ N(0, I) in the scaled direction space.
      MatD draws(r, opts.draws_per_frequency);
      for (index j = 0; j < opts.draws_per_frequency; ++j)
        for (index i = 0; i < r; ++i) draws(i, j) = rng.normal();
      rhs = la::to_complex(la::matmul(bdir, draws));
    } else {
      // Deterministic blocked variant: all scaled directions at once.
      rhs = la::to_complex(bdir);
    }
    comp.add_columns(weighted_sample(sys.solve_shifted(fs.s, rhs), fs));
  }

  comp.settle();
  SampledProjection p =
      project_sampled(sys, comp, opts.fixed_order, opts.truncation_tol, opts.max_order);
  out.model = std::move(p.model);
  out.hankel_estimates = std::move(p.hankel_estimates);
  return out;
}

}  // namespace pmtbr::mor
