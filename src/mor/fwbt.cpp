#include "mor/fwbt.hpp"

#include <cmath>
#include <complex>
#include <numbers>

#include "la/ops.hpp"
#include "lyap/lyapunov.hpp"
#include "mor/tbr.hpp"
#include "util/logging.hpp"

namespace pmtbr::mor {

namespace {

// Controllability Gramian block of the cascade u -> W_i -> G:
//   d/dt [x; xw] = [[A, B Cw], [0, Aw]] [x; xw] + [B Dw; Bw] u.
MatD weighted_controllability(const MatD& a, const MatD& b, const DenseSystem& w) {
  const index n = a.rows(), nw = w.n();
  MatD a_aug(n + nw, n + nw);
  for (index i = 0; i < n; ++i)
    for (index j = 0; j < n; ++j) a_aug(i, j) = a(i, j);
  const MatD bcw = la::matmul(b, w.c());
  for (index i = 0; i < n; ++i)
    for (index j = 0; j < nw; ++j) a_aug(i, n + j) = bcw(i, j);
  for (index i = 0; i < nw; ++i)
    for (index j = 0; j < nw; ++j) a_aug(n + i, n + j) = w.a()(i, j);

  MatD b_aug(n + nw, w.num_inputs());
  // D of the Butterworth weights is zero; support general D anyway.
  for (index i = 0; i < nw; ++i)
    for (index j = 0; j < w.num_inputs(); ++j) b_aug(n + i, j) = w.b()(i, j);

  const MatD p_aug = lyap::controllability_gramian(a_aug, b_aug);
  MatD p(n, n);
  for (index i = 0; i < n; ++i)
    for (index j = 0; j < n; ++j) p(i, j) = p_aug(i, j);
  return p;
}

// Observability Gramian block of the cascade G -> W_o:
//   states [x; xo], d/dt xo = Ao xo + Bo C x, z = Do C x + Co xo.
MatD weighted_observability(const MatD& a, const MatD& c, const DenseSystem& w) {
  const index n = a.rows(), nw = w.n();
  MatD a_aug(n + nw, n + nw);
  for (index i = 0; i < n; ++i)
    for (index j = 0; j < n; ++j) a_aug(i, j) = a(i, j);
  const MatD boc = la::matmul(w.b(), c);
  for (index i = 0; i < nw; ++i)
    for (index j = 0; j < n; ++j) a_aug(n + i, j) = boc(i, j);
  for (index i = 0; i < nw; ++i)
    for (index j = 0; j < nw; ++j) a_aug(n + i, n + j) = w.a()(i, j);

  MatD c_aug(w.num_outputs(), n + nw);
  for (index i = 0; i < w.num_outputs(); ++i)
    for (index j = 0; j < nw; ++j) c_aug(i, n + j) = w.c()(i, j);

  const MatD q_aug = lyap::observability_gramian(a_aug, c_aug);
  MatD q(n, n);
  for (index i = 0; i < n; ++i)
    for (index j = 0; j < n; ++j) q(i, j) = q_aug(i, j);
  return q;
}

}  // namespace

FwbtResult fwbt(const DescriptorSystem& sys, const std::optional<DenseSystem>& input_weight,
                const std::optional<DenseSystem>& output_weight, const FwbtOptions& opts) {
  PMTBR_REQUIRE(sys.n() > 0, "fwbt needs a nonempty system");
  PMTBR_REQUIRE(opts.error_tol >= 0, "error_tol must be nonnegative");
  const DenseStandard d = to_dense_standard(sys);
  PMTBR_CHECK_FINITE(d.a, "fwbt standard-form A");
  PMTBR_CHECK_FINITE(d.b, "fwbt standard-form B");
  PMTBR_CHECK_FINITE(d.c, "fwbt standard-form C");

  if (input_weight) {
    PMTBR_REQUIRE(input_weight->num_outputs() == sys.num_inputs(),
                  "input weight outputs must match plant inputs");
    PMTBR_REQUIRE(la::max_abs_diff(input_weight->e(), MatD::identity(input_weight->n())) == 0.0,
                  "weights must be in standard form (E = I)");
  }
  if (output_weight) {
    PMTBR_REQUIRE(output_weight->num_inputs() == sys.num_outputs(),
                  "output weight inputs must match plant outputs");
    PMTBR_REQUIRE(la::max_abs_diff(output_weight->e(), MatD::identity(output_weight->n())) == 0.0,
                  "weights must be in standard form (E = I)");
  }

  const MatD p = input_weight ? weighted_controllability(d.a, d.b, *input_weight)
                              : lyap::controllability_gramian(d.a, d.b);
  const MatD q = output_weight ? weighted_observability(d.a, d.c, *output_weight)
                               : lyap::observability_gramian(d.a, d.c);

  FwbtResult out;
  out.model = balanced_truncation(d, p, q, opts.fixed_order, opts.error_tol);
  out.weighted_hsv = out.model.singular_values;
  if (!out.model.system.is_stable())
    log_warn("fwbt: reduced model is unstable (Enns' method carries no stability guarantee)");
  return out;
}

DenseSystem butterworth_lowpass(index order, double f_cutoff_hz, index channels) {
  PMTBR_REQUIRE(order >= 1 && order <= 10, "filter order must be in [1, 10]");
  PMTBR_REQUIRE(f_cutoff_hz > 0 && channels >= 1, "need positive cutoff and channels");
  const double wc = 2.0 * std::numbers::pi * f_cutoff_hz;

  // Normalized prototype (cutoff 1 rad/s): coefficients stay O(1), which
  // keeps the companion matrix well-conditioned at any order. The physical
  // filter is recovered by the scaling A = wc A', B = wc B', C = C'.
  std::vector<std::complex<double>> coeff{1.0};
  for (index k = 1; k <= order; ++k) {
    const double theta =
        std::numbers::pi * (2.0 * static_cast<double>(k) + static_cast<double>(order) - 1.0) /
        (2.0 * static_cast<double>(order));
    const std::complex<double> pk(std::cos(theta), std::sin(theta));
    std::vector<std::complex<double>> next(coeff.size() + 1, 0.0);
    for (std::size_t i = 0; i < coeff.size(); ++i) {
      next[i + 1] += coeff[i];        // s * coeff
      next[i] -= pk * coeff[i];       // -p_k * coeff
    }
    coeff = std::move(next);
  }
  // coeff[i] multiplies s^i; coeff[order] == 1; imaginary parts cancel.
  std::vector<double> den(static_cast<std::size_t>(order) + 1);
  for (std::size_t i = 0; i < coeff.size(); ++i) den[i] = coeff[i].real();

  // Controllable canonical form per channel, frequency-scaled by wc.
  const index n = order * channels;
  MatD a(n, n), b(n, channels), c(channels, n);
  for (index ch = 0; ch < channels; ++ch) {
    const index off = ch * order;
    for (index i = 0; i + 1 < order; ++i) a(off + i, off + i + 1) = wc;
    for (index j = 0; j < order; ++j)
      a(off + order - 1, off + j) = -wc * den[static_cast<std::size_t>(j)];
    b(off + order - 1, ch) = wc;
    c(ch, off) = den[0];  // dc gain 1 (den[0] == 1 for Butterworth)
  }
  return DenseSystem::standard(std::move(a), std::move(b), std::move(c));
}

}  // namespace pmtbr::mor
