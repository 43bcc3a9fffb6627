#include "mor/cross_gramian.hpp"

#include <cmath>

#include "la/ops.hpp"
#include "la/qr.hpp"
#include "la/schur.hpp"
#include "mor/pmtbr.hpp"

namespace pmtbr::mor {

namespace {

// Realification for the *bilinear* (not sesquilinear) sampled cross-Gramian:
// the ±ω pair contributes 2 Re(z^R (z^L)^T) = Re(z^R) Re(z^L)^T - Im(z^R) Im(z^L)^T,
// so the imaginary columns on the L side carry a minus sign.
MatD realify_bilinear(const la::MatC& z, bool negate_imag) {
  MatD out(z.rows(), 2 * z.cols());
  const double flip = negate_imag ? -1.0 : 1.0;
  for (index i = 0; i < z.rows(); ++i)
    for (index j = 0; j < z.cols(); ++j) {
      out(i, 2 * j) = z(i, j).real();
      out(i, 2 * j + 1) = flip * z(i, j).imag();
    }
  return out;
}

// Real orthonormal basis spanning the invariant subspace of the first q
// (complex) eigenvector columns.
MatD realify_eigvecs(const la::MatC& vecs, index q) {
  MatD stacked(vecs.rows(), 2 * q);
  for (index j = 0; j < q; ++j)
    for (index i = 0; i < vecs.rows(); ++i) {
      stacked(i, 2 * j) = vecs(i, j).real();
      stacked(i, 2 * j + 1) = vecs(i, j).imag();
    }
  auto f = la::qr_pivoted(stacked, 1e-10);
  const index keep = std::min<index>(std::max<index>(f.rank, 1), q);
  return f.q.columns(0, keep);
}

}  // namespace

CrossGramianResult cross_gramian_pmtbr(const DescriptorSystem& sys,
                                       const CrossGramianOptions& opts) {
  PMTBR_REQUIRE(sys.num_inputs() == sys.num_outputs(),
                "cross-Gramian requires #inputs == #outputs");
  PMTBR_REQUIRE(!opts.bands.empty(), "cross-Gramian needs at least one frequency band");
  PMTBR_REQUIRE(opts.num_samples >= 1, "cross-Gramian needs at least one sample");
  PMTBR_REQUIRE(opts.truncation_tol >= 0, "truncation_tol must be nonnegative");
  const auto samples = sample_bands(opts.bands, opts.num_samples, opts.scheme);

  // Collect weighted controllability- and observability-side sample blocks.
  MatD zr(sys.n(), 0), zl(sys.n(), 0);
  const la::MatC bc = la::to_complex(sys.b());
  const la::MatC ct = la::to_complex(la::transpose(sys.c()));
  for (const auto& fs : samples) {
    const double scale = sample_scale(fs);
    // One factor per sample serves both sides.
    const sparse::SparseLuC lu = sys.factor_shifted(fs.s);
    la::MatC r = lu.solve(bc);
    la::MatC l = lu.solve_transpose(ct);
    MatD rb = realify_bilinear(r, false);
    MatD lb = realify_bilinear(l, true);
    rb *= scale;
    lb *= scale;
    zr = la::hcat(zr, rb);
    zl = la::hcat(zl, lb);
  }

  // Joint orthonormal basis Q of [Z^R | Z^L]; compress the eigenproblem.
  const MatD q = la::orth(la::hcat(zr, zl));
  const MatD rr = la::matmul_at(q, zr);
  const MatD rl = la::matmul_at(q, zl);
  const MatD m = la::matmul(rr, la::transpose(rl));  // k×k, nonsymmetric

  const la::EigResult er = la::eig(m);   // sorted by descending |λ|
  const la::EigResult el = la::eig(la::transpose(m));

  CrossGramianResult out;
  out.eigenvalue_estimates = er.values;

  index order;
  if (opts.fixed_order > 0) {
    order = std::min<index>(opts.fixed_order, m.rows());
  } else {
    const double l1 = std::abs(er.values.empty() ? la::cd{0} : er.values.front());
    double tail = 0;
    for (const auto& v : er.values) tail += std::abs(v);
    order = 0;
    while (order < m.rows() && tail > opts.truncation_tol * std::max(l1, 1e-300)) {
      tail -= std::abs(er.values[static_cast<std::size_t>(order)]);
      ++order;
    }
    order = std::max<index>(order, 1);
  }
  if (opts.max_order > 0) order = std::min(order, opts.max_order);

  MatD xr = realify_eigvecs(er.vectors, order);
  MatD yl = realify_eigvecs(el.vectors, order);
  // Conjugate-pair deduplication can leave the two sides with slightly
  // different column counts; a Petrov–Galerkin projection needs them equal.
  const index common = std::min(xr.cols(), yl.cols());
  xr = xr.columns(0, common);
  yl = yl.columns(0, common);
  const MatD v = la::matmul(q, xr);
  const MatD w = la::matmul(q, yl);

  out.model.v = v;
  out.model.w = w;
  out.model.system = project(sys, v, w);
  for (const auto& lam : er.values) out.model.singular_values.push_back(std::abs(lam));
  return out;
}

}  // namespace pmtbr::mor
