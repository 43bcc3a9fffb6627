#include "mor/tbr.hpp"

#include <algorithm>
#include <cmath>

#include "la/eig_sym.hpp"
#include "la/ops.hpp"
#include "la/svd.hpp"
#include "lyap/lyapunov.hpp"
#include "util/logging.hpp"

namespace pmtbr::mor {

namespace {

// Wᵀ·A·V, Wᵀ·B, C·V in the standard-form coordinates, where the balancing
// bases satisfy Wᵀ·V = I.
DenseSystem project_standard(const DenseStandard& d, const MatD& v, const MatD& w) {
  MatD ar = la::matmul_at(w, la::matmul(d.a, v));
  MatD br = la::matmul_at(w, d.b);
  MatD cr = la::matmul(d.c, v);
  return DenseSystem::standard(std::move(ar), std::move(br), std::move(cr));
}

}  // namespace

ReducedModel balanced_truncation(const DenseStandard& d, const MatD& x, const MatD& y,
                                 index fixed_order, double error_tol) {
  const index n = d.a.rows();
  PMTBR_REQUIRE(d.a.cols() == n && d.b.rows() == n && d.c.cols() == n,
                "standard-form A, B, C shapes must agree");
  PMTBR_REQUIRE(x.rows() == n && x.cols() == n && y.rows() == n && y.cols() == n,
                "both Gramians must be n-by-n");
  const MatD lx = la::psd_factor(x);
  const MatD ly = la::psd_factor(y);

  // Ly^T Lx = U Σ V^T; Σ are the Hankel singular values.
  const la::SvdResult f = la::svd(la::matmul_at(ly, lx));

  // The balancing transform needs σ^{-1/2}: cap the order where σ becomes
  // numerically zero relative to σ1.
  const double s1 = f.s.empty() ? 0.0 : f.s.front();
  index max_usable = 0;
  for (const double s : f.s)
    if (s > 1e-13 * s1) ++max_usable;
  max_usable = std::max<index>(max_usable, 1);

  index order;
  if (fixed_order > 0) {
    order = std::min<index>(fixed_order, max_usable);
    if (order < fixed_order)
      log_warn("balanced truncation: requested order ", fixed_order, " capped to ", order,
               " by numerically zero Hankel singular values");
  } else {
    double total = 0;
    for (const double s : f.s) total += s;
    double tail = total;
    order = 0;
    while (order < max_usable && tail > error_tol * total) {
      tail -= f.s[static_cast<std::size_t>(order)];
      ++order;
    }
    order = std::max<index>(order, 1);
  }

  MatD v(n, order), w(n, order);
  for (index j = 0; j < order; ++j) {
    const double is = 1.0 / std::sqrt(f.s[static_cast<std::size_t>(j)]);
    for (index i = 0; i < n; ++i) {
      double accv = 0, accw = 0;
      for (index l = 0; l < lx.cols(); ++l) accv += lx(i, l) * f.v(l, j);
      for (index l = 0; l < ly.cols(); ++l) accw += ly(i, l) * f.u(l, j);
      v(i, j) = accv * is;
      w(i, j) = accw * is;
    }
  }

  ReducedModel out;
  out.system = project_standard(d, v, w);
  out.v = std::move(v);
  out.w = std::move(w);
  out.singular_values = f.s;
  return out;
}

TbrResult tbr(const DescriptorSystem& sys, const TbrOptions& opts) {
  PMTBR_REQUIRE(opts.error_tol >= 0, "error_tol must be nonnegative");
  const DenseStandard d = to_dense_standard(sys);
  const MatD x = lyap::controllability_gramian(d.a, d.b);
  const MatD y = lyap::observability_gramian(d.a, d.c);
  TbrResult out;
  out.model = balanced_truncation(d, x, y, opts.fixed_order, opts.error_tol);
  out.hsv = out.model.singular_values;
  out.error_bound = tbr_error_bound(out.hsv, out.model.v.cols());
  return out;
}

TbrResult tbr_truncate(const DescriptorSystem& sys, const TbrResult& full, index order) {
  PMTBR_REQUIRE(order >= 1 && order <= full.model.v.cols(),
                "truncation order must be in [1, order of the given result]");
  TbrResult out;
  out.hsv = full.hsv;
  out.model.v = full.model.v.columns(0, order);
  out.model.w = full.model.w.columns(0, order);
  out.model.singular_values = full.model.singular_values;
  out.model.system = project_standard(to_dense_standard(sys), out.model.v, out.model.w);
  out.error_bound = tbr_error_bound(full.hsv, order);
  return out;
}

std::vector<double> hankel_singular_values(const DescriptorSystem& sys) {
  const DenseStandard d = to_dense_standard(sys);
  const MatD x = lyap::controllability_gramian(d.a, d.b);
  const MatD y = lyap::observability_gramian(d.a, d.c);
  const MatD lx = la::psd_factor(x);
  const MatD ly = la::psd_factor(y);
  auto s = la::singular_values(la::matmul_at(ly, lx));
  const std::size_t n = static_cast<std::size_t>(sys.n());
  if (s.size() < n) s.resize(n, 0.0);  // rank-deficient factors: pad with zeros
  return s;
}

double tbr_error_bound(const std::vector<double>& hsv, index order) {
  PMTBR_REQUIRE(order >= 0, "order must be nonnegative");
  double bound = 0;
  for (std::size_t i = static_cast<std::size_t>(order); i < hsv.size(); ++i)
    bound += hsv[i];
  return 2.0 * bound;
}

}  // namespace pmtbr::mor
