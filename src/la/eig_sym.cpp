#include "la/eig_sym.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace pmtbr::la {

EigSymResult eig_sym(const MatD& a_in) {
  PMTBR_REQUIRE(a_in.rows() == a_in.cols(), "eig_sym requires square matrix");
  PMTBR_CHECK_FINITE(a_in, "eig_sym input matrix");
  const index n = a_in.rows();
  MatD a(n, n);
  for (index i = 0; i < n; ++i)
    for (index j = 0; j < n; ++j) a(i, j) = 0.5 * (a_in(i, j) + a_in(j, i));
  MatD v = MatD::identity(n);

  const double eps = std::numeric_limits<double>::epsilon();
  constexpr int kMaxSweeps = 100;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double off = 0;
    for (index i = 0; i < n; ++i)
      for (index j = i + 1; j < n; ++j) off += a(i, j) * a(i, j);
    double diag = 0;
    for (index i = 0; i < n; ++i) diag += a(i, i) * a(i, i);
    if (off <= eps * eps * std::max(diag, 1e-300)) break;

    for (index p = 0; p < n - 1; ++p) {
      for (index q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (apq == 0.0) continue;
        const double app = a(p, p), aqq = a(q, q);
        if (std::abs(apq) <= eps * (std::abs(app) + std::abs(aqq))) continue;
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0 ? 1.0 : -1.0) / (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        // Update A = J^T A J over rows/columns p, q.
        for (index k = 0; k < n; ++k) {
          const double akp = a(k, p), akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (index k = 0; k < n; ++k) {
          const double apk = a(p, k), aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (index k = 0; k < n; ++k) {
          const double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), index{0});
  std::sort(order.begin(), order.end(), [&](index i, index j) { return a(i, i) > a(j, j); });

  EigSymResult out;
  out.values.resize(static_cast<std::size_t>(n));
  out.vectors = MatD(n, n);
  for (index j = 0; j < n; ++j) {
    const index src = order[static_cast<std::size_t>(j)];
    out.values[static_cast<std::size_t>(j)] = a(src, src);
    for (index i = 0; i < n; ++i) out.vectors(i, j) = v(i, src);
  }
  return out;
}

MatD psd_factor(const MatD& a) {
  const auto eig = eig_sym(a);
  const index n = a.rows();
  const double lmax = eig.values.empty() ? 0.0 : std::max(eig.values.front(), 0.0);
  index r = 0;
  for (index j = 0; j < n; ++j)
    if (eig.values[static_cast<std::size_t>(j)] > kPsdFactorTol * std::max(lmax, 1e-300)) ++r;
  r = std::max<index>(r, 1);
  MatD l(n, r);
  for (index j = 0; j < r; ++j) {
    const double w = std::sqrt(std::max(eig.values[static_cast<std::size_t>(j)], 0.0));
    for (index i = 0; i < n; ++i) l(i, j) = eig.vectors(i, j) * w;
  }
  return l;
}

}  // namespace pmtbr::la
