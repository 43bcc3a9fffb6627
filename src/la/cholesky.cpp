#include "la/cholesky.hpp"

#include <algorithm>
#include <cmath>

namespace pmtbr::la {

namespace {

MatD cholesky_impl(const MatD& a, bool strict, double rel_tol) {
  PMTBR_REQUIRE(a.rows() == a.cols(), "cholesky requires square matrix");
  const index n = a.rows();
  MatD l(n, n);
  double max_diag = 0;
  for (index i = 0; i < n; ++i) max_diag = std::max(max_diag, std::abs(a(i, i)));
  const double floor = rel_tol * std::max(max_diag, 1e-300);

  for (index j = 0; j < n; ++j) {
    double d = a(j, j);
    for (index k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (d <= floor) {
      PMTBR_ENSURE(!strict && d > -std::sqrt(rel_tol) * std::max(max_diag, 1.0),
                   "matrix not positive definite in cholesky");
      // Semidefinite case: treat this direction as absent.
      l(j, j) = 0;
      continue;
    }
    const double ljj = std::sqrt(d);
    l(j, j) = ljj;
    for (index i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (index k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / ljj;
    }
  }
  return l;
}

}  // namespace

MatD cholesky(const MatD& a) {
  PMTBR_CHECK_FINITE(a, "cholesky input matrix");
  return cholesky_impl(a, /*strict=*/true, 1e-300);
}

MatD cholesky_psd(const MatD& a) {
  PMTBR_CHECK_FINITE(a, "cholesky_psd input matrix");
  return cholesky_impl(a, /*strict=*/false, kCholeskyPsdTol);
}

}  // namespace pmtbr::la
