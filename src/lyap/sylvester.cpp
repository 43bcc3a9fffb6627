#include "lyap/sylvester.hpp"

#include <cmath>

#include "la/lu.hpp"
#include "la/ops.hpp"
#include "lyap/lyapunov.hpp"

namespace pmtbr::lyap {

using la::index;
using la::MatD;

MatD solve_sylvester(const MatD& a, const MatD& b, const MatD& c) {
  PMTBR_REQUIRE(a.rows() == a.cols() && b.rows() == b.cols(), "A, B must be square");
  PMTBR_REQUIRE(c.rows() == a.rows() && c.cols() == b.rows(), "C shape mismatch");
  PMTBR_CHECK_FINITE(a, "sylvester A matrix");
  PMTBR_CHECK_FINITE(b, "sylvester B matrix");
  PMTBR_CHECK_FINITE(c, "sylvester C matrix");
  const index n = a.rows(), m = b.rows();

  // Sign iteration on Z = [[A, C], [0, -B]]; sign(Z) = [[-I, 2X], [0, I]].
  MatD ak = a, bk = b, ck = c;
  for (int it = 0; it < kSignMaxIterations; ++it) {
    const la::LuD lua(ak);
    const la::LuD lub(bk);
    const double s = std::exp(-(lua.log_abs_det() + lub.log_abs_det()) /
                              static_cast<double>(n + m));
    const MatD ainv = lua.inverse();
    const MatD binv = lub.inverse();

    const MatD t = la::matmul(ainv, la::matmul(ck, binv));
    for (index i = 0; i < n; ++i)
      for (index j = 0; j < m; ++j) ck(i, j) = 0.5 * (s * ck(i, j) + t(i, j) / s);

    double delta = 0, scale = 0;
    for (index i = 0; i < n; ++i)
      for (index j = 0; j < n; ++j) {
        const double next = 0.5 * (s * ak(i, j) + ainv(i, j) / s);
        const double target = (i == j) ? -1.0 : 0.0;
        delta += (next - target) * (next - target);
        scale += next * next;
        ak(i, j) = next;
      }
    for (index i = 0; i < m; ++i)
      for (index j = 0; j < m; ++j) {
        const double next = 0.5 * (s * bk(i, j) + binv(i, j) / s);
        const double target = (i == j) ? -1.0 : 0.0;
        delta += (next - target) * (next - target);
        scale += next * next;
        bk(i, j) = next;
      }
    if (std::sqrt(delta) <= kSignTolerance * std::sqrt(std::max(scale, 1.0))) {
      MatD x = ck;
      x *= 0.5;
      return x;
    }
  }
  // A direct call, not PMTBR_ENSURE(false, ...): at -O0 GCC does not fold
  // the macro's branch and warns that control reaches the end.
  pmtbr::detail::fail_ensure("false", "Sylvester sign iteration did not converge", __FILE__,
                             __LINE__);
}

MatD cross_gramian(const MatD& a, const MatD& b, const MatD& c) {
  PMTBR_REQUIRE(b.cols() == c.rows(), "cross-Gramian needs #inputs == #outputs");
  return solve_sylvester(a, a, la::matmul(b, c));
}

double sylvester_residual(const MatD& a, const MatD& b, const MatD& c, const MatD& x) {
  PMTBR_REQUIRE(a.rows() == a.cols() && b.rows() == b.cols(), "A, B must be square");
  PMTBR_REQUIRE(x.rows() == a.rows() && x.cols() == b.rows(), "X shape mismatch");
  PMTBR_REQUIRE(c.rows() == a.rows() && c.cols() == b.rows(), "C shape mismatch");
  MatD r = la::matmul(a, x) + la::matmul(x, b) + c;
  return la::norm_fro(r);
}

}  // namespace pmtbr::lyap
