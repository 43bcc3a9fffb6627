#include "lyap/lyapunov.hpp"

#include <cmath>

#include "la/lu.hpp"
#include "la/ops.hpp"

namespace pmtbr::lyap {

using la::index;
using la::MatD;

namespace {

// The sign iteration on A_k, its accumulator multiplied by A_k^{-1} on the
// left and by A_k^{-T} (`transposed_right`, Lyapunov) or A_k^{-1}
// (cross-Gramian) on the right. Returns Q_inf / 2.
MatD sign_iteration(const MatD& a, MatD qk, bool transposed_right) {
  const index n = a.rows();
  MatD ak = a;
  for (int it = 0; it < kSignMaxIterations; ++it) {
    const la::LuD lu(ak);
    // Determinant scaling accelerates the sign iteration dramatically for
    // stiff circuit time constants.
    const double c = std::exp(-lu.log_abs_det() / static_cast<double>(n));
    const MatD ainv = lu.inverse();

    // Q_{k+1} = (c Q_k + A^{-1} Q_k A^{-T} / c) / 2, or A^{-1} on the right.
    const MatD t = transposed_right ? la::matmul(ainv, la::matmul(qk, la::transpose(ainv)))
                                    : la::matmul(ainv, la::matmul(qk, ainv));
    for (index i = 0; i < n; ++i)
      for (index j = 0; j < n; ++j) qk(i, j) = 0.5 * (c * qk(i, j) + t(i, j) / c);

    // A_{k+1} = (c A_k + A_k^{-1} / c) / 2 and convergence check against -I
    // (A is Hurwitz, so sign(A) = -I).
    double delta = 0, scale = 0;
    for (index i = 0; i < n; ++i)
      for (index j = 0; j < n; ++j) {
        const double next = 0.5 * (c * ak(i, j) + ainv(i, j) / c);
        const double target = (i == j) ? -1.0 : 0.0;
        delta += (next - target) * (next - target);
        scale += next * next;
        ak(i, j) = next;
      }
    if (std::sqrt(delta) <= kSignTolerance * std::sqrt(std::max(scale, 1.0))) {
      qk *= 0.5;
      return qk;
    }
  }
  // A direct call, not PMTBR_ENSURE(false, ...): at -O0 GCC does not fold
  // the macro's branch and warns that control reaches the end.
  pmtbr::detail::fail_ensure(
      "false", "sign iteration did not converge (is A Hurwitz-stable?)", __FILE__, __LINE__);
}

}  // namespace

MatD solve_lyapunov(const MatD& a, const MatD& q) {
  PMTBR_REQUIRE(a.rows() == a.cols(), "A must be square");
  PMTBR_REQUIRE(q.rows() == a.rows() && q.cols() == a.cols(), "Q shape mismatch");
  PMTBR_CHECK_FINITE(a, "lyapunov A matrix");
  PMTBR_CHECK_FINITE(q, "lyapunov Q matrix");
  MatD x = sign_iteration(a, q, true);
  // Symmetrize round-off.
  for (index i = 0; i < x.rows(); ++i)
    for (index j = i + 1; j < x.cols(); ++j) {
      const double s = 0.5 * (x(i, j) + x(j, i));
      x(i, j) = s;
      x(j, i) = s;
    }
  return x;
}

MatD controllability_gramian(const MatD& a, const MatD& b) {
  PMTBR_REQUIRE(b.rows() == a.rows(), "B row count must match A");
  return solve_lyapunov(a, la::matmul(b, la::transpose(b)));
}

MatD observability_gramian(const MatD& a, const MatD& c) {
  PMTBR_REQUIRE(c.cols() == a.rows(), "C column count must match A");
  return solve_lyapunov(la::transpose(a), la::matmul(la::transpose(c), c));
}

MatD cross_gramian(const MatD& a, const MatD& b, const MatD& c) {
  PMTBR_REQUIRE(a.rows() == a.cols(), "A must be square");
  PMTBR_REQUIRE(b.rows() == a.rows(), "B row count must match A");
  PMTBR_REQUIRE(c.cols() == a.rows(), "C column count must match A");
  PMTBR_REQUIRE(b.cols() == c.rows(), "cross-Gramian needs #inputs == #outputs");
  const MatD bc = la::matmul(b, c);
  PMTBR_CHECK_FINITE(a, "cross-Gramian A matrix");
  PMTBR_CHECK_FINITE(bc, "cross-Gramian B*C matrix");
  return sign_iteration(a, bc, false);
}

double lyapunov_residual(const MatD& a, const MatD& x, const MatD& q) {
  PMTBR_REQUIRE(a.rows() == a.cols(), "A must be square");
  PMTBR_REQUIRE(x.rows() == a.rows() && x.cols() == a.rows(), "X shape mismatch");
  PMTBR_REQUIRE(q.rows() == a.rows() && q.cols() == a.rows(), "Q shape mismatch");
  const MatD ax = la::matmul(a, x);
  MatD r = ax + la::transpose(ax) + q;
  return la::norm_fro(r);
}

double sylvester_residual(const MatD& a, const MatD& b, const MatD& c, const MatD& x) {
  PMTBR_REQUIRE(a.rows() == a.cols() && b.rows() == b.cols(), "A, B must be square");
  PMTBR_REQUIRE(x.rows() == a.rows() && x.cols() == b.rows(), "X shape mismatch");
  PMTBR_REQUIRE(c.rows() == a.rows() && c.cols() == b.rows(), "C shape mismatch");
  MatD r = la::matmul(a, x) + la::matmul(x, b) + c;
  return la::norm_fro(r);
}

}  // namespace pmtbr::lyap
