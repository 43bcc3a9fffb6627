#include "mor/pvl.hpp"

#include <cmath>

#include "la/ops.hpp"
#include "util/logging.hpp"

namespace pmtbr::mor {

// Derivation: with K = (s0 E - A)^{-1} E and r = (s0 E - A)^{-1} b,
//   H(s) = c^T (I + (s - s0) K)^{-1} r.
// Two-sided Lanczos builds V spanning K_q(K, r) and W spanning K_q(K^T, c)
// with W^T V = D (diagonal). The oblique projection
//   H_q(s) = (c^T V) (D + (s - s0) W^T K V)^{-1} (W^T r)
// matches 2q moments about s0; in descriptor form
//   E_r = W^T K V,  A_r = s0 E_r - D,  B_r = W^T r = beta1*delta1*e1,
//   C_r = c^T V.
PvlResult pvl(const DescriptorSystem& sys, const PvlOptions& opts) {
  PMTBR_REQUIRE(sys.num_inputs() == 1 && sys.num_outputs() == 1, "pvl handles SISO systems");
  PMTBR_REQUIRE(sys.n() > 0, "pvl needs a nonempty system");
  PMTBR_REQUIRE(opts.order >= 1, "order must be positive");
  PMTBR_CHECK_FINITE(sys.b(), "pvl input matrix B");
  PMTBR_CHECK_FINITE(sys.c(), "pvl output matrix C");
  const index n = sys.n();

  const auto lu = sys.factor_real(opts.s0, -1.0);

  const auto dotv = [n](const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0;
    for (index i = 0; i < n; ++i)
      s += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
    return s;
  };

  // Start vectors: v1 ∝ r, w1 ∝ c^T.
  std::vector<double> v = lu.solve(sys.b().col(0));
  std::vector<double> w(static_cast<std::size_t>(n));
  for (index i = 0; i < n; ++i) w[static_cast<std::size_t>(i)] = sys.c()(0, i);
  const double beta1 = la::norm2(v);
  const double wnorm = la::norm2(w);
  PMTBR_ENSURE(beta1 > 0 && wnorm > 0, "zero start vector in PVL");
  for (auto& x : v) x /= beta1;
  for (auto& x : w) x /= wnorm;

  std::vector<std::vector<double>> vs{v}, ws{w};
  std::vector<std::vector<double>> kvs;  // K v_k, pre-orthogonalization
  std::vector<double> deltas;

  // Two-sided Lanczos with full rebiorthogonalization (robust at library
  // scale; exact-arithmetic T is tridiagonal, we form it exactly below).
  while (static_cast<index>(vs.size()) <= opts.order) {
    const std::size_t k = vs.size() - 1;
    const double delta = dotv(ws[k], vs[k]);
    if (std::abs(delta) < kPvlBreakdownTol) {
      log_debug("pvl: serious breakdown at step ", k);
      vs.pop_back();
      ws.pop_back();
      break;
    }
    deltas.push_back(delta);

    std::vector<double> kv = lu.solve(sys.e().matvec(vs[k]));
    kvs.push_back(kv);
    if (static_cast<index>(vs.size()) == opts.order) break;  // basis complete

    std::vector<double> kw = sys.e().matvec_transpose(lu.solve_transpose(ws[k]));
    for (std::size_t j = 0; j < vs.size(); ++j) {
      const double dj = deltas[j];
      const double a = dotv(ws[j], kv) / dj;
      const double b = dotv(vs[j], kw) / dj;
      for (index i = 0; i < n; ++i) {
        kv[static_cast<std::size_t>(i)] -= a * vs[j][static_cast<std::size_t>(i)];
        kw[static_cast<std::size_t>(i)] -= b * ws[j][static_cast<std::size_t>(i)];
      }
    }
    const double nv = la::norm2(kv);
    const double nw = la::norm2(kw);
    if (nv < kPvlBreakdownTol || nw < kPvlBreakdownTol) {
      log_debug("pvl: Krylov space exhausted after ", vs.size(), " steps");
      break;
    }
    for (auto& x : kv) x /= nv;
    for (auto& x : kw) x /= nw;
    vs.push_back(std::move(kv));
    ws.push_back(std::move(kw));
  }

  const index q = static_cast<index>(vs.size());
  PMTBR_ENSURE(q >= 1, "PVL broke down before producing a model");

  // T = W^T K V (exactly, from the saved K v_j), D = diag(deltas).
  MatD t(q, q);
  for (index i = 0; i < q; ++i)
    for (index j = 0; j < q; ++j)
      t(i, j) = dotv(ws[static_cast<std::size_t>(i)], kvs[static_cast<std::size_t>(j)]);

  MatD er = t;
  MatD ar(q, q);
  for (index i = 0; i < q; ++i)
    for (index j = 0; j < q; ++j)
      ar(i, j) = opts.s0 * t(i, j) - (i == j ? deltas[static_cast<std::size_t>(i)] : 0.0);
  MatD br(q, 1);
  br(0, 0) = beta1 * deltas[0];
  MatD cr(1, q);
  for (index j = 0; j < q; ++j) {
    double acc = 0;
    for (index i = 0; i < n; ++i)
      acc += sys.c()(0, i) * vs[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
    cr(0, j) = acc;
  }

  PvlResult out;
  out.steps_completed = q;
  MatD vmat(n, q), wmat(n, q);
  for (index j = 0; j < q; ++j) {
    vmat.set_col(j, vs[static_cast<std::size_t>(j)]);
    wmat.set_col(j, ws[static_cast<std::size_t>(j)]);
  }
  out.model.v = std::move(vmat);
  out.model.w = std::move(wmat);
  out.model.system = DenseSystem(std::move(er), std::move(ar), std::move(br), std::move(cr));
  return out;
}

}  // namespace pmtbr::mor
