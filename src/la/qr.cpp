#include "la/qr.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "la/kernel_clones.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/trace.hpp"

namespace pmtbr::la {

namespace {

// Row-sweep core of a Householder application to the rows×nc block at `a`
// (leading dimension lda): s = beta·(vᵀ·block) accumulated row by row, then
// block ← block − v·s. Row order makes every inner loop a contiguous SIMD
// pass across the columns (the matrices are row-major). Multiversioned
// (la/kernel_clones.hpp) so the sweep runs at native vector width.
PMTBR_KERNEL_CLONES
static void reflector_sweep(index rows, index nc, index lda, double* a, const double* v,
                            double beta, double* s) {
  for (index j = 0; j < nc; ++j) s[j] = 0.0;
  for (index i = 0; i < rows; ++i) {
    const double vi = v[i];
    const double* row = a + i * lda;
    for (index j = 0; j < nc; ++j) s[j] += vi * row[j];
  }
  for (index j = 0; j < nc; ++j) s[j] *= beta;
  for (index i = 0; i < rows; ++i) {
    const double vi = v[i];
    double* row = a + i * lda;
    for (index j = 0; j < nc; ++j) row[j] -= vi * s[j];
  }
}

// Applies a Householder reflector stored in v (v[0..m-j)) to columns [col0, n)
// of the working matrix rows [j0, m). `scratch` must hold n - col0 entries.
void apply_reflector(MatD& a, index j0, index col0, const std::vector<double>& v, double beta,
                     std::vector<double>& scratch) {
  const index nc = a.cols() - col0;
  if (nc <= 0) return;
  reflector_sweep(a.rows() - j0, nc, a.cols(), &a(j0, col0), v.data(), beta, scratch.data());
}

}  // namespace

QrResult qr_pivoted(const MatD& input, double rel_tol) {
  PMTBR_REQUIRE(rel_tol >= 0, "qr_pivoted tolerance must be nonnegative");
  PMTBR_CHECK_FINITE(input, "qr_pivoted input matrix");
  PMTBR_TRACE_SCOPE("la.qr");
  MatD a = input;
  const index m = a.rows(), n = a.cols();
  const index k = std::min(m, n);
  obs::counter_add(obs::Counter::kQrFactorizations);
  // Householder QR: ~2mnk flops for R plus the same again for thin Q.
  obs::counter_add(obs::Counter::kQrFlops,
                   static_cast<std::int64_t>(4.0 * static_cast<double>(m) *
                                             static_cast<double>(n) * static_cast<double>(k)));
  QrResult out;
  out.perm.resize(static_cast<std::size_t>(n));
  std::iota(out.perm.begin(), out.perm.end(), index{0});

  std::vector<double> colnorm2(static_cast<std::size_t>(n), 0.0);
  for (index j = 0; j < n; ++j) {
    double s = 0;
    for (index i = 0; i < m; ++i) s += a(i, j) * a(i, j);
    colnorm2[static_cast<std::size_t>(j)] = s;
  }

  std::vector<std::vector<double>> reflectors;
  std::vector<double> betas;
  reflectors.reserve(static_cast<std::size_t>(k));
  std::vector<double> scratch(static_cast<std::size_t>(n));

  for (index j = 0; j < k; ++j) {
    index p = j;
    double best = colnorm2[static_cast<std::size_t>(j)];
    for (index c = j + 1; c < n; ++c)
      if (colnorm2[static_cast<std::size_t>(c)] > best) {
        best = colnorm2[static_cast<std::size_t>(c)];
        p = c;
      }
    if (p != j) {
      for (index i = 0; i < m; ++i) std::swap(a(i, j), a(i, p));
      std::swap(colnorm2[static_cast<std::size_t>(j)], colnorm2[static_cast<std::size_t>(p)]);
      std::swap(out.perm[static_cast<std::size_t>(j)], out.perm[static_cast<std::size_t>(p)]);
    }

    // Build the Householder vector for column j.
    std::vector<double> v(static_cast<std::size_t>(m - j));
    double xnorm = 0;
    for (index i = j; i < m; ++i) {
      v[static_cast<std::size_t>(i - j)] = a(i, j);
      xnorm += a(i, j) * a(i, j);
    }
    xnorm = std::sqrt(xnorm);
    double beta = 0.0;
    if (xnorm > 0) {
      const double alpha = v[0];
      const double aabs = std::abs(alpha);
      // phase = alpha/|alpha| (or 1 if alpha==0), so R(j, j) = −phase·‖x‖.
      const double phase = aabs > 0 ? alpha * (1.0 / aabs) : 1.0;
      const double vhead = alpha + phase * xnorm;
      v[0] = vhead;
      const double vnorm2 = vhead * vhead + xnorm * xnorm - aabs * aabs;
      if (vnorm2 > 0) {
        beta = 2.0 / vnorm2;
        apply_reflector(a, j, j, v, beta, scratch);
      }
    }
    reflectors.push_back(std::move(v));
    betas.push_back(beta);

    for (index c = j + 1; c < n; ++c) colnorm2[static_cast<std::size_t>(c)] -= a(j, c) * a(j, c);
  }

  out.r = MatD(k, n);
  for (index i = 0; i < k; ++i)
    for (index j = i; j < n; ++j) out.r(i, j) = a(i, j);

  // Accumulate thin Q by applying the reflectors to the first k columns of I.
  MatD q(m, k);
  for (index j = 0; j < k; ++j) q(j, j) = 1.0;
  for (index j = k - 1; j >= 0; --j) {
    if (betas[static_cast<std::size_t>(j)] == 0.0) continue;
    apply_reflector(q, j, 0, reflectors[static_cast<std::size_t>(j)],
                    betas[static_cast<std::size_t>(j)], scratch);
  }
  out.q = std::move(q);

  const double r00 = std::abs(out.r(0, 0));
  for (index i = 0; i < k; ++i)
    if (std::abs(out.r(i, i)) > rel_tol * r00) ++out.rank;
  return out;
}

MatD orth(const MatD& a) {
  auto f = qr_pivoted(a, kOrthRankTol);
  return f.q.columns(0, std::max<index>(f.rank, 1));
}

}  // namespace pmtbr::la
