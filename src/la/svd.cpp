#include "la/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "la/aligned.hpp"
#include "la/kernel_clones.hpp"
#include "la/ops.hpp"
#include "la/row_dot.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/trace.hpp"

namespace pmtbr::la {

namespace {

constexpr int kMaxSweeps = 60;

// One-sided Jacobi on a tall (m >= n) matrix g; v accumulates the right
// rotations when non-null.
void jacobi_onesided(MatD& g, MatD* v) {
  const index m = g.rows(), n = g.cols();
  const double eps = std::numeric_limits<double>::epsilon();

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    obs::counter_add(obs::Counter::kSvdSweeps);
    // Each of the n(n-1)/2 column pairs costs ~6m flops (Gram + rotation).
    obs::counter_add(obs::Counter::kSvdFlops,
                     static_cast<std::int64_t>(3.0 * static_cast<double>(m) *
                                               static_cast<double>(n) *
                                               static_cast<double>(n - 1)));
    bool rotated = false;
    for (index p = 0; p < n - 1; ++p) {
      for (index q = p + 1; q < n; ++q) {
        // Gram entries of the (p,q) column pair.
        double app = 0, aqq = 0, apq = 0;
        for (index i = 0; i < m; ++i) {
          const double gp = g(i, p), gq = g(i, q);
          app += gp * gp;
          aqq += gq * gq;
          apq += gp * gq;
        }
        if (std::abs(apq) <= eps * std::sqrt(app * aqq) || apq == 0.0) continue;
        rotated = true;
        // Classic Jacobi rotation annihilating the off-diagonal Gram entry.
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0 ? 1.0 : -1.0) / (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (index i = 0; i < m; ++i) {
          const double gp = g(i, p), gq = g(i, q);
          g(i, p) = c * gp - s * gq;
          g(i, q) = s * gp + c * gq;
        }
        if (v) {
          for (index i = 0; i < n; ++i) {
            const double vp = (*v)(i, p), vq = (*v)(i, q);
            (*v)(i, p) = c * vp - s * vq;
            (*v)(i, q) = s * vp + c * vq;
          }
        }
      }
    }
    if (!rotated) return;
  }
  // Non-convergence after kMaxSweeps sweeps is practically impossible for
  // Jacobi; if it happens the result is still a usable approximation.
}

SvdResult svd_tall(const MatD& a, bool want_vectors) {
  PMTBR_TRACE_SCOPE("la.svd");
  obs::counter_add(obs::Counter::kSvdCalls);
  const index m = a.rows(), n = a.cols();
  MatD g = a;
  MatD v = MatD::identity(n);
  jacobi_onesided(g, want_vectors ? &v : nullptr);

  // Column norms are the singular values.
  std::vector<double> s(static_cast<std::size_t>(n));
  for (index j = 0; j < n; ++j) {
    double nrm = 0;
    for (index i = 0; i < m; ++i) nrm += g(i, j) * g(i, j);
    s[static_cast<std::size_t>(j)] = std::sqrt(nrm);
  }

  // Sort descending.
  std::vector<index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), index{0});
  std::sort(order.begin(), order.end(), [&](index i, index j) {
    return s[static_cast<std::size_t>(i)] > s[static_cast<std::size_t>(j)];
  });

  SvdResult out;
  out.s.resize(static_cast<std::size_t>(n));
  out.u = MatD(m, n);
  if (want_vectors) out.v = MatD(n, n);
  for (index j = 0; j < n; ++j) {
    const index src = order[static_cast<std::size_t>(j)];
    const double sj = s[static_cast<std::size_t>(src)];
    out.s[static_cast<std::size_t>(j)] = sj;
    const double inv = sj > 0 ? 1.0 / sj : 0.0;
    for (index i = 0; i < m; ++i) out.u(i, j) = g(i, src) * inv;
    if (want_vectors)
      for (index i = 0; i < n; ++i) out.v(i, j) = v(i, src);
  }
  return out;
}

// Applies the Householder reflector I − β·v·vᵀ to columns [c0, c0+nc) of the
// pivot row `head` (reflector entry vhead) and of the `count` rows `rows`
// (entries v): s = β·vᵀ·block, block ← block − v·s, in row order like
// qr.cpp's reflector_sweep. Multiversioned like the GEMM macrokernel.
PMTBR_KERNEL_CLONES
static void reflect_rows(index c0, index nc, double* head, double vhead, double* const* rows,
                         const double* v, index count, double beta, double* s) {
  for (index c = 0; c < nc; ++c) s[c] = vhead * head[c0 + c];
  for (index r = 0; r < count; ++r) {
    const double vr = v[r];
    const double* row = rows[r] + c0;
    for (index c = 0; c < nc; ++c) s[c] += vr * row[c];
  }
  for (index c = 0; c < nc; ++c) s[c] *= beta;
  for (index c = 0; c < nc; ++c) head[c0 + c] -= vhead * s[c];
  for (index r = 0; r < count; ++r) {
    const double vr = v[r];
    double* row = rows[r] + c0;
    for (index c = 0; c < nc; ++c) row[c] -= vr * s[c];
  }
}

// n×n upper-triangular R of the tall m×n matrix w = Q·R (Householder, Q
// discarded), returned as n rows at stride ld in cache-line-aligned
// storage (la/aligned.hpp), the padding zero. Reflector j is applied only
// to the pivot row and to the rows with a nonzero in column j below it; the
// reflector is zero on every other row, which it therefore leaves
// untouched. On a fold's T = [diag(σ) ; D] each step touches one diagonal
// row plus the rows of D.
AlignedVector<double> r_factor(MatD w, index ld) {
  const index m = w.rows(), n = w.cols();
  std::vector<double*> rows;
  std::vector<double> v, s(static_cast<std::size_t>(n));
  double flops = 0;
  for (index j = 0; j < n; ++j) {
    rows.clear();
    v.clear();
    double below2 = 0;
    for (index i = j + 1; i < m; ++i) {
      const double x = w(i, j);
      if (x == 0.0) continue;
      rows.push_back(w.row_ptr(i));
      v.push_back(x);
      below2 += x * x;
    }
    if (v.empty()) continue;
    double* head = w.row_ptr(j);
    const double alpha = head[j];
    const double xnorm = std::sqrt(alpha * alpha + below2);
    if (xnorm == 0.0) continue;  // the nonzeros underflow when squared
    const double vhead = alpha + std::copysign(xnorm, alpha);
    const double beta = 2.0 / (vhead * vhead + below2);
    head[j] = -std::copysign(xnorm, alpha);
    const auto count = static_cast<index>(v.size());
    reflect_rows(j + 1, n - j - 1, head, vhead, rows.data(), v.data(), count, beta, s.data());
    flops += 4.0 * static_cast<double>((count + 1) * (n - j - 1));
  }
  obs::counter_add(obs::Counter::kSvdFlops, static_cast<std::int64_t>(flops));
  AlignedVector<double> r(static_cast<std::size_t>(n * ld));
  for (index i = 0; i < n; ++i)
    std::copy(w.row_ptr(i) + i, w.row_ptr(i) + n, r.data() + i * ld + i);
  return r;
}

// One sweep of one-sided Jacobi over the n rows of length n at stride ld
// of r, with jacobi_onesided's rotation and convergence test. nrm2 carries
// each row's squared norm: recomputed at the start of the sweep, updated on
// every rotation (a_pp ← a_pp − t·a_pq, a_qq ← a_qq + t·a_pq), and
// recomputed from the row when that update cancels more than half of it
// (LAPACK dgesvj's rule). Returns the number of rotations applied.
PMTBR_KERNEL_CLONES
static index jacobi_row_sweep(index n, index ld, double* r, double* nrm2) {
  const double eps = std::numeric_limits<double>::epsilon();
  for (index i = 0; i < n; ++i) nrm2[i] = detail::row_dot(n, r + i * ld, r + i * ld);
  index rotations = 0;
  for (index p = 0; p < n - 1; ++p) {
    double* x = r + p * ld;
    for (index q = p + 1; q < n; ++q) {
      double* y = r + q * ld;
      const double app = nrm2[p], aqq = nrm2[q];
      const double apq = detail::row_dot(n, x, y);
      if (std::abs(apq) <= eps * std::sqrt(app * aqq) || apq == 0.0) continue;
      ++rotations;
      const double tau = (aqq - app) / (2.0 * apq);
      const double t = (tau >= 0 ? 1.0 : -1.0) / (std::abs(tau) + std::sqrt(1.0 + tau * tau));
      const double c = 1.0 / std::sqrt(1.0 + t * t);
      const double s = c * t;
      for (index i = 0; i < n; ++i) {
        const double xp = x[i], yq = y[i];
        x[i] = c * xp - s * yq;
        y[i] = s * xp + c * yq;
      }
      const double npp = app - t * apq, nqq = aqq + t * apq;
      nrm2[p] = npp < 0.5 * app ? detail::row_dot(n, x, x) : npp;
      nrm2[q] = nqq < 0.5 * aqq ? detail::row_dot(n, y, y) : nqq;
    }
  }
  return rotations;
}

}  // namespace

SvdResult svd(const MatD& a) {
  PMTBR_REQUIRE(!a.empty(), "svd of empty matrix");
  PMTBR_CHECK_FINITE(a, "svd input matrix");
  if (a.rows() >= a.cols()) return svd_tall(a, true);
  // Wide: factor A^T = U S V^T  =>  A = V S U^T.
  SvdResult t = svd_tall(transpose(a), true);
  SvdResult out;
  out.u = std::move(t.v);
  out.v = std::move(t.u);
  out.s = std::move(t.s);
  return out;
}

std::vector<double> singular_values(const MatD& a) {
  PMTBR_REQUIRE(!a.empty(), "svd of empty matrix");
  PMTBR_CHECK_FINITE(a, "singular_values input matrix");
  if (a.rows() >= a.cols()) return svd_tall(a, false).s;
  return svd_tall(transpose(a), false).s;
}

SvdRightResult svd_right(const MatD& a) {
  PMTBR_REQUIRE(!a.empty(), "svd_right of empty matrix");
  PMTBR_REQUIRE(a.rows() >= a.cols(), "svd_right needs a tall matrix (rows >= cols)");
  PMTBR_CHECK_FINITE(a, "svd_right input matrix");
  PMTBR_TRACE_SCOPE("la.svd");
  obs::counter_add(obs::Counter::kSvdCalls);
  const index n = a.cols();
  // Each row of R starts a cache line: the stride is n rounded up to the
  // eight doubles of one.
  constexpr auto kLine = static_cast<index>(kCacheLineBytes / sizeof(double));
  const index ld = (n + kLine - 1) / kLine * kLine;
  AlignedVector<double> r = r_factor(a, ld);
  PMTBR_DEBUG_ASSERT(is_cache_aligned(r.data()), "Jacobi rows off their cache line");

  std::vector<double> nrm2(static_cast<std::size_t>(n));
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    obs::counter_add(obs::Counter::kSvdSweeps);
    const index rotations = jacobi_row_sweep(n, ld, r.data(), nrm2.data());
    // 2n² for the norms, 2n per pair's dot product, 6n per rotation.
    obs::counter_add(obs::Counter::kSvdFlops, n * (n * (n + 1) + 6 * rotations));
    if (rotations == 0) break;
  }

  // Row i of the rotated R is σ_i·v_iᵀ.
  std::vector<double> s(static_cast<std::size_t>(n));
  for (index i = 0; i < n; ++i) {
    const double* row = r.data() + i * ld;
    s[static_cast<std::size_t>(i)] = std::sqrt(detail::row_dot(n, row, row));
  }
  std::vector<index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), index{0});
  std::sort(order.begin(), order.end(), [&](index i, index j) {
    return s[static_cast<std::size_t>(i)] > s[static_cast<std::size_t>(j)];
  });

  SvdRightResult out;
  out.s.resize(static_cast<std::size_t>(n));
  out.v = MatD(n, n);
  for (index j = 0; j < n; ++j) {
    const index src = order[static_cast<std::size_t>(j)];
    const double sj = s[static_cast<std::size_t>(src)];
    out.s[static_cast<std::size_t>(j)] = sj;
    const double inv = sj > 0 ? 1.0 / sj : 0.0;
    const double* row = r.data() + src * ld;
    for (index i = 0; i < n; ++i) out.v(i, j) = row[i] * inv;
  }
  return out;
}

}  // namespace pmtbr::la
