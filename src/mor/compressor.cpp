#include "mor/compressor.hpp"

#include <algorithm>
#include <cmath>

#include "la/gemm_kernel.hpp"
#include "la/ops.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "util/check.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/trace.hpp"

namespace pmtbr::mor {

IncrementalCompressor::IncrementalCompressor(index n, double drop_tol, CompressorMode mode)
    : n_(n), drop_tol_(drop_tol), mode_(mode) {
  PMTBR_REQUIRE(n >= 1, "state dimension must be positive");
  PMTBR_REQUIRE(drop_tol > 0 && drop_tol < 1, "drop_tol must be in (0, 1)");
}

double IncrementalCompressor::add_columns(const MatD& block) {
  PMTBR_REQUIRE(block.rows() == n_, "block row mismatch");
  PMTBR_CHECK_FINITE(block, "compressor sample block");
  PMTBR_TRACE_SCOPE("compressor.add_columns");
  if (block.cols() == 0) return 0.0;
  if (mode_ == CompressorMode::kBlocked) return add_block(block);
  const index basis_rank = rank_;
  double res_sq = 0.0;
  for (index j = 0; j < block.cols(); ++j) res_sq += add_column(block.col(j), basis_rank);
  return std::sqrt(res_sq);
}

double IncrementalCompressor::add_block(const MatD& block) {
  const index k = block.cols();
  const index br = rank_;

  // Drop threshold reference: the largest original column norm.
  double vmax = 0.0;
  for (index j = 0; j < k; ++j) {
    double s = 0.0;
    for (index i = 0; i < n_; ++i) s += block(i, j) * block(i, j);
    vmax = std::max(vmax, s);
  }
  vmax = std::sqrt(vmax);

  // Two passes of block classical Gram–Schmidt against the existing basis:
  //   C += Q·B,  B ← B − Qᵀ·C   (Q = basis rows, rank×n)
  // The second pass mops up the O(ε·κ) re-projection error, matching the
  // seed path's reorthogonalization.
  ws_.resid.resize(n_, k);
  for (index i = 0; i < n_; ++i) {
    const double* src = block.row_ptr(i);
    double* dst = ws_.resid.row_ptr(i);
    for (index j = 0; j < k; ++j) dst[j] = src[j];
  }
  ws_.coeff.resize(std::max<index>(br, 1), k);
  if (br > 0) {
    ws_.proj.resize(br, k);
    for (int pass = 0; pass < 2; ++pass) {
      la::detail::gemm<double, false>(br, k, n_, basis_t_.data(), n_, 1, ws_.resid.data(), k, 1,
                                      ws_.proj.data(), k, la::detail::GemmAcc::kSet);
      la::detail::gemm<double, false>(n_, k, br, basis_t_.data(), 1, n_, ws_.proj.data(), k, 1,
                                      ws_.resid.data(), k, la::detail::GemmAcc::kSub);
      ws_.coeff += ws_.proj;
    }
  }
  const double res = la::norm_fro(ws_.resid);

  // Householder QR of the residual block (one realified sample is only
  // n × 2·ports), then an SVD of its small R factor: the
  // residual's left singular directions above drop_tol become new basis
  // rows, everything below is deflated. When the whole residual is already
  // below the drop threshold no singular value can survive (σ_max ≤ ‖resid‖_F),
  // so fully-deflated blocks — the common case late in a sampling sweep —
  // skip the factorization outright.
  index kept = 0;
  la::SvdResult sub;
  MatD qres;
  const double thresh = drop_tol_ * std::max(vmax, 1e-300);
  if (br < n_ && res > thresh) {
    auto f = la::qr(ws_.resid);
    qres = std::move(f.q);
    sub = la::svd(f.r);
    const index max_new = std::min<index>(n_ - br, static_cast<index>(sub.s.size()));
    while (kept < max_new && sub.s[static_cast<std::size_t>(kept)] > thresh) ++kept;
  }

  if (kept > 0) {
    // New directions, stored transposed: rows = (Q_res · U_kept)ᵀ = U_keptᵀ · Q_resᵀ.
    const index kr = qres.cols();
    const index old = static_cast<index>(basis_t_.size());
    basis_t_.resize(static_cast<std::size_t>(old + kept * n_));
    double* nd = basis_t_.data() + old;
    la::detail::gemm<double, false>(kept, n_, kr, sub.u.data(), 1, sub.u.cols(), qres.data(), 1,
                                    kr, nd, n_, la::detail::GemmAcc::kSet);
    // The block residual is only ε·‖resid‖-orthogonal to the basis, so a
    // kept direction with σ_i near drop_tol·vmax can overlap the old basis
    // by ε·‖resid‖/σ_i — far above ε. Re-orthogonalize the kept directions
    // (two CGS passes against the old basis, then MGS among themselves) so
    // Q stays orthonormal to machine precision; without this the R-based
    // singular-value tail is inflated by the double-counted components.
    if (br > 0) {
      MatD c1(kept, br);
      for (int pass = 0; pass < 2; ++pass) {
        la::detail::gemm<double, false>(kept, br, n_, nd, n_, 1, basis_t_.data(), 1, n_,
                                        c1.data(), br, la::detail::GemmAcc::kSet);
        la::detail::gemm<double, false>(kept, n_, br, c1.data(), br, 1, basis_t_.data(), n_, 1,
                                        nd, n_, la::detail::GemmAcc::kSub);
      }
    }
    for (index l = 0; l < kept; ++l) {
      double* vl = nd + l * n_;
      for (int pass = 0; pass < 2; ++pass) {
        for (index r = 0; r < l; ++r) {
          const double* vr = nd + r * n_;
          double d = 0;
          for (index i = 0; i < n_; ++i) d += vr[i] * vl[i];
          for (index i = 0; i < n_; ++i) vl[i] -= d * vr[i];
        }
      }
      double nrm = 0;
      for (index i = 0; i < n_; ++i) nrm += vl[i] * vl[i];
      nrm = std::sqrt(nrm);
      if (nrm > 0) {
        const double inv = 1.0 / nrm;
        for (index i = 0; i < n_; ++i) vl[i] *= inv;
      }
    }
    rank_ += kept;
  }
  obs::counter_add(obs::Counter::kCompressorColumnsKept, kept);
  obs::counter_add(obs::Counter::kCompressorColumnsDropped, k - kept);

  // R bookkeeping: block column j carries its coefficients along the
  // pre-existing basis plus Σ·Vᵀ along the kept new directions (the
  // deflated component is dropped, exactly like the seed path drops the
  // residual of a rejected column).
  for (index j = 0; j < k; ++j) {
    std::vector<double> col(static_cast<std::size_t>(br + kept));
    for (index i = 0; i < br; ++i) col[static_cast<std::size_t>(i)] = ws_.coeff(i, j);
    for (index i = 0; i < kept; ++i)
      col[static_cast<std::size_t>(br + i)] =
          sub.s[static_cast<std::size_t>(i)] * sub.v(j, i);
    pending_.push_back(std::move(col));
  }
  m_ += k;
  return res;
}

double IncrementalCompressor::add_column(std::vector<double> v, index basis_rank) {
  const double vnorm = la::norm2(v);
  std::vector<double> h;
  h.reserve(static_cast<std::size_t>(rank_) + 1);

  // Two passes of modified Gram–Schmidt for numerical orthogonality.
  std::vector<double> coeffs(static_cast<std::size_t>(rank_), 0.0);
  for (int pass = 0; pass < 2; ++pass) {
    for (index l = 0; l < rank_; ++l) {
      const double* qk = basis_row(l);
      double d = 0;
      for (index i = 0; i < n_; ++i) d += qk[i] * v[static_cast<std::size_t>(i)];
      coeffs[static_cast<std::size_t>(l)] += d;
      for (index i = 0; i < n_; ++i) v[static_cast<std::size_t>(i)] -= d * qk[i];
    }
  }
  h.assign(coeffs.begin(), coeffs.end());

  const double beta = la::norm2(v);
  // Component outside the pre-block basis: the final residual plus the
  // coefficients along directions this same block introduced.
  double res_sq = beta * beta;
  for (std::size_t l = static_cast<std::size_t>(basis_rank); l < coeffs.size(); ++l)
    res_sq += coeffs[l] * coeffs[l];

  if (beta > drop_tol_ * std::max(vnorm, 1e-300) && rank_ < n_) {
    for (auto& x : v) x /= beta;
    basis_t_.insert(basis_t_.end(), v.begin(), v.end());
    ++rank_;
    h.push_back(beta);
    obs::counter_add(obs::Counter::kCompressorColumnsKept);
  } else {
    obs::counter_add(obs::Counter::kCompressorColumnsDropped);
  }
  pending_.push_back(std::move(h));
  ++m_;
  return res_sq;
}

void IncrementalCompressor::settle() {
  if (pending_.empty()) return;
  PMTBR_TRACE_SCOPE("compressor.settle");
  const index k = rank_;
  const auto s = static_cast<index>(sigma_.size());
  const auto p = static_cast<index>(pending_.size());
  if (k == 0) {  // every column so far deflated to nothing
    pending_.clear();
    return;
  }
  // Each new direction since the last fold arrived with at least one
  // column, so T below is tall and svd_right yields a square V.
  PMTBR_ENSURE(s + p >= k, "pending columns cannot cover the rank growth");

  // Pᵀ, zero-padded to the current rank.
  MatD pt(p, k);
  for (index j = 0; j < p; ++j) {
    const auto& col = pending_[static_cast<std::size_t>(j)];
    std::copy(col.begin(), col.end(), pt.row_ptr(j));
  }
  pending_.clear();

  // T = [diag(σ) ; Pᵀ·blkdiag(U, I)]: Tᵀ·T = blkdiag(U, I)ᵀ·R·Rᵀ·blkdiag(U, I).
  // Every pending column is at least |σ| long, so only its leading |σ|
  // entries rotate by U; the entries along newer directions pass through.
  MatD t(s + p, k);
  for (index i = 0; i < s; ++i) t(i, i) = sigma_[static_cast<std::size_t>(i)];
  la::detail::gemm<double, false>(p, s, s, pt.data(), k, 1, u_.data(), s, 1, t.row_ptr(s), k,
                                  la::detail::GemmAcc::kSet);
  for (index j = 0; j < p; ++j)
    for (index i = s; i < k; ++i) t(s + j, i) = pt(j, i);

  la::SvdRightResult f = la::svd_right(t);
  // Every kept direction entered with a residual above drop_tol, so T has
  // full column rank and no singular value can vanish.
  PMTBR_ENSURE(f.s.back() > 0, "fold lost rank");
  // U ← blkdiag(U, I)·V.
  MatD u(k, k);
  la::detail::gemm<double, false>(s, k, s, u_.data(), s, 1, f.v.data(), k, 1, u.data(), k,
                                  la::detail::GemmAcc::kSet);
  for (index i = s; i < k; ++i) std::copy_n(f.v.row_ptr(i), k, u.row_ptr(i));
  u_ = std::move(u);
  sigma_ = std::move(f.s);
}

std::vector<double> IncrementalCompressor::singular_values() {
  settle();
  return sigma_;
}

MatD IncrementalCompressor::basis(index order) {
  PMTBR_REQUIRE(order >= 1, "order must be positive");
  PMTBR_ENSURE(rank_ > 0, "no columns absorbed");
  settle();
  const index k = rank_;
  const index q = std::min(order, k);
  MatD out(n_, q);
  // out = basisᵀ · U(:, 0:q): the basis rows are read through swapped
  // strides, the leading q columns of U through its full row stride.
  la::detail::gemm<double, false>(n_, q, k, basis_t_.data(), 1, n_, u_.data(), k, 1, out.data(),
                                  q, la::detail::GemmAcc::kSet);
  return out;
}

index IncrementalCompressor::order_for_tolerance(double tol) {
  settle();
  const std::vector<double>& s = sigma_;
  if (s.empty()) return 0;
  const double s1 = s.front();
  if (s1 <= 0) return 1;
  double tail = 0;
  for (double x : s) tail += x;
  index q = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (tail <= tol * s1) break;
    tail -= s[i];
    ++q;
  }
  return std::max<index>(q, 1);
}

}  // namespace pmtbr::mor
