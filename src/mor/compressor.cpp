#include "mor/compressor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "la/gemm_kernel.hpp"
#include "la/ops.hpp"
#include "la/svd.hpp"
#include "mor/gram_schmidt.hpp"
#include "util/check.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/trace.hpp"

namespace pmtbr::mor {

// Absorption kernels. They work on rows of length n, the layout of the
// basis (one contiguous row per direction); a sample block is copied into
// it transposed, one row per column.

namespace {

// Block rows per tile of project_rows; each tile pairs them with two basis
// rows, so a tile accumulates 8 dot products.
constexpr index kTileRows = 4;

// Entries per strip of subtract_rows: a strip of k block rows (512·k bytes,
// 8 KiB for the 16-column blocks of the widest caller) stays in L1 while
// every basis row streams past it once.
constexpr index kStrip = 64;

// One tile row of project_rows: the B basis rows at q against all k rows.
template <index B>
inline void project_tile_row(index n, const double* x, index k, const double* q, double* c) {
  index j = 0;
  for (; j + kTileRows <= k; j += kTileRows)
    detail::dot_tile<kTileRows, B>(n, x + j * n, q, c + j, k);
  for (; j + 2 <= k; j += 2) detail::dot_tile<2, B>(n, x + j * n, q, c + j, k);
  for (; j < k; ++j) detail::dot_tile<1, B>(n, x + j * n, q, c + j, k);
}

}  // namespace

// Basis rows outermost, so each streams past once while the block rows
// stay in cache.
PMTBR_KERNEL_CLONES
void detail::project_rows(index n, const double* x, index k, const double* q, index m,
                          double* c) {
  index l = 0;
  for (; l + 2 <= m; l += 2) project_tile_row<2>(n, x, k, q + l * n, c + l * k);
  for (; l < m; ++l) project_tile_row<1>(n, x, k, q + l * n, c + l * k);
}

// One strip of kStrip entries at a time, two basis rows per load and store
// of x.
PMTBR_KERNEL_CLONES
void detail::subtract_rows(index n, double* x, index k, const double* q, index m,
                           const double* c) {
  for (index i0 = 0; i0 < n; i0 += kStrip) {
    const index len = std::min(kStrip, n - i0);
    index l = 0;
    for (; l + 2 <= m; l += 2) {
      const double* q0 = q + l * n + i0;
      const double* q1 = q0 + n;
      for (index j = 0; j < k; ++j) {
        const double c0 = c[l * k + j], c1 = c[(l + 1) * k + j];
        double* xj = x + j * n + i0;
        for (index i = 0; i < len; ++i) xj[i] = (xj[i] - c0 * q0[i]) - c1 * q1[i];
      }
    }
    for (; l < m; ++l) {
      const double* ql = q + l * n + i0;
      for (index j = 0; j < k; ++j) {
        const double cj = c[l * k + j];
        double* xj = x + j * n + i0;
        for (index i = 0; i < len; ++i) xj[i] -= cj * ql[i];
      }
    }
  }
}

namespace {

using detail::project_rows;
using detail::row_dot;
using detail::subtract_rows;

// Householder QR of the n×k matrix whose column j is row j of x. Reflector
// j is built along row j and applied along the rows below it. On return,
// for j < min(n, k): entries [0, j) of row j hold R(0:j, j), entries
// [j, n) the reflector v_j (its head at entry j), rdiag[j] = R(j, j) and
// beta[j] = 2/‖v_j‖², 0 where column j is zero from the diagonal down (no
// reflector). The signs are la::qr_pivoted's: R(j, j) = −sign(α)·‖x‖.
PMTBR_KERNEL_CLONES
static void householder_rows(index n, index k, double* x, double* beta, double* rdiag) {
  const index kr = std::min(n, k);
  for (index j = 0; j < kr; ++j) {
    double* v = x + j * n + j;
    const index len = n - j;
    const double alpha = v[0];
    const double below2 = row_dot(len - 1, v + 1, v + 1);
    const double xnorm = std::sqrt(alpha * alpha + below2);
    const double r = alpha >= 0 ? -xnorm : xnorm;
    const double vhead = alpha - r;
    const double vnorm2 = vhead * vhead + below2;
    beta[j] = 0.0;
    rdiag[j] = alpha;
    if (vnorm2 > 0) {
      beta[j] = 2.0 / vnorm2;
      rdiag[j] = r;
      v[0] = vhead;
      for (index row = j + 1; row < k; ++row) {
        double* y = x + row * n + j;
        const double s = beta[j] * row_dot(len, v, y);
        for (index i = 0; i < len; ++i) y[i] -= s * v[i];
      }
    }
  }
}

// y ← H_0·H_1⋯H_{kr−1}·y for each of the `count` rows y of length n at
// `rows`: the reflectors householder_rows left in x, applied in reverse.
PMTBR_KERNEL_CLONES
static void apply_reflectors(index n, index kr, const double* x, const double* beta,
                             double* rows, index count) {
  for (index j = kr - 1; j >= 0; --j) {
    const double* v = x + j * n + j;
    const index len = n - j;
    for (index row = 0; row < count; ++row) {
      double* y = rows + row * n + j;
      const double s = beta[j] * row_dot(len, v, y);
      for (index i = 0; i < len; ++i) y[i] -= s * v[i];
    }
  }
}

}  // namespace

IncrementalCompressor::IncrementalCompressor(index n, double drop_tol, CompressorMode mode)
    : n_(n), drop_tol_(drop_tol), mode_(mode) {
  PMTBR_REQUIRE(n >= 1, "state dimension must be positive");
  PMTBR_REQUIRE(drop_tol > 0 && drop_tol < 1, "drop_tol must be in (0, 1)");
}

void IncrementalCompressor::reserve(index max_rank) {
  basis_t_.reserve(static_cast<std::size_t>(std::min(max_rank, n_) * n_));
}

double IncrementalCompressor::add_columns(const MatD& block) {
  PMTBR_REQUIRE(block.rows() == n_, "block row mismatch");
  PMTBR_REQUIRE(!settled_, "a settled compressor absorbs no more columns");
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

  // Row layout: row j of x is column j of the block. The drop threshold's
  // reference, the largest original column norm, comes out of the same
  // pass.
  ws_.rows.resize(static_cast<std::size_t>(k * n_));
  ws_.colsq.assign(static_cast<std::size_t>(k), 0.0);
  double* x = ws_.rows.data();
  PMTBR_DEBUG_ASSERT(la::is_cache_aligned(x), "block rows off their cache line");
  for (index i = 0; i < n_; ++i) {
    const double* src = block.row_ptr(i);
    for (index j = 0; j < k; ++j) {
      x[j * n_ + i] = src[j];
      ws_.colsq[static_cast<std::size_t>(j)] += src[j] * src[j];
    }
  }
  const double vmax = std::sqrt(*std::max_element(ws_.colsq.begin(), ws_.colsq.end()));

  // Two passes of block classical Gram–Schmidt against the existing basis:
  //   C = Q·Xᵀ,  X ← X − Cᵀ·Q   (Q = basis rows, rank×n)
  // The second pass mops up the O(ε·κ) re-projection error, matching the
  // seed path's reorthogonalization.
  const double* q = basis_t_.data();
  ws_.coeff.resize(std::max<index>(br, 1), k);
  if (br > 0) {
    PMTBR_DEBUG_ASSERT(la::is_cache_aligned(q), "basis off its cache line");
    ws_.proj.resize(br, k);
    for (int pass = 0; pass < 2; ++pass) {
      project_rows(n_, x, k, q, br, ws_.proj.data());
      subtract_rows(n_, x, k, q, br, ws_.proj.data());
      ws_.coeff += ws_.proj;
    }
  }
  double res2 = 0.0;
  for (index j = 0; j < k; ++j) res2 += row_dot(n_, x + j * n_, x + j * n_);
  const double res = std::sqrt(res2);

  // Householder QR of the residual rows in place, R read from the k×k
  // triangle, then an SVD of R: the residual's left singular directions
  // above drop_tol become new basis rows, everything below is deflated.
  // When the whole residual is already below the drop threshold no
  // singular value can survive (σ_max ≤ ‖resid‖_F), so fully-deflated
  // blocks — the common case late in a sampling sweep — skip the
  // factorization outright. The counters book the QR as la::qr_pivoted
  // books an n×k factorization.
  index kept = 0;
  la::SvdResult sub;
  const index kr = std::min(n_, k);
  ws_.beta.resize(static_cast<std::size_t>(kr));
  ws_.rdiag.resize(static_cast<std::size_t>(kr));
  const double thresh = drop_tol_ * std::max(vmax, 1e-300);
  if (br < n_ && res > thresh) {
    householder_rows(n_, k, x, ws_.beta.data(), ws_.rdiag.data());
    obs::counter_add(obs::Counter::kQrFactorizations);
    obs::counter_add(obs::Counter::kQrFlops, 4 * n_ * k * kr);
    ws_.r.resize(kr, k);
    for (index j = 0; j < kr; ++j) {
      ws_.r(j, j) = ws_.rdiag[static_cast<std::size_t>(j)];
      for (index c = j + 1; c < k; ++c) ws_.r(j, c) = x[c * n_ + j];
    }
    sub = la::svd(ws_.r);
    const index max_new = std::min<index>(n_ - br, static_cast<index>(sub.s.size()));
    while (kept < max_new && sub.s[static_cast<std::size_t>(kept)] > thresh) ++kept;
  }

  if (kept > 0) {
    // New direction l = Q_res·U(:, l), formed as H_0⋯H_{kr−1}·[U(:, l) ; 0]
    // straight in its basis row: no explicit Q_res.
    const index old = static_cast<index>(basis_t_.size());
    basis_t_.resize(static_cast<std::size_t>(old + kept * n_));
    double* nd = basis_t_.data() + old;
    for (index l = 0; l < kept; ++l)
      for (index i = 0; i < kr; ++i) nd[l * n_ + i] = sub.u(i, l);
    apply_reflectors(n_, kr, x, ws_.beta.data(), nd, kept);
    // The block residual is only ε·‖resid‖-orthogonal to the basis, so a
    // kept direction with σ_i near drop_tol·vmax can overlap the old basis
    // by ε·‖resid‖/σ_i — far above ε. Re-orthogonalize the kept directions
    // (two CGS passes against the old basis, then MGS among themselves) so
    // Q stays orthonormal to machine precision; without this the R-based
    // singular-value tail is inflated by the double-counted components.
    if (br > 0) {
      ws_.proj.resize(br, kept);
      for (int pass = 0; pass < 2; ++pass) {
        project_rows(n_, nd, kept, basis_t_.data(), br, ws_.proj.data());
        subtract_rows(n_, nd, kept, basis_t_.data(), br, ws_.proj.data());
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

IncrementalCompressor::Factor IncrementalCompressor::fold(const char* scope) const {
  PMTBR_TRACE_SCOPE(scope);
  const index k = rank_;
  const auto m = static_cast<index>(pending_.size());
  if (k == 0) return {};  // every column so far deflated to nothing
  // Each direction arrived with at least one column, so T below is tall
  // and svd_right yields a square V.
  PMTBR_ENSURE(m >= k, "absorbed columns cannot cover the rank");

  // T = Pᵀ, each column zero-padded to the rank: Tᵀ·T = R·Rᵀ.
  MatD t(m, k);
  for (index j = 0; j < m; ++j) {
    const auto& col = pending_[static_cast<std::size_t>(j)];
    std::copy(col.begin(), col.end(), t.row_ptr(j));
  }
  la::SvdRightResult f = la::svd_right(t);
  // Every kept direction entered with a residual above drop_tol, so T has
  // full column rank and no singular value can vanish.
  PMTBR_ENSURE(f.s.back() > 0, "fold lost rank");
  return {std::move(f.v), std::move(f.s)};
}

void IncrementalCompressor::settle() {
  if (settled_) return;
  settled_ = true;
  if (pending_.empty()) return;  // nothing absorbed
  Factor f = fold("compressor.settle");
  pending_.clear();
  u_ = std::move(f.u);
  sigma_ = std::move(f.sigma);
}

void IncrementalCompressor::shrink_to_fit() {
  settle();
  pending_ = {};
  ws_ = {};
  basis_t_.shrink_to_fit();
  sigma_.shrink_to_fit();
}

std::size_t IncrementalCompressor::resident_bytes() const {
  return (basis_t_.capacity() + u_.size() + sigma_.capacity()) * sizeof(double);
}

// A query's fold commits nothing and runs under its own scope, so a trace
// tells the scratch folds of order checks apart from the commit.
namespace {
constexpr const char* kScratchFold = "compressor.scratch_fold";
}  // namespace

std::vector<double> IncrementalCompressor::singular_values() const {
  if (pending_.empty()) return sigma_;
  return fold(kScratchFold).sigma;
}

MatD IncrementalCompressor::basis(index order) const {
  PMTBR_REQUIRE(order >= 1, "order must be positive");
  PMTBR_ENSURE(rank_ > 0, "no columns absorbed");
  const Factor scratch = pending_.empty() ? Factor{} : fold(kScratchFold);
  const MatD& u = pending_.empty() ? u_ : scratch.u;
  const index k = rank_;
  const index q = std::min(order, k);
  MatD out(n_, q);
  // out = basisᵀ · U(:, 0:q): the basis rows are read through swapped
  // strides, the leading q columns of U through its full row stride.
  la::detail::gemm<double, false>(n_, q, k, basis_t_.data(), 1, n_, u.data(), k, 1, out.data(), q,
                                  la::detail::GemmAcc::kSet);
  return out;
}

index IncrementalCompressor::order_for_tolerance(double tol) const {
  if (pending_.empty()) return tail_order(sigma_, tol);
  return tail_order(fold(kScratchFold).sigma, tol);
}

namespace {

// The smallest q >= 1 with sum_{i>q} σ_i − slack <= tol·s1.
index tail_rule(std::span<const double> sigma, double s1, double slack, double tol) {
  double tail = 0;
  for (const double x : sigma) tail += x;
  index q = 0;
  for (const double x : sigma) {
    if (tail - slack <= tol * s1) break;
    tail -= x;
    ++q;
  }
  return std::max<index>(q, 1);
}

}  // namespace

index tail_order(std::span<const double> sigma, double tol) {
  if (sigma.empty()) return 0;
  if (sigma.front() <= 0) return 1;
  return tail_rule(sigma, sigma.front(), 0.0, tol);
}

index tail_order_lower_bound(std::span<const double> sigma, double added_sq, double tol) {
  if (sigma.empty()) return 0;
  const double s1 = std::sqrt(sigma.front() * sigma.front() + added_sq);
  const double allowance = 1e3 * static_cast<double>(sigma.size()) *
                           std::numeric_limits<double>::epsilon() * s1;
  return tail_rule(sigma, s1, allowance, tol);
}

}  // namespace pmtbr::mor
