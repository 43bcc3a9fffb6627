#include "mor/state_space.hpp"

#include <cmath>

#include "la/lu.hpp"
#include "la/ops.hpp"
#include "la/schur.hpp"
#include "mor/gram_schmidt.hpp"

namespace pmtbr::mor {

DenseSystem::DenseSystem(MatD e, MatD a, MatD b, MatD c)
    : e_(std::move(e)), a_(std::move(a)), b_(std::move(b)), c_(std::move(c)) {
  PMTBR_REQUIRE(a_.rows() == a_.cols(), "A must be square");
  PMTBR_REQUIRE(e_.rows() == a_.rows() && e_.cols() == a_.cols(), "E shape mismatch");
  PMTBR_REQUIRE(b_.rows() == a_.rows(), "B row mismatch");
  PMTBR_REQUIRE(c_.cols() == a_.rows(), "C column mismatch");
}

DenseSystem DenseSystem::standard(MatD a, MatD b, MatD c) {
  MatD e = MatD::identity(a.rows());
  return DenseSystem(std::move(e), std::move(a), std::move(b), std::move(c));
}

MatC DenseSystem::transfer(cd s) const {
  const index n = a_.rows();
  MatC pencil(n, n);
  for (index i = 0; i < n; ++i)
    for (index j = 0; j < n; ++j) pencil(i, j) = s * e_(i, j) - a_(i, j);
  const la::LuC lu(pencil);
  return la::matmul(la::to_complex(c_), lu.solve(la::to_complex(b_)));
}

std::vector<cd> DenseSystem::poles() const {
  // Generalized eigenvalues via E^{-1} A (reduced E is small and, for every
  // algorithm here, nonsingular by construction of the projection bases).
  const la::LuD lu(e_);
  return la::eigenvalues(lu.solve(a_));
}

bool DenseSystem::is_stable(double margin) const {
  for (const cd p : poles())
    if (p.real() > -margin) return false;
  return true;
}

MatD sparse_times_dense(const sparse::CsrD& m, const MatD& v) {
  PMTBR_REQUIRE(m.cols() == v.rows(), "sparse*dense shape mismatch");
  MatD out(m.rows(), v.cols());
  for (index i = 0; i < m.rows(); ++i) {
    for (index k = m.row_ptr()[static_cast<std::size_t>(i)];
         k < m.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const double val = m.values()[static_cast<std::size_t>(k)];
      const index col = m.col_idx()[static_cast<std::size_t>(k)];
      for (index j = 0; j < v.cols(); ++j) out(i, j) += val * v(col, j);
    }
  }
  return out;
}

DenseSystem project(const DescriptorSystem& sys, const MatD& v, const MatD& w) {
  PMTBR_REQUIRE(v.rows() == sys.n() && w.rows() == sys.n(), "basis row mismatch");
  PMTBR_REQUIRE(v.cols() == w.cols(), "basis column mismatch");
  PMTBR_CHECK_FINITE(v, "projection basis V");
  PMTBR_CHECK_FINITE(w, "projection basis W");
  // Wᵀ·X products read W transposed in place (matmul_at) — no materialized
  // transpose, and the blocked kernel handles the tall-times-skinny shapes.
  MatD er = la::matmul_at(w, sparse_times_dense(sys.e(), v));
  MatD ar = la::matmul_at(w, sparse_times_dense(sys.a(), v));
  MatD br = la::matmul_at(w, sys.b());
  MatD cr = la::matmul(sys.c(), v);
  return DenseSystem(std::move(er), std::move(ar), std::move(br), std::move(cr));
}

DenseSystem project_congruence(const DescriptorSystem& sys, const MatD& v) {
  return project(sys, v, v);
}

DeflatingBasis::DeflatingBasis(index n, index max_rank) : n_(n), max_rank_(max_rank) {
  PMTBR_REQUIRE(n > 0, "the basis needs a positive state dimension");
}

index DeflatingBasis::extend(const MatD& block) {
  PMTBR_REQUIRE(block.rows() == n_, "block row count must equal the state dimension");
  const index n = n_;
  const index k = block.cols();
  // Row layout: row j of x is column j of the block. The deflation
  // thresholds come from the PRE-projection column norms.
  la::AlignedVector<double> x(static_cast<std::size_t>(k * n));
  for (index i = 0; i < n; ++i) {
    const double* src = block.row_ptr(i);
    for (index j = 0; j < k; ++j) x[static_cast<std::size_t>(j * n + i)] = src[j];
  }
  std::vector<double> vnorms(static_cast<std::size_t>(k));
  for (index j = 0; j < k; ++j) {
    const double* v = x.data() + j * n;
    vnorms[static_cast<std::size_t>(j)] = std::sqrt(detail::row_dot(n, v, v));
  }

  // Two passes of block classical Gram–Schmidt against the committed
  // basis: C = Q·Xᵀ, X ← X − Cᵀ·Q.
  if (rank_ > 0) {
    PMTBR_DEBUG_ASSERT(la::is_cache_aligned(x.data()) && la::is_cache_aligned(basis_t_.data()),
                       "block rows or basis off their cache line");
    std::vector<double> c(static_cast<std::size_t>(rank_ * k));
    for (int pass = 0; pass < 2; ++pass) {
      detail::project_rows(n, x.data(), k, basis_t_.data(), rank_, c.data());
      detail::subtract_rows(n, x.data(), k, basis_t_.data(), rank_, c.data());
    }
  }

  const index block_start = rank_;
  for (index j = 0; j < k; ++j) {
    if (full()) break;
    const double vnorm = vnorms[static_cast<std::size_t>(j)];
    if (vnorm == 0) continue;
    double* v = x.data() + j * n;
    // Orthogonalize against the directions this same block introduced.
    for (int pass = 0; pass < 2; ++pass) {
      for (index l = block_start; l < rank_; ++l) {
        const double* q = basis_t_.data() + l * n;
        const double d = detail::row_dot(n, q, v);
        for (index i = 0; i < n; ++i) v[i] -= d * q[i];
      }
    }
    const double beta = std::sqrt(detail::row_dot(n, v, v));
    if (beta <= kDeflationTol * vnorm) continue;  // deflated direction
    for (index i = 0; i < n; ++i) v[i] /= beta;
    basis_t_.insert(basis_t_.end(), v, v + n);
    ++rank_;
  }
  return rank_ - block_start;
}

MatD DeflatingBasis::columns(index c0, index c1) const {
  PMTBR_REQUIRE(0 <= c0 && c0 <= c1 && c1 <= rank_, "column range must lie inside the basis");
  MatD out(n_, c1 - c0);
  for (index j = c0; j < c1; ++j)
    for (index i = 0; i < n_; ++i)
      out(i, j - c0) = basis_t_[static_cast<std::size_t>(j * n_ + i)];
  return out;
}

}  // namespace pmtbr::mor
