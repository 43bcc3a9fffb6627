// Cholesky, QR, SVD, and symmetric-eigen tests: known cases plus randomized
// reconstruction properties.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "la/cholesky.hpp"
#include "la/eig_sym.hpp"
#include "la/ops.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "util/obs/counters.hpp"
#include "helpers.hpp"

namespace pmtbr::la {
namespace {

// --- Cholesky ---------------------------------------------------------------

TEST(Cholesky, Known2x2) {
  MatD a{{4, 2}, {2, 5}};
  const MatD l = cholesky(a);
  EXPECT_LT(max_abs_diff(matmul(l, transpose(l)), a), 1e-12);
  EXPECT_DOUBLE_EQ(l(0, 1), 0.0);
}

TEST(Cholesky, RejectsIndefinite) {
  MatD a{{1, 2}, {2, 1}};
  EXPECT_THROW(cholesky(a), std::runtime_error);
}

TEST(Cholesky, PsdToleratesSemidefinite) {
  // Rank-1 PSD matrix.
  MatD a{{1, 1}, {1, 1}};
  const MatD l = cholesky_psd(a);
  EXPECT_LT(max_abs_diff(matmul(l, transpose(l)), a), 1e-10);
}

TEST(Cholesky, RandomSpdReconstruction) {
  Rng rng(11);
  const MatD a = testing::random_spd(12, rng);
  const MatD l = cholesky(a);
  EXPECT_LT(max_abs_diff(matmul(l, transpose(l)), a), 1e-9 * norm_inf(a));
}

// --- QR ----------------------------------------------------------------------

TEST(Qr, ThinReconstruction) {
  Rng rng(12);
  const MatD a = testing::random_matrix(10, 4, rng);
  const auto f = qr_pivoted(a);
  EXPECT_EQ(f.q.cols(), 4);
  EXPECT_LT(testing::orthonormality_defect(f.q), 1e-12);
  EXPECT_LT(max_abs_diff(matmul(f.q, f.r), testing::permute_columns(a, f.perm)), 1e-11);
}

TEST(Qr, WideMatrix) {
  Rng rng(13);
  const MatD a = testing::random_matrix(3, 8, rng);
  const auto f = qr_pivoted(a);
  EXPECT_EQ(f.q.cols(), 3);
  EXPECT_LT(max_abs_diff(matmul(f.q, f.r), testing::permute_columns(a, f.perm)), 1e-11);
}

TEST(Qr, PivotedDetectsRank) {
  Rng rng(14);
  const MatD g = testing::random_matrix(10, 3, rng);
  const MatD a = matmul(g, transpose(g));  // rank 3 in 10x10
  const auto f = qr_pivoted(a);
  EXPECT_EQ(f.rank, 3);
}

TEST(Qr, PivotedReconstructsWithPermutation) {
  Rng rng(15);
  const MatD a = testing::random_matrix(6, 5, rng);
  const auto f = qr_pivoted(a);
  const MatD qr_prod = matmul(f.q, f.r);
  // Column j of Q*R equals column perm[j] of A.
  for (index j = 0; j < a.cols(); ++j)
    for (index i = 0; i < a.rows(); ++i)
      EXPECT_NEAR(qr_prod(i, j), a(i, f.perm[static_cast<std::size_t>(j)]), 1e-11);
}

TEST(Qr, OrthBasisSpansColumnSpace) {
  Rng rng(16);
  const MatD g = testing::random_matrix(8, 2, rng);
  MatD a(8, 4);  // two independent + two dependent columns
  for (index i = 0; i < 8; ++i) {
    a(i, 0) = g(i, 0);
    a(i, 1) = g(i, 1);
    a(i, 2) = g(i, 0) + g(i, 1);
    a(i, 3) = 2.0 * g(i, 0) - g(i, 1);
  }
  const MatD q = orth(a);
  EXPECT_EQ(q.cols(), 2);
  EXPECT_LT(testing::orthonormality_defect(q), 1e-12);
}

// --- SVD ----------------------------------------------------------------------

TEST(Svd, KnownDiagonal) {
  MatD a{{3, 0}, {0, -2}};
  const auto f = svd(a);
  ASSERT_EQ(f.s.size(), 2u);
  EXPECT_NEAR(f.s[0], 3.0, 1e-12);
  EXPECT_NEAR(f.s[1], 2.0, 1e-12);
}

TEST(Svd, ReconstructionTall) {
  Rng rng(18);
  const MatD a = testing::random_matrix(12, 5, rng);
  const auto f = svd(a);
  MatD us(12, 5);
  for (index i = 0; i < 12; ++i)
    for (index j = 0; j < 5; ++j) us(i, j) = f.u(i, j) * f.s[static_cast<std::size_t>(j)];
  EXPECT_LT(max_abs_diff(matmul(us, transpose(f.v)), a), 1e-10);
  EXPECT_LT(testing::orthonormality_defect(f.u), 1e-11);
  EXPECT_LT(testing::orthonormality_defect(f.v), 1e-11);
}

TEST(Svd, ReconstructionWide) {
  Rng rng(19);
  const MatD a = testing::random_matrix(4, 9, rng);
  const auto f = svd(a);
  MatD us(4, 4);
  for (index i = 0; i < 4; ++i)
    for (index j = 0; j < 4; ++j) us(i, j) = f.u(i, j) * f.s[static_cast<std::size_t>(j)];
  EXPECT_LT(max_abs_diff(matmul(us, transpose(f.v)), a), 1e-10);
}

TEST(Svd, SingularValuesDescending) {
  Rng rng(20);
  const MatD a = testing::random_matrix(15, 8, rng);
  const auto s = singular_values(a);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_GE(s[i - 1], s[i]);
}

TEST(Svd, RankDeficientTailIsZero) {
  Rng rng(21);
  const MatD g = testing::random_matrix(10, 3, rng);
  const MatD a = matmul(g, transpose(g));
  const auto s = singular_values(a);
  for (std::size_t i = 3; i < s.size(); ++i) EXPECT_LT(s[i], 1e-10 * s[0]);
}

TEST(Svd, HighRelativeAccuracyOnGradedMatrix) {
  // Diagonal spanning 12 orders of magnitude: one-sided Jacobi should get
  // every singular value to high *relative* accuracy.
  const index n = 6;
  MatD a(n, n);
  for (index i = 0; i < n; ++i) a(i, i) = std::pow(10.0, -2.0 * static_cast<double>(i));
  const auto s = singular_values(a);
  for (index i = 0; i < n; ++i)
    EXPECT_NEAR(s[static_cast<std::size_t>(i)] / a(i, i), 1.0, 1e-10);
}

TEST(Svd, FrobeniusNormIdentity) {
  Rng rng(22);
  const MatD a = testing::random_matrix(9, 6, rng);
  const auto s = singular_values(a);
  double sum = 0;
  for (double x : s) sum += x * x;
  EXPECT_NEAR(std::sqrt(sum), norm_fro(a), 1e-10);
}

// --- svd_right: σ and V without U ---------------------------------------------

// Three tall shapes:
//  - a diagonal-topped T: 56 diagonal rows with σ geometric from 1 to 1e-10
//    over 4 dense rows, 60 columns. The dense rows are scaled column by
//    column with σ and their last 4 columns at the smallest σ, so T = Y·D
//    with Y well conditioned;
//  - a random 400×174 matrix, the shape of bench_cost_scaling's cold fold;
//  - B·diag(d) with B random (80×60) and d geometric from 1 to 1e-12.
std::vector<std::pair<std::string, MatD>> svd_right_inputs() {
  std::vector<std::pair<std::string, MatD>> out;
  Rng rng(31);
  const index s = 56, p = 4, k = 60;
  MatD topped(s + p, k);
  for (index i = 0; i < s; ++i)
    topped(i, i) = std::pow(1e-10, static_cast<double>(i) / static_cast<double>(s - 1));
  for (index r = s; r < s + p; ++r)
    for (index j = 0; j < k; ++j) topped(r, j) = rng.normal() * (j < s ? topped(j, j) : 1e-10);
  out.emplace_back("diagonal-topped 60x60", std::move(topped));
  out.emplace_back("random 400x174", testing::random_matrix(400, 174, rng));
  MatD graded = testing::random_matrix(80, 60, rng);
  for (index j = 0; j < graded.cols(); ++j) {
    const double d = std::pow(1e-12, static_cast<double>(j) / 59.0);
    for (index i = 0; i < graded.rows(); ++i) graded(i, j) *= d;
  }
  out.emplace_back("graded 80x60", std::move(graded));
  return out;
}

TEST(SvdRight, MatchesSvdOnFoldShapes) {
  for (const auto& [name, a] : svd_right_inputs()) {
    SCOPED_TRACE(name);
    const index n = a.cols();
    const SvdResult ref = svd(a);
    const SvdRightResult f = svd_right(a);
    ASSERT_EQ(f.s.size(), ref.s.size());
    ASSERT_EQ(f.v.rows(), n);
    ASSERT_EQ(f.v.cols(), n);
    // Every σ_i to 1e-10 relative to itself, not to σ_1.
    for (std::size_t i = 0; i < f.s.size(); ++i)
      EXPECT_NEAR(f.s[i], ref.s[i], 1e-10 * ref.s[i]) << "sigma_" << i;
    EXPECT_LE(testing::orthonormality_defect(f.v), 1e-13 * static_cast<double>(n));
    // V diagonalizes AᵀA: (A·V)ᵀ·(A·V) = diag(σ²) up to roundoff in σ_1².
    // This holds whatever the gaps (the random input has none of 10%).
    const MatD av = matmul(a, f.v);
    const MatD gram = matmul_at(av, av);
    double off = 0.0;
    for (index i = 0; i < n; ++i)
      for (index j = 0; j < n; ++j)
        off = std::max(off, std::abs(gram(i, j) - (i == j ? f.s[static_cast<std::size_t>(i)] *
                                                                f.s[static_cast<std::size_t>(i)]
                                                          : 0.0)));
    EXPECT_LE(off, 1e-12 * f.s[0] * f.s[0]);
    // Leading right singular subspaces agree wherever the σ gap is >= 10%.
    for (index q = 1; q < n; ++q) {
      if (ref.s[static_cast<std::size_t>(q - 1)] < 1.1 * ref.s[static_cast<std::size_t>(q)])
        continue;
      const auto cosines = singular_values(matmul_at(ref.v.columns(0, q), f.v.columns(0, q)));
      EXPECT_GT(cosines.back(), 1.0 - 1e-10) << "leading " << q;
    }
  }
}

TEST(SvdRight, EdgeShapes) {
  const auto s1 = svd_right(MatD{{-2.0}});
  ASSERT_EQ(s1.s.size(), 1u);
  EXPECT_EQ(s1.s[0], 2.0);
  EXPECT_EQ(s1.v(0, 0), -1.0);

  const auto col = svd_right(MatD{{3.0}, {0.0}, {-4.0}});
  ASSERT_EQ(col.s.size(), 1u);
  EXPECT_NEAR(col.s[0], 5.0, 1e-15);
  EXPECT_EQ(std::abs(col.v(0, 0)), 1.0);

  // Orthogonal rows: R is the diagonal itself, so one sweep finds nothing
  // to rotate and V is a signed permutation.
  MatD diag(5, 3);
  diag(0, 0) = 3.0;
  diag(1, 1) = -7.0;
  diag(2, 2) = 0.5;
  const std::int64_t calls = obs::counter_value(obs::Counter::kSvdCalls);
  const std::int64_t sweeps = obs::counter_value(obs::Counter::kSvdSweeps);
  const auto d = svd_right(diag);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSvdCalls) - calls, 1);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSvdSweeps) - sweeps, 1);
  EXPECT_EQ(d.s, (std::vector<double>{7.0, 3.0, 0.5}));
  EXPECT_EQ(max_abs_diff(d.v, MatD{{0, 1, 0}, {-1, 0, 0}, {0, 0, 1}}), 0.0);

  EXPECT_THROW(svd_right(MatD(2, 3)), std::invalid_argument);
  EXPECT_THROW(svd_right(MatD()), std::invalid_argument);
}

// --- symmetric eigensolver -----------------------------------------------------

TEST(EigSym, Known2x2) {
  MatD a{{2, 1}, {1, 2}};
  const auto e = eig_sym(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], 1.0, 1e-12);
}

TEST(EigSym, ReconstructsRandomSymmetric) {
  Rng rng(23);
  MatD a = testing::random_matrix(10, 10, rng);
  a += transpose(a);
  const auto e = eig_sym(a);
  MatD vl(10, 10);
  for (index i = 0; i < 10; ++i)
    for (index j = 0; j < 10; ++j) vl(i, j) = e.vectors(i, j) * e.values[static_cast<std::size_t>(j)];
  EXPECT_LT(max_abs_diff(matmul(vl, transpose(e.vectors)), a), 1e-9);
  EXPECT_LT(testing::orthonormality_defect(e.vectors), 1e-11);
}

TEST(EigSym, PsdFactorReconstructs) {
  Rng rng(24);
  const MatD g = testing::random_matrix(8, 3, rng);
  const MatD a = matmul(g, transpose(g));
  const MatD l = psd_factor(a);
  EXPECT_EQ(l.cols(), 3);  // rank revealed
  EXPECT_LT(max_abs_diff(matmul(l, transpose(l)), a), 1e-9);
}

TEST(EigSym, TraceMatchesEigenvalueSum) {
  Rng rng(25);
  MatD a = testing::random_matrix(7, 7, rng);
  a += transpose(a);
  const auto e = eig_sym(a);
  double trace = 0, sum = 0;
  for (index i = 0; i < 7; ++i) trace += a(i, i);
  for (double v : e.values) sum += v;
  EXPECT_NEAR(trace, sum, 1e-10);
}

}  // namespace
}  // namespace pmtbr::la
