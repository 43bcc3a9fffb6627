// Sign-function Lyapunov / cross-Gramian solver tests: residuals, SPD-ness,
// analytic cases, and the additivity property used in the paper's entropy
// argument (Sec. IV-A).
#include <gtest/gtest.h>

#include "la/eig_sym.hpp"
#include "la/ops.hpp"
#include "lyap/lyapunov.hpp"
#include "helpers.hpp"

namespace pmtbr::lyap {
namespace {

using la::index;
using la::MatD;
using pmtbr::Rng;

TEST(Lyapunov, ScalarAnalytic) {
  // a x + x a + q = 0 with a = -2, q = 4  =>  x = 1.
  MatD a{{-2.0}};
  MatD q{{4.0}};
  const MatD x = solve_lyapunov(a, q);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
}

TEST(Lyapunov, DiagonalAnalytic) {
  // For diagonal A, X_ij = -Q_ij / (a_i + a_j).
  MatD a{{-1.0, 0.0}, {0.0, -3.0}};
  MatD q{{2.0, 1.0}, {1.0, 6.0}};
  const MatD x = solve_lyapunov(a, q);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 0.25, 1e-12);
  EXPECT_NEAR(x(1, 1), 1.0, 1e-12);
}

TEST(Lyapunov, ResidualSmallOnRandomStable) {
  Rng rng(51);
  const MatD a = testing::random_stable(15, rng);
  const MatD b = testing::random_matrix(15, 3, rng);
  const MatD q = la::matmul(b, la::transpose(b));
  const MatD x = solve_lyapunov(a, q);
  EXPECT_LT(lyapunov_residual(a, x, q), 1e-8 * (1.0 + la::norm_fro(q)));
}

TEST(Lyapunov, GramianIsPsd) {
  Rng rng(52);
  const MatD a = testing::random_stable(12, rng);
  const MatD b = testing::random_matrix(12, 2, rng);
  const MatD x = controllability_gramian(a, b);
  const auto eig = la::eig_sym(x);
  EXPECT_GE(eig.values.back(), -1e-10 * eig.values.front());
}

TEST(Lyapunov, MatchesTimeDomainIntegralForSymmetric) {
  // For A = -I, X = ∫ e^{-t} BB^T e^{-t} dt = BB^T / 2.
  const index n = 4;
  MatD a(n, n);
  for (index i = 0; i < n; ++i) a(i, i) = -1.0;
  Rng rng(53);
  const MatD b = testing::random_matrix(n, 2, rng);
  const MatD x = controllability_gramian(a, b);
  MatD expected = la::matmul(b, la::transpose(b));
  expected *= 0.5;
  EXPECT_LT(la::max_abs_diff(x, expected), 1e-10);
}

TEST(Lyapunov, ObservabilityViaTranspose) {
  Rng rng(54);
  const MatD a = testing::random_stable(10, rng);
  const MatD c = testing::random_matrix(2, 10, rng);
  const MatD y = observability_gramian(a, c);
  const MatD q = la::matmul(la::transpose(c), c);
  const MatD r = la::matmul(la::transpose(a), y) + la::matmul(y, a) + q;
  EXPECT_LT(la::norm_fro(r), 1e-8 * (1.0 + la::norm_fro(q)));
}

TEST(Lyapunov, GramianAdditivityOverInputs) {
  // Paper Sec. IV-A: X(B1 ∪ B2) = X(B1) + X(B2).
  Rng rng(55);
  const MatD a = testing::random_stable(8, rng);
  const MatD b1 = testing::random_matrix(8, 2, rng);
  const MatD b2 = testing::random_matrix(8, 3, rng);
  const MatD x1 = controllability_gramian(a, b1);
  const MatD x2 = controllability_gramian(a, b2);
  const MatD x12 = controllability_gramian(a, la::hcat(b1, b2));
  EXPECT_LT(la::max_abs_diff(x12, x1 + x2), 1e-8 * (1.0 + la::norm_fro(x12)));
}

TEST(Lyapunov, UnstableThrows) {
  MatD a{{1.0}};  // not Hurwitz
  MatD q{{1.0}};
  EXPECT_THROW(solve_lyapunov(a, q), std::runtime_error);
}

TEST(Sylvester, ScalarAnalytic) {
  // The cross-Gramian a x + x a + b c = 0 with a = -1, b c = 8  =>  x = 4.
  MatD a{{-1.0}}, b{{2.0}}, c{{4.0}};
  const MatD x = cross_gramian(a, b, c);
  EXPECT_NEAR(x(0, 0), 4.0, 1e-12);
}

TEST(Sylvester, CrossGramianSisoSquaresToXY) {
  // For SISO systems X_CG^2 = X * Y (paper Sec. V-D).
  Rng rng(57);
  const MatD a = testing::random_stable(6, rng);
  const MatD b = testing::random_matrix(6, 1, rng);
  const MatD c = testing::random_matrix(1, 6, rng);
  const MatD xcg = cross_gramian(a, b, c);
  const MatD x = controllability_gramian(a, b);
  const MatD y = observability_gramian(a, c);
  EXPECT_LT(la::max_abs_diff(la::matmul(xcg, xcg), la::matmul(x, y)),
            1e-7 * (1.0 + la::norm_fro(la::matmul(x, y))));
}

class LyapSizes : public ::testing::TestWithParam<int> {};

TEST_P(LyapSizes, ResidualScalesWithSize) {
  const index n = GetParam();
  Rng rng(600 + static_cast<std::uint64_t>(n));
  const MatD a = testing::random_stable(n, rng);
  const MatD b = testing::random_matrix(n, 2, rng);
  const MatD q = la::matmul(b, la::transpose(b));
  const MatD x = solve_lyapunov(a, q);
  EXPECT_LT(lyapunov_residual(a, x, q), 1e-7 * (1.0 + la::norm_fro(q)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LyapSizes, ::testing::Values(2, 5, 10, 25, 50));

}  // namespace
}  // namespace pmtbr::lyap
