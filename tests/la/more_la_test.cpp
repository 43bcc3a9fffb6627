// Additional linear-algebra coverage: parameterized property sweeps and
// edge cases for SVD / eig_sym / QR / Schur.
#include <gtest/gtest.h>

#include "la/eig_sym.hpp"
#include "la/ops.hpp"
#include "la/qr.hpp"
#include "la/schur.hpp"
#include "la/svd.hpp"
#include "helpers.hpp"

namespace pmtbr::la {
namespace {

TEST(SvdEdge, OneByOne) {
  MatD a{{-3.0}};
  const auto f = svd(a);
  EXPECT_DOUBLE_EQ(f.s[0], 3.0);
  EXPECT_DOUBLE_EQ(f.u(0, 0) * f.v(0, 0), -1.0);  // sign carried by the vectors
}

TEST(SvdEdge, SingleColumn) {
  MatD a(4, 1);
  a(0, 0) = 3.0;
  a(2, 0) = 4.0;
  const auto f = svd(a);
  EXPECT_NEAR(f.s[0], 5.0, 1e-14);
  EXPECT_NEAR(std::abs(f.u(0, 0)), 0.6, 1e-14);
}

TEST(SvdEdge, ZeroMatrix) {
  MatD a(3, 2);
  const auto f = svd(a);
  EXPECT_DOUBLE_EQ(f.s[0], 0.0);
  EXPECT_DOUBLE_EQ(f.s[1], 0.0);
}

class SvdSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SvdSizes, ReconstructionAndOrthogonality) {
  const auto [m, n] = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(m * 37 + n));
  const MatD a = testing::random_matrix(m, n, rng);
  const auto f = svd(a);
  const index k = std::min<index>(m, n);
  ASSERT_EQ(static_cast<index>(f.s.size()), k);
  MatD us(m, k);
  for (index i = 0; i < m; ++i)
    for (index j = 0; j < k; ++j) us(i, j) = f.u(i, j) * f.s[static_cast<std::size_t>(j)];
  EXPECT_LT(max_abs_diff(matmul(us, transpose(f.v)), a), 1e-9 * (1.0 + norm_fro(a)));
  EXPECT_LT(testing::orthonormality_defect(f.u), 1e-10);
  EXPECT_LT(testing::orthonormality_defect(f.v), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdSizes,
                         ::testing::Values(std::pair{1, 1}, std::pair{5, 5}, std::pair{20, 3},
                                           std::pair{3, 20}, std::pair{40, 40},
                                           std::pair{60, 10}));

class EigSymSizes : public ::testing::TestWithParam<int> {};

TEST_P(EigSymSizes, OrthogonalityAndResidual) {
  const index n = GetParam();
  Rng rng(2000 + static_cast<std::uint64_t>(n));
  MatD a = testing::random_matrix(n, n, rng);
  a += transpose(a);
  const auto e = eig_sym(a);
  EXPECT_LT(testing::orthonormality_defect(e.vectors), 1e-10);
  // A v_k = w_k v_k for each pair.
  for (index k = 0; k < n; ++k) {
    const auto vk = e.vectors.col(k);
    const auto av = matvec(a, vk);
    double worst = 0;
    for (index i = 0; i < n; ++i)
      worst = std::max(worst, std::abs(av[static_cast<std::size_t>(i)] -
                                       e.values[static_cast<std::size_t>(k)] *
                                           vk[static_cast<std::size_t>(i)]));
    EXPECT_LT(worst, 1e-9 * (1.0 + norm_inf(a)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigSymSizes, ::testing::Values(1, 2, 3, 8, 17, 33));

TEST(QrEdge, SingleColumnNormalizes) {
  MatD a(3, 1);
  a(1, 0) = -2.0;
  const auto f = qr_pivoted(a);
  EXPECT_NEAR(std::abs(f.r(0, 0)), 2.0, 1e-14);
  EXPECT_NEAR(std::abs(f.q(1, 0)), 1.0, 1e-14);
}

TEST(QrEdge, IdentityIsItsOwnQr) {
  const MatD i3 = MatD::identity(3);
  const auto f = qr_pivoted(i3);
  EXPECT_LT(max_abs_diff(matmul(f.q, f.r), testing::permute_columns(i3, f.perm)), 1e-14);
}

TEST(SchurEdge, DiagonalMatrixImmediate) {
  MatC a(4, 4);
  for (index i = 0; i < 4; ++i) a(i, i) = cd(static_cast<double>(i) - 2.0, 0.5);
  const auto f = schur(a);
  const MatC recon = matmul(f.q, matmul(f.t, adjoint(f.q)));
  EXPECT_LT(max_abs_diff(recon, a), 1e-12);
}

TEST(SchurEdge, StiffSpectrumConverges) {
  // Eigenvalues spanning 12 decades with clusters — the circuit case that
  // exposed the shift cancellation issue.
  const index n = 24;
  MatD a(n, n);
  Rng rng(3002);
  for (index i = 0; i < n; ++i) a(i, i) = -std::pow(10.0, static_cast<double>(i / 2));
  // Mild nonnormal coupling.
  for (index i = 0; i + 1 < n; ++i) a(i, i + 1) = rng.normal(0.0, 0.1) * std::abs(a(i, i));
  const auto w = eigenvalues(a);
  // All eigenvalues negative real (triangular matrix: they equal the diagonal).
  std::vector<double> got;
  for (const auto& v : w) {
    EXPECT_NEAR(v.imag(), 0.0, 1e-3 * std::abs(v));
    got.push_back(v.real());
  }
  std::sort(got.begin(), got.end());
  EXPECT_NEAR(got.front(), -1e11, 1e3);
}

TEST(SchurEdge, RepeatedEigenvaluesDeflate) {
  // The clustered-eigenvalue case: A = Q D Q^T with D having multiplicity 4.
  const index n = 12;
  Rng rng(3003);
  const auto f = qr_pivoted(testing::random_matrix(n, n, rng));
  MatD d(n, n);
  for (index i = 0; i < n; ++i) d(i, i) = -1.0 - static_cast<double>(i / 4);
  const MatD a = matmul(f.q, matmul(d, transpose(f.q)));
  const auto w = eigenvalues(a);
  index near_m1 = 0;
  for (const auto& v : w)
    if (std::abs(v - cd(-1.0, 0.0)) < 1e-6) ++near_m1;
  EXPECT_EQ(near_m1, 4);
}

TEST(Ops, RealImagPartsRoundTrip) {
  Rng rng(3004);
  const MatC a = testing::random_complex_matrix(4, 3, rng);
  const MatD re = real_part(a);
  const MatD im = imag_part(a);
  for (index i = 0; i < 4; ++i)
    for (index j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(re(i, j), a(i, j).real());
      EXPECT_DOUBLE_EQ(im(i, j), a(i, j).imag());
    }
}

}  // namespace
}  // namespace pmtbr::la
