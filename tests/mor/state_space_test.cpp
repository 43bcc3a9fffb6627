// DenseSystem / projection / deflating-basis / error-metric layer tests.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <utility>

#include "circuit/generators.hpp"
#include "la/ops.hpp"
#include "mor/error.hpp"
#include "mor/state_space.hpp"
#include "sparse/splu.hpp"
#include "helpers.hpp"

namespace pmtbr::mor {
namespace {

TEST(DenseSystem, KnownTwoStatePoles) {
  // dx/dt = [[-1, 0], [0, -5]] x: poles at -1, -5.
  MatD a{{-1, 0}, {0, -5}};
  MatD b(2, 1, 1.0);
  MatD c(1, 2, 1.0);
  const auto sys = DenseSystem::standard(a, b, c);
  const auto p = sys.poles();
  EXPECT_NEAR(p[0].real(), -5.0, 1e-12);
  EXPECT_NEAR(p[1].real(), -1.0, 1e-12);
  EXPECT_TRUE(sys.is_stable());
  EXPECT_FALSE(sys.is_stable(2.0));  // margin beyond the slowest pole
}

TEST(DenseSystem, TransferOfFirstOrderSection) {
  // H(s) = c b / (s - a) for scalar system.
  MatD a{{-2.0}};
  MatD b{{3.0}};
  MatD c{{4.0}};
  const auto sys = DenseSystem::standard(a, b, c);
  const cd s(0.0, 1.0);
  const cd h = sys.transfer(s)(0, 0);
  const cd expected = 12.0 / (s + 2.0);
  EXPECT_LT(std::abs(h - expected), 1e-14);
}

TEST(DenseSystem, DescriptorFormTransfer) {
  // E = 2I doubles the effective time constant.
  MatD e{{2.0}};
  MatD a{{-2.0}};
  MatD b{{1.0}};
  MatD c{{1.0}};
  const DenseSystem sys(e, a, b, c);
  const cd s(0.0, 3.0);
  const cd h = sys.transfer(s)(0, 0);
  EXPECT_LT(std::abs(h - 1.0 / (s * 2.0 + 2.0)), 1e-14);
}

TEST(DenseSystem, ShapeChecksThrow) {
  EXPECT_THROW(DenseSystem(MatD(2, 2), MatD(3, 3), MatD(3, 1), MatD(1, 3)),
               std::invalid_argument);
  EXPECT_THROW(DenseSystem::standard(MatD{{1.0}}, MatD(2, 1), MatD(1, 1)),
               std::invalid_argument);
}

TEST(Project, IdentityBasisReproducesSystem) {
  const auto sys = circuit::make_rc_line({.segments = 6});
  const MatD v = MatD::identity(sys.n());
  const auto red = project_congruence(sys, v);
  EXPECT_LT(la::max_abs_diff(red.a(), sys.a().to_dense()), 1e-14);
  EXPECT_LT(la::max_abs_diff(red.e(), sys.e().to_dense()), 1e-14);
}

TEST(Project, MatchesDenseArithmetic) {
  const auto sys = circuit::make_rc_line({.segments = 8});
  Rng rng(71);
  const MatD v = testing::random_matrix(sys.n(), 3, rng);
  const MatD w = testing::random_matrix(sys.n(), 3, rng);
  const auto red = project(sys, v, w);
  const MatD expected_a =
      la::matmul(la::transpose(w), la::matmul(sys.a().to_dense(), v));
  EXPECT_LT(la::max_abs_diff(red.a(), expected_a), 1e-10);
}

TEST(Project, RejectsMismatchedBases) {
  const auto sys = circuit::make_rc_line({.segments = 5});
  EXPECT_THROW(project(sys, MatD(3, 2), MatD(3, 2)), std::invalid_argument);
  EXPECT_THROW(project(sys, MatD(sys.n(), 2), MatD(sys.n(), 3)), std::invalid_argument);
}

TEST(SparseTimesDense, MatchesDense) {
  const auto sys = circuit::make_rc_line({.segments = 7});
  Rng rng(72);
  const MatD v = testing::random_matrix(sys.n(), 4, rng);
  const MatD got = sparse_times_dense(sys.e(), v);
  const MatD expected = la::matmul(sys.e().to_dense(), v);
  EXPECT_LT(la::max_abs_diff(got, expected), 1e-12);
}

TEST(ExpansionPencil, DcKeepsThePatternOfA) {
  // PRIMA and PVL factor s0·E − A through DescriptorSystem::factor_real. At
  // s0 = 0 that is −A on A's own pattern, with no 0·E terms: on the RLC
  // spiral it is the pivoting LU of −A alone, bit for bit.
  const auto spiral = circuit::make_spiral();
  sparse::CsrD neg_a = spiral.a();
  for (auto& v : neg_a.values()) v = -v;
  const sparse::SparseLuD dc = spiral.factor_real(0.0, -1.0);
  const sparse::SparseLuD ref(neg_a, spiral.ordering());
  EXPECT_EQ(dc.nnz_factors(), ref.nnz_factors());
  EXPECT_EQ(la::max_abs_diff(dc.solve(spiral.b()), ref.solve(spiral.b())), 0.0);

  const auto sys = circuit::make_rc_line({.segments = 6});
  const double s0 = 1e9;
  MatD pencil = sys.e().to_dense();
  pencil *= s0;
  const MatD a = sys.a().to_dense();
  for (index i = 0; i < sys.n(); ++i)
    for (index j = 0; j < sys.n(); ++j) pencil(i, j) -= a(i, j);
  const MatD x = sys.factor_real(s0, -1.0).solve(sys.b());
  MatD residual = la::matmul(pencil, x);
  residual -= sys.b();
  EXPECT_LT(la::norm_fro(residual), 1e-13 * la::norm_fro(sys.b()));
}

TEST(DeflatingBasis, DropsADependentColumnAndSkipsAZeroColumn) {
  const index n = 40;
  Rng rng(81);
  MatD block = testing::random_matrix(n, 4, rng);
  for (index i = 0; i < n; ++i) {
    block(i, 2) = block(i, 0) - 2.0 * block(i, 1);  // depends on its own block
    block(i, 3) = 0.0;
  }
  DeflatingBasis basis(n);
  EXPECT_EQ(basis.extend(block), 2);
  EXPECT_EQ(basis.rank(), 2);
  // A later block inside the span adds nothing either.
  MatD again(n, 1);
  for (index i = 0; i < n; ++i) again(i, 0) = 3.0 * block(i, 0) + block(i, 1);
  EXPECT_EQ(basis.extend(again), 0);
  EXPECT_EQ(basis.rank(), 2);
}

TEST(DeflatingBasis, RankCapLandsMidBlock) {
  const index n = 30;
  Rng rng(82);
  DeflatingBasis basis(n, 5);
  EXPECT_EQ(basis.extend(testing::random_matrix(n, 3, rng)), 3);
  EXPECT_FALSE(basis.full());
  EXPECT_EQ(basis.extend(testing::random_matrix(n, 4, rng)), 2);  // 2 of 4 columns fit
  EXPECT_TRUE(basis.full());
  EXPECT_EQ(basis.extend(testing::random_matrix(n, 2, rng)), 0);
  EXPECT_EQ(basis.rank(), 5);
  EXPECT_EQ(basis.matrix().cols(), 5);
}

TEST(DeflatingBasis, ColumnsAreOrthonormal) {
  // PRIMA's 7-port blocks, and 1- and 2-column blocks at an n that is not a
  // multiple of 8: the Gram–Schmidt kernels' narrow tiles and lane tails.
  const std::pair<index, index> shapes[] = {{200, 7}, {203, 1}, {203, 2}};
  Rng rng(83);
  for (const auto& [n, width] : shapes) {
    SCOPED_TRACE(::testing::Message() << "n = " << n << ", width = " << width);
    DeflatingBasis basis(n);
    // Six blocks spanning six decades, each after the first padded with two
    // columns inside the span already built (they must deflate).
    for (int b = 0; b < 6; ++b) {
      MatD block = testing::random_matrix(n, width, rng, std::pow(10.0, b - 3));
      if (basis.rank() > 0)
        block = la::hcat(
            block, la::matmul(basis.matrix(), testing::random_matrix(basis.rank(), 2, rng)));
      EXPECT_EQ(basis.extend(block), width) << "block " << b;
    }
    const MatD q = basis.matrix();
    ASSERT_EQ(q.rows(), n);
    ASSERT_EQ(q.cols(), 6 * width);
    EXPECT_LE(testing::orthonormality_defect(q), 1e-14 * static_cast<double>(n));
    EXPECT_EQ(la::max_abs_diff(basis.columns(5 * width, 6 * width), q.columns(5 * width, 6 * width)),
              0.0);
  }
}

TEST(DeflatingBasis, RejectsBadShapesAndTolerances) {
  EXPECT_THROW(DeflatingBasis(0), std::invalid_argument);
  DeflatingBasis basis(4);
  EXPECT_THROW(basis.extend(MatD(5, 1, 1.0)), std::invalid_argument);
  EXPECT_THROW((void)basis.columns(0, 1), std::invalid_argument);
  EXPECT_THROW((void)basis.columns(1, 0), std::invalid_argument);
}

TEST(ErrorGrids, LinspaceEndpointsAndSpacing) {
  const auto g = linspace_grid(1.0, 5.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 1.0);
  EXPECT_DOUBLE_EQ(g.back(), 5.0);
  EXPECT_DOUBLE_EQ(g[1] - g[0], 1.0);
}

TEST(ErrorGrids, LogspaceRatios) {
  const auto g = logspace_grid(1.0, 1e4, 5);
  for (std::size_t i = 1; i < g.size(); ++i) EXPECT_NEAR(g[i] / g[i - 1], 10.0, 1e-10);
}

TEST(ErrorGrids, RejectBadSpecs) {
  EXPECT_THROW(linspace_grid(5.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(logspace_grid(0.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(linspace_grid(1.0, 2.0, 1), std::invalid_argument);
}

TEST(CompareOnGrid, ZeroErrorForIdenticalSystems) {
  const auto sys = circuit::make_rc_line({.segments = 10});
  const DenseSystem dense(sys.e().to_dense(), sys.a().to_dense(), sys.b(), sys.c());
  const auto err = compare_on_grid(sys, dense, logspace_grid(1e6, 1e10, 8));
  EXPECT_LT(err.max_rel, 1e-10);
}

TEST(CompareOnGrid, PortMismatchThrows) {
  const auto sys = circuit::make_rc_line({.segments = 5});
  const DenseSystem wrong = DenseSystem::standard(MatD{{-1.0}}, MatD(1, 2, 1.0), MatD(2, 1, 1.0));
  EXPECT_THROW(compare_on_grid(sys, wrong, {1e9}), std::invalid_argument);
}

TEST(EntryErrorSeries, RealPartOnlySelectsResistance) {
  const auto sys = circuit::make_rc_line({.segments = 5});
  // A deliberately wrong model: zero response.
  const DenseSystem zero =
      DenseSystem::standard(MatD{{-1.0}}, MatD(1, 1, 0.0), MatD(1, 1, 0.0));
  const auto grid = std::vector<double>{1e9};
  const auto abs_err = entry_error_series(sys, zero, grid, 0, 0, false);
  const auto re_err = entry_error_series(sys, zero, grid, 0, 0, true);
  const cd h = sys.transfer(cd(0.0, 2.0 * std::numbers::pi * 1e9))(0, 0);
  EXPECT_NEAR(abs_err[0], std::abs(h), 1e-12);
  EXPECT_NEAR(re_err[0], std::abs(h.real()), 1e-12);
}

}  // namespace
}  // namespace pmtbr::mor
