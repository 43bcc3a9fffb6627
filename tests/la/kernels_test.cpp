// Contracts of the blocked dense-kernel layer: GEMM edge cases against the
// scalar reference, and Matrix::resize.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "helpers.hpp"
#include "la/matrix.hpp"
#include "la/ops.hpp"
#include "util/thread_pool.hpp"

namespace pmtbr {
namespace {

using la::cd;
using la::index;
using la::MatC;
using la::MatD;
using testing::random_complex_matrix;
using testing::random_matrix;

constexpr double kEps = std::numeric_limits<double>::epsilon();

struct ScopedThreads {
  explicit ScopedThreads(int n) { util::set_global_threads(n); }
  ~ScopedThreads() { util::set_global_threads(util::resolve_num_threads(nullptr)); }
};

double max_abs_diff(const MatD& a, const MatD& b) {
  double worst = 0;
  for (index i = 0; i < a.rows(); ++i)
    for (index j = 0; j < a.cols(); ++j) worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
  return worst;
}

double max_abs_diff(const MatC& a, const MatC& b) {
  double worst = 0;
  for (index i = 0; i < a.rows(); ++i)
    for (index j = 0; j < a.cols(); ++j) worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
  return worst;
}

// --- GEMM ------------------------------------------------------------------

TEST(Gemm, MatchesReferenceAcrossTailTileShapes) {
  Rng rng(101);
  // Shapes straddling every blocking boundary: micro-tile tails (mr=4,
  // nr=8), mc/kc/nc block tails, and single-row/column extremes.
  const index shapes[][3] = {{1, 1, 1},   {1, 17, 5},  {17, 1, 5},   {5, 5, 1},
                             {3, 7, 2},   {4, 8, 16},  {37, 29, 53}, {97, 9, 257},
                             {96, 8, 256}, {100, 515, 30}};
  for (const auto& s : shapes) {
    const MatD a = random_matrix(s[0], s[2], rng);
    const MatD b = random_matrix(s[2], s[1], rng);
    const MatD ref = la::matmul_reference(a, b);
    const MatD got = la::matmul(a, b);
    const double tol = 32.0 * kEps * static_cast<double>(s[2] + 1);
    EXPECT_LT(max_abs_diff(got, ref), tol)
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(Gemm, ComplexMatchesReference) {
  Rng rng(103);
  const MatC a = random_complex_matrix(33, 21, rng);
  const MatC b = random_complex_matrix(21, 19, rng);
  EXPECT_LT(max_abs_diff(la::matmul(a, b), la::matmul_reference(a, b)), 1e3 * kEps);
}

TEST(Gemm, InnerDimensionZeroGivesZeroMatrix) {
  const MatD a(5, 0);
  const MatD b(0, 7);
  const MatD c = la::matmul(a, b);
  ASSERT_EQ(c.rows(), 5);
  ASSERT_EQ(c.cols(), 7);
  for (index i = 0; i < c.rows(); ++i)
    for (index j = 0; j < c.cols(); ++j) EXPECT_EQ(c(i, j), 0.0);
}

TEST(Gemm, MatmulIntoRejectsAliasedOutput) {
  Rng rng(107);
  MatD a = random_matrix(6, 6, rng);
  const MatD b = random_matrix(6, 6, rng);
  EXPECT_THROW(la::matmul_into(a, b, a), std::invalid_argument);
}

TEST(Gemm, MatmulAtMatchesMaterializedTranspose) {
  Rng rng(109);
  const MatD a = random_matrix(211, 17, rng);
  const MatD b = random_matrix(211, 23, rng);
  const MatD via_at = la::matmul_at(a, b);
  const MatD via_t = la::matmul_reference(la::transpose(a), b);
  EXPECT_LT(max_abs_diff(via_at, via_t), 1e4 * kEps);

  const MatC ac = random_complex_matrix(64, 9, rng);
  const MatC bc = random_complex_matrix(64, 11, rng);
  // matmul_at is A^H·B for complex operands.
  EXPECT_LT(max_abs_diff(la::matmul_at(ac, bc), la::matmul_reference(la::adjoint(ac), bc)),
            1e4 * kEps);
}

TEST(Gemm, BitIdenticalAcrossThreadCounts) {
  Rng rng(113);
  const MatD a = random_matrix(300, 280, rng);
  const MatD b = random_matrix(280, 290, rng);
  MatD one, four;
  {
    ScopedThreads t(1);
    one = la::matmul(a, b);
  }
  {
    ScopedThreads t(4);
    four = la::matmul(a, b);
  }
  EXPECT_EQ(max_abs_diff(one, four), 0.0);
}

// --- Matrix::resize --------------------------------------------------------

TEST(Matrix, ResizeReshapesAndZeroes) {
  MatD m(2, 3);
  m(0, 0) = 5.0;
  m(1, 2) = -1.0;
  m.resize(4, 2);
  ASSERT_EQ(m.rows(), 4);
  ASSERT_EQ(m.cols(), 2);
  for (index i = 0; i < 4; ++i)
    for (index j = 0; j < 2; ++j) EXPECT_EQ(m(i, j), 0.0);
  m(3, 1) = 2.0;
  m.resize(1, 1);
  EXPECT_EQ(m(0, 0), 0.0);
}

}  // namespace
}  // namespace pmtbr
