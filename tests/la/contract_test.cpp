// Precondition and finite-check contracts on the dense kernels: shape
// mismatches throw std::invalid_argument, NaN/Inf inputs are caught at the
// entry points when finite checks are on, and the Matrix constructor
// rejects element counts that overflow the index type.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "la/cholesky.hpp"
#include "la/eig_sym.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/ops.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "helpers.hpp"

namespace pmtbr::la {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(MatrixContract, RejectsNegativeDimensions) {
  EXPECT_THROW(MatD(-1, 3), std::invalid_argument);
  EXPECT_THROW(MatD(3, -1), std::invalid_argument);
}

TEST(MatrixContract, RejectsElementCountOverflow) {
  // Regression: rows*cols used to be computed in `index` before any
  // validation, so two large-but-valid dimensions overflowed into a small
  // or negative count instead of failing loudly.
  const index big = index{1} << 40;
  EXPECT_THROW(MatD(big, big), std::invalid_argument);
  EXPECT_THROW(MatD(std::numeric_limits<index>::max(), 2), std::invalid_argument);
}

TEST(MatrixContract, ZeroDimensionsStayLegal) {
  EXPECT_NO_THROW(MatD(0, 0));
  EXPECT_NO_THROW(MatD(0, index{1} << 40));  // 0 columns of any width is 0 elements
}

TEST(MatmulContract, InnerDimensionMismatchThrows) {
  const MatD a(2, 3, 1.0);
  const MatD b(4, 2, 1.0);
  try {
    matmul(a, b);
    FAIL() << "matmul accepted mismatched inner dimensions";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ops.cpp:"), std::string::npos) << e.what();
  }
}

TEST(MatvecContract, LengthMismatchThrows) {
  const MatD a(2, 3, 1.0);
  EXPECT_THROW(matvec(a, std::vector<double>(4, 1.0)), std::invalid_argument);
}

TEST(LuContract, NonSquareThrows) {
  EXPECT_THROW(LuD(MatD(3, 2, 1.0)), std::invalid_argument);
}

TEST(LuContract, SolveLengthMismatchThrows) {
  const LuD lu(MatD::identity(3));
  EXPECT_THROW(lu.solve(std::vector<double>(2, 1.0)), std::invalid_argument);
  EXPECT_THROW(lu.solve(MatD(2, 1, 1.0)), std::invalid_argument);
}

TEST(CholeskyContract, NonSquareThrows) {
  EXPECT_THROW(cholesky(MatD(2, 3, 1.0)), std::invalid_argument);
  EXPECT_THROW(cholesky_psd(MatD(2, 3, 1.0)), std::invalid_argument);
}

TEST(QrContract, NegativeToleranceThrows) {
  EXPECT_THROW(qr_pivoted(MatD::identity(2), -1.0), std::invalid_argument);
}

TEST(FiniteContract, MatmulCatchesNanWhenEnabled) {
  contracts::ScopedFiniteChecks on(true);
  MatD a = MatD::identity(3);
  a(1, 2) = kNan;
  EXPECT_THROW(matmul(a, MatD::identity(3)), std::runtime_error);
  EXPECT_THROW(matmul(MatD::identity(3), a), std::runtime_error);
}

TEST(FiniteContract, FactorizationsCatchNanWhenEnabled) {
  contracts::ScopedFiniteChecks on(true);
  Rng rng(7);
  MatD a = testing::random_spd(4, rng);
  a(2, 2) = kNan;
  EXPECT_THROW(LuD{a}, std::runtime_error);
  EXPECT_THROW(qr_pivoted(a), std::runtime_error);
  EXPECT_THROW(svd(a), std::runtime_error);
  EXPECT_THROW(svd_right(a), std::runtime_error);
  EXPECT_THROW(cholesky(a), std::runtime_error);
  a(2, 3) = a(3, 2) = a(2, 2);  // keep it symmetric for eig_sym's contract
  EXPECT_THROW(eig_sym(a), std::runtime_error);
}

TEST(FiniteContract, CleanInputsUnaffectedWhenEnabled) {
  contracts::ScopedFiniteChecks on(true);
  Rng rng(11);
  const MatD a = testing::random_spd(4, rng);
  EXPECT_NO_THROW(LuD{a});
  EXPECT_NO_THROW(cholesky(a));
  EXPECT_NO_THROW(matmul(a, a));
}

TEST(FiniteContract, DisabledChecksLetNanFlowThrough) {
  // With the switch off the scan must not run: matmul on NaN input returns
  // a NaN result rather than throwing.
  contracts::ScopedFiniteChecks off(false);
  MatD a = MatD::identity(2);
  a(0, 0) = kNan;
  MatD prod;
  EXPECT_NO_THROW(prod = matmul(a, MatD::identity(2)));
  EXPECT_FALSE(is_finite(prod));
}

}  // namespace
}  // namespace pmtbr::la
