// Contracts on the Lyapunov/cross-Gramian solvers and residuals: shape
// validation throws std::invalid_argument before any arithmetic.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "lyap/lyapunov.hpp"
#include "helpers.hpp"

namespace pmtbr::lyap {
namespace {

using la::MatD;
using testing::random_stable;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(LyapunovContract, NonSquareThrows) {
  EXPECT_THROW(solve_lyapunov(MatD(2, 3, 1.0), MatD(2, 2, 1.0)), std::invalid_argument);
}

TEST(LyapunovContract, ShapeMismatchThrows) {
  Rng rng(5);
  const MatD a = random_stable(3, rng);
  EXPECT_THROW(solve_lyapunov(a, MatD(2, 2, 1.0)), std::invalid_argument);
}

TEST(LyapunovContract, ResidualShapeMismatchThrows) {
  const MatD a = MatD::identity(3);
  EXPECT_THROW(lyapunov_residual(a, MatD(2, 2, 1.0), MatD(3, 3, 1.0)), std::invalid_argument);
  EXPECT_THROW(lyapunov_residual(a, MatD(3, 3, 1.0), MatD(3, 2, 1.0)), std::invalid_argument);
}

TEST(LyapunovContract, GramianFactorRowMismatchThrows) {
  Rng rng(9);
  const MatD a = random_stable(3, rng);
  EXPECT_THROW(controllability_gramian(a, MatD(2, 1, 1.0)), std::invalid_argument);
  EXPECT_THROW(observability_gramian(a, MatD(1, 2, 1.0)), std::invalid_argument);
}

TEST(LyapunovContract, NanInputCaughtWhenFiniteChecksOn) {
  contracts::ScopedFiniteChecks on(true);
  Rng rng(13);
  MatD a = random_stable(3, rng);
  a(0, 1) = kNan;
  EXPECT_THROW(solve_lyapunov(a, MatD::identity(3)), std::runtime_error);
}

TEST(SylvesterContract, ShapeMismatchThrows) {
  Rng rng(21);
  const MatD a = random_stable(3, rng);
  EXPECT_THROW(cross_gramian(a, MatD(2, 1, 1.0), MatD(1, 3, 1.0)), std::invalid_argument);
  EXPECT_THROW(cross_gramian(a, MatD(3, 1, 1.0), MatD(1, 2, 1.0)), std::invalid_argument);
  EXPECT_THROW(cross_gramian(a, MatD(3, 2, 1.0), MatD(1, 3, 1.0)), std::invalid_argument);
  EXPECT_THROW(cross_gramian(MatD(2, 3, 1.0), MatD(2, 1, 1.0), MatD(1, 3, 1.0)),
               std::invalid_argument);
}

TEST(SylvesterContract, ResidualShapeMismatchThrows) {
  const MatD a = MatD::identity(2);
  const MatD b = MatD::identity(3);
  const MatD c(2, 3, 1.0);
  EXPECT_THROW(sylvester_residual(a, b, c, MatD(3, 3, 1.0)), std::invalid_argument);
  EXPECT_THROW(sylvester_residual(a, b, MatD(3, 2, 1.0), MatD(2, 3, 1.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace pmtbr::lyap
