// Sparse LU failure modes: singular and structurally rank-deficient inputs
// must fail loudly with std::runtime_error (internal ENSURE tier), shape
// violations with std::invalid_argument, and NaN values are caught at the
// factorization boundary when finite checks are on.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/rcm.hpp"
#include "sparse/splu.hpp"
#include "util/faultinject.hpp"
#include "util/status.hpp"

namespace pmtbr::sparse {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

CsrD identity_csr(index n) {
  Triplets<double> t(n, n);
  for (index i = 0; i < n; ++i) t.add(i, i, 1.0);
  return CsrD(t);
}

TEST(SpluContract, NumericallySingularThrowsRuntimeError) {
  // Rank 1: second row is a copy of the first. Every pivot candidate in the
  // second column vanishes after elimination.
  Triplets<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 1, 2.0);
  t.add(1, 0, 1.0);
  t.add(1, 1, 2.0);
  EXPECT_THROW(SparseLuD{CsrD(t)}, std::runtime_error);
}

TEST(SpluContract, StructurallyRankDeficientThrowsRuntimeError) {
  // Row 1 has no entries at all: no amount of pivoting can produce a
  // nonzero pivot for it.
  Triplets<double> t(3, 3);
  t.add(0, 0, 2.0);
  t.add(2, 2, 3.0);
  t.add(0, 2, 1.0);
  EXPECT_THROW(SparseLuD{CsrD(t)}, std::runtime_error);
}

TEST(SpluContract, EmptyColumnThrowsRuntimeError) {
  // Column 1 is structurally empty — the transposed deficiency.
  Triplets<double> t(3, 3);
  t.add(0, 0, 1.0);
  t.add(1, 0, 2.0);
  t.add(1, 2, 1.0);
  t.add(2, 2, 5.0);
  EXPECT_THROW(SparseLuD{CsrD(t)}, std::runtime_error);
}

TEST(SpluContract, NonSquareThrowsInvalidArgument) {
  Triplets<double> t(2, 3);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  EXPECT_THROW(SparseLuD{CsrD(t)}, std::invalid_argument);
}

TEST(SpluContract, RhsLengthMismatchThrowsInvalidArgument) {
  const SparseLuD lu(identity_csr(3));
  EXPECT_THROW(lu.solve(std::vector<double>(2, 1.0)), std::invalid_argument);
  EXPECT_THROW(lu.solve_transpose(std::vector<double>(4, 1.0)), std::invalid_argument);
}

TEST(SpluContract, BadPermutationLengthThrowsInvalidArgument) {
  EXPECT_THROW(SparseLuD(identity_csr(3), std::vector<index>{0, 1}), std::invalid_argument);
}

TEST(SpluContract, NonPermutationThrowsInvalidArgument) {
  // Right length, but an index out of range or one index twice. Either
  // would corrupt the factorization: an out-of-bounds write into the
  // inverse permutation, or a silently wrong solve.
  Triplets<double> t(3, 3);
  for (index i = 0; i < 3; ++i) t.add(i, i, static_cast<double>(i + 1));
  const CsrD m(t);
  EXPECT_THROW(SparseLuD(m, std::vector<index>{0, 1, 5}), std::invalid_argument);
  EXPECT_THROW(SparseLuD(m, std::vector<index>{0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(invert_permutation({0, 1, 5}), std::invalid_argument);
  EXPECT_THROW(invert_permutation({0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(invert_permutation({-1, 0, 1}), std::invalid_argument);
}

TEST(SpluContract, NanValueCaughtWhenFiniteChecksOn) {
  contracts::ScopedFiniteChecks on(true);
  Triplets<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, kNan);
  EXPECT_THROW(SparseLuD{CsrD(t)}, std::runtime_error);
}

TEST(SpluContract, WellPosedSystemStillSolves) {
  const SparseLuD lu(identity_csr(4));
  const std::vector<double> b{1.0, 2.0, 3.0, 4.0};
  const auto x = lu.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_DOUBLE_EQ(x[i], b[i]);
}

CsrD dense2x2(double a00, double a01, double a10, double a11) {
  Triplets<double> t(2, 2);
  t.add(0, 0, a00);
  t.add(0, 1, a01);
  t.add(1, 0, a10);
  t.add(1, 1, a11);
  return CsrD(t);
}

TEST(SpluContract, RefactorRejectsSameNnzDifferentLayout) {
  // The off-diagonals move from (0,1)/(1,0) to (0,2)/(2,0): same nnz,
  // another matrix. Replaying the analysis' slot map on it would factor the
  // wrong matrix and still report success.
  const auto build = [](index off) {
    Triplets<double> t(3, 3);
    for (index i = 0; i < 3; ++i) t.add(i, i, 4.0);
    t.add(0, off, 1.0);
    t.add(off, 0, 1.0);
    return CsrD(t);
  };
  const CsrD analyzed = build(1);
  const CsrD moved = build(2);
  ASSERT_EQ(analyzed.nnz(), moved.nnz());
  const SymbolicLuD symbolic(analyzed);
  EXPECT_THROW((void)SparseLuD::refactor(symbolic, moved), std::invalid_argument);
  EXPECT_TRUE(SparseLuD::refactor(symbolic, analyzed).is_ok());
}

TEST(SpluStatus, FactorReportsSingularityWithDetail) {
  Triplets<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 1, 2.0);
  t.add(1, 0, 1.0);
  t.add(1, 1, 2.0);
  const auto lu = SparseLuD::factor(CsrD(t));
  ASSERT_FALSE(lu.is_ok());
  EXPECT_EQ(lu.status().code(), util::ErrorCode::kSingularMatrix);
  EXPECT_EQ(lu.status().detail_index(), 1);  // elimination dies in column 1
}

TEST(SpluStatus, RefactorRejectsDegenerateFrozenPivotWithDetail) {
  // Representative prefers the diagonal pivot in column 0; the replayed
  // values make that frozen pivot 16 orders below the column's best
  // candidate — far under the replay's pivot floor of 1e-10.
  const auto base = SparseLuD::factor(dense2x2(1.0, 2.0, 3.0, 4.0));
  ASSERT_TRUE(base.is_ok());
  const SymbolicLuD symbolic = base.value().symbolic();

  const CsrD shaky = dense2x2(1e-16, 1.0, 1.0, 1.0);
  const auto replay = SparseLuD::refactor(symbolic, shaky);
  ASSERT_FALSE(replay.is_ok());
  EXPECT_EQ(replay.status().code(), util::ErrorCode::kDegeneratePivot);
  EXPECT_EQ(replay.status().detail_index(), 0);  // the degenerate pivot position
  EXPECT_NEAR(replay.status().detail_value(), 1e-16, 1e-18);

  // A replay whose frozen pivot is merely 2x below the best candidate is
  // accepted.
  EXPECT_TRUE(SparseLuD::refactor(symbolic, dense2x2(0.5, 1.0, 1.0, 1.0)).is_ok());
}

TEST(SpluStatus, InjectionSitesFireDeterministically) {
  {
    util::fault::ScopedFault guard(util::fault::Site::kSpluPivot, 1.0);
    const auto lu = SparseLuD::factor(identity_csr(3));
    ASSERT_FALSE(lu.is_ok());
    EXPECT_EQ(lu.status().code(), util::ErrorCode::kInjectedFault);
  }
  const auto base = SparseLuD::factor(identity_csr(3));
  ASSERT_TRUE(base.is_ok());
  {
    util::fault::ScopedFault guard(util::fault::Site::kSpluRefactor, 1.0);
    const auto replay = SparseLuD::refactor(base.value().symbolic(), identity_csr(3));
    ASSERT_FALSE(replay.is_ok());
    EXPECT_EQ(replay.status().code(), util::ErrorCode::kInjectedFault);
  }
  // Guards gone: both paths work again.
  EXPECT_TRUE(SparseLuD::factor(identity_csr(3)).is_ok());
  EXPECT_TRUE(SparseLuD::refactor(base.value().symbolic(), identity_csr(3)).is_ok());
}

}  // namespace
}  // namespace pmtbr::sparse
