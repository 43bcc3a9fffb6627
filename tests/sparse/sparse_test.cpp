// CSR storage, combine/shifted-pencil, RCM and AMD orderings, and sparse LU
// tests.
#include <gtest/gtest.h>

#include "la/lu.hpp"
#include "la/ops.hpp"
#include "sparse/amd.hpp"
#include "sparse/csr.hpp"
#include "sparse/rcm.hpp"
#include "sparse/splu.hpp"
#include "helpers.hpp"

namespace pmtbr::sparse {
namespace {

using la::MatD;
using pmtbr::Rng;

CsrD tridiag(index n, double diag, double off) {
  Triplets<double> t(n, n);
  for (index i = 0; i < n; ++i) {
    t.add(i, i, diag);
    if (i + 1 < n) {
      t.add(i, i + 1, off);
      t.add(i + 1, i, off);
    }
  }
  return CsrD(t);
}

CsrD random_sparse(index n, double density, Rng& rng) {
  Triplets<double> t(n, n);
  for (index i = 0; i < n; ++i) {
    t.add(i, i, 4.0 + rng.uniform());  // keep it comfortably nonsingular
    for (index j = 0; j < n; ++j)
      if (i != j && rng.uniform() < density) t.add(i, j, rng.normal());
  }
  return CsrD(t);
}

TEST(Csr, TripletsSumDuplicates) {
  Triplets<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 0, 2.5);
  t.add(1, 0, -1.0);
  const CsrD m(t);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(Csr, ZeroEntriesSkipped) {
  Triplets<double> t(2, 2);
  t.add(0, 1, 0.0);
  EXPECT_EQ(t.nnz(), 0u);
}

TEST(Csr, OutOfRangeThrows) {
  Triplets<double> t(2, 2);
  EXPECT_THROW(t.add(2, 0, 1.0), std::invalid_argument);
}

TEST(Csr, MatvecMatchesDense) {
  Rng rng(41);
  const CsrD m = random_sparse(20, 0.2, rng);
  const MatD d = m.to_dense();
  const auto x = rng.normal_vec(20);
  const auto ys = m.matvec(x);
  const auto yd = la::matvec(d, x);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(Csr, MatvecTransposeMatchesDense) {
  Rng rng(42);
  const CsrD m = random_sparse(15, 0.3, rng);
  const MatD dt = la::transpose(m.to_dense());
  const auto x = rng.normal_vec(15);
  const auto ys = m.matvec_transpose(x);
  const auto yd = la::matvec(dt, x);
  for (std::size_t i = 0; i < 15; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);
}

TEST(Csr, CombineUnionPattern) {
  Triplets<double> ta(2, 2), tb(2, 2);
  ta.add(0, 0, 1.0);
  tb.add(1, 1, 2.0);
  tb.add(0, 0, 3.0);
  const CsrD c = combine(2.0, CsrD(ta), -1.0, CsrD(tb));
  EXPECT_DOUBLE_EQ(c.at(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), -2.0);
}

TEST(Csr, ShiftedPencil) {
  Triplets<double> te(2, 2), ta(2, 2);
  te.add(0, 0, 2.0);
  ta.add(0, 0, -1.0);
  ta.add(1, 1, -3.0);
  const CsrC p = shifted_pencil(la::cd(0.0, 1.0), CsrD(te), CsrD(ta));
  EXPECT_NEAR(p.at(0, 0).real(), 1.0, 1e-15);   // -(-1)
  EXPECT_NEAR(p.at(0, 0).imag(), 2.0, 1e-15);   // 1i * 2
  EXPECT_NEAR(p.at(1, 1).real(), 3.0, 1e-15);
}

TEST(Rcm, PermutationIsValid) {
  Rng rng(43);
  const CsrD m = random_sparse(30, 0.1, rng);
  for (const auto& p : {rcm_ordering(m), amd_ordering(m)}) {
    ASSERT_EQ(p.size(), 30u);
    std::vector<char> seen(30, 0);
    for (index v : p) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, 30);
      EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
      seen[static_cast<std::size_t>(v)] = 1;
    }
  }
}

TEST(Rcm, ReducesTridiagonalBandwidthUnderShuffle) {
  // A shuffled tridiagonal matrix: RCM should recover bandwidth O(1).
  const index n = 40;
  Rng rng(44);
  const auto shuffle = rng.permutation(static_cast<std::size_t>(n));
  Triplets<double> t(n, n);
  const auto sid = [&](index i) { return static_cast<index>(shuffle[static_cast<std::size_t>(i)]); };
  for (index i = 0; i < n; ++i) {
    t.add(sid(i), sid(i), 4.0);
    if (i + 1 < n) {
      t.add(sid(i), sid(i + 1), -1.0);
      t.add(sid(i + 1), sid(i), -1.0);
    }
  }
  const CsrD m(t);
  const auto p = rcm_ordering(m);
  const CsrD pm = permute_symmetric(m, p);
  index bw = 0;
  for (index i = 0; i < n; ++i)
    for (index k = pm.row_ptr()[static_cast<std::size_t>(i)];
         k < pm.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k)
      bw = std::max(bw, std::abs(i - pm.col_idx()[static_cast<std::size_t>(k)]));
  EXPECT_LE(bw, 3);
}

TEST(Rcm, InvertPermutationRoundTrip) {
  std::vector<index> p{2, 0, 1};
  const auto inv = invert_permutation(p);
  EXPECT_EQ(inv[2], 0);
  EXPECT_EQ(inv[0], 1);
  EXPECT_EQ(inv[1], 2);
}

TEST(SparseLu, SolvesTridiagonal) {
  const index n = 25;
  const CsrD m = tridiag(n, 4.0, -1.0);
  const SparseLuD lu(m);
  Rng rng(45);
  const auto b = rng.normal_vec(static_cast<std::size_t>(n));
  const auto x = lu.solve(b);
  const auto back = m.matvec(x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(back[i], b[i], 1e-11);
}

TEST(SparseLu, MatchesDenseLuOnRandom) {
  Rng rng(46);
  const CsrD m = random_sparse(30, 0.15, rng);
  const auto b = rng.normal_vec(30);
  const auto xs = SparseLuD(m).solve(b);
  const auto xd = la::LuD(m.to_dense()).solve(b);
  for (std::size_t i = 0; i < 30; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

TEST(SparseLu, WithRcmOrdering) {
  Rng rng(47);
  const CsrD m = random_sparse(40, 0.08, rng);
  const auto b = rng.normal_vec(40);
  const auto x = SparseLuD(m, rcm_ordering(m)).solve(b);
  const auto back = m.matvec(x);
  for (std::size_t i = 0; i < 40; ++i) EXPECT_NEAR(back[i], b[i], 1e-9);
}

TEST(SparseLu, TransposeSolve) {
  Rng rng(48);
  const CsrD m = random_sparse(20, 0.2, rng);
  const auto b = rng.normal_vec(20);
  const auto x = SparseLuD(m).solve_transpose(b);
  const auto back = m.matvec_transpose(x);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(back[i], b[i], 1e-10);
}

TEST(SparseLu, ComplexShiftedSystem) {
  const index n = 30;
  const CsrD e = tridiag(n, 1.0, 0.1);
  const CsrD a = tridiag(n, -2.0, 0.5);
  const la::cd s(0.3, 2.0);
  const CsrC pencil = shifted_pencil(s, e, a);
  const SparseLuC lu(pencil);
  std::vector<la::cd> b(static_cast<std::size_t>(n));
  Rng rng(49);
  for (auto& v : b) v = la::cd(rng.normal(), rng.normal());
  const auto x = lu.solve(b);
  const auto back = pencil.matvec(x);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(back[i].real(), b[i].real(), 1e-10);
    EXPECT_NEAR(back[i].imag(), b[i].imag(), 1e-10);
  }
}

TEST(SparseLu, SingularThrows) {
  Triplets<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 1, 1.0);  // second row empty -> structurally singular
  const CsrD m(t);
  EXPECT_THROW(SparseLuD{m}, std::runtime_error);
}

class SparseLuSizes : public ::testing::TestWithParam<int> {};

TEST_P(SparseLuSizes, ResidualSmallWithOrdering) {
  const index n = GetParam();
  Rng rng(500 + static_cast<std::uint64_t>(n));
  const CsrD m = random_sparse(n, 4.0 / static_cast<double>(n), rng);
  const auto b = rng.normal_vec(static_cast<std::size_t>(n));
  for (const auto& perm : {rcm_ordering(m), amd_ordering(m)}) {
    const auto x = SparseLuD(m, perm).solve(b);
    const auto back = m.matvec(x);
    for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(back[i], b[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseLuSizes, ::testing::Values(5, 10, 50, 100, 300));

}  // namespace
}  // namespace pmtbr::sparse
