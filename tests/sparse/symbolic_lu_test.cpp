// Symbolic/numeric LU split: one SymbolicLu analysis must produce correct
// numeric factorizations across many shifts of the same pencil pattern.
#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "circuit/generators.hpp"
#include "la/lu.hpp"
#include "la/ops.hpp"
#include "sparse/csr.hpp"
#include "sparse/splu.hpp"

namespace pmtbr::sparse {
namespace {

using la::cd;
using la::index;

std::vector<cd> random_rhs(index n) {
  std::vector<cd> b(static_cast<std::size_t>(n));
  for (index i = 0; i < n; ++i)
    b[static_cast<std::size_t>(i)] =
        cd(std::sin(static_cast<double>(i) + 1.0), std::cos(2.0 * static_cast<double>(i)));
  return b;
}

double relative_residual(const CsrC& a, const std::vector<cd>& x, const std::vector<cd>& b) {
  const auto ax = a.matvec(x);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    num += std::norm(ax[i] - b[i]);
    den += std::norm(b[i]);
  }
  return std::sqrt(num / den);
}

TEST(SymbolicLu, OneAnalysisServesManyShifts) {
  circuit::RcLineParams p;
  p.segments = 60;
  const auto sys = circuit::make_rc_line(p);

  // Shifts spanning six decades — far from the representative used for the
  // symbolic analysis.
  const std::vector<cd> shifts{cd(0.0, 1e6), cd(0.0, 1e9), cd(0.0, 1e12), cd(1e7, 5e8)};
  const SymbolicLuC symbolic(shifted_pencil(shifts.front(), sys.e(), sys.a()), sys.ordering());
  EXPECT_EQ(symbolic.n(), sys.n());
  EXPECT_GT(symbolic.nnz_factors(), 0u);

  const auto b = random_rhs(sys.n());
  for (const cd s : shifts) {
    const CsrC pencil = shifted_pencil(s, sys.e(), sys.a());
    const auto lu = SparseLuC::refactor(symbolic, pencil);
    ASSERT_TRUE(lu.is_ok()) << "refactor rejected shift " << s.real() << "+" << s.imag() << "i";
    EXPECT_LT(relative_residual(pencil, lu->solve(b), b), 1e-10);
  }
}

TEST(SymbolicLu, RefactorMatchesFullFactorization) {
  circuit::RcMeshParams p;
  p.rows = 8;
  p.cols = 8;
  p.num_ports = 2;
  const auto sys = circuit::make_rc_mesh(p);

  const cd s0(0.0, 2e9);
  const cd s1(0.0, 7e10);
  const SymbolicLuC symbolic(shifted_pencil(s0, sys.e(), sys.a()), sys.ordering());
  const CsrC pencil = shifted_pencil(s1, sys.e(), sys.a());
  const auto refac = SparseLuC::refactor(symbolic, pencil);
  ASSERT_TRUE(refac.is_ok());
  const SparseLuC full(pencil, sys.ordering());

  const auto b = random_rhs(sys.n());
  const auto x_re = refac->solve(b);
  const auto x_full = full.solve(b);
  for (std::size_t i = 0; i < x_re.size(); ++i)
    EXPECT_LT(std::abs(x_re[i] - x_full[i]), 1e-9 * (1.0 + std::abs(x_full[i]))) << i;
}

TEST(SymbolicLu, RefactorSupportsTransposeAndAdjointSolves) {
  circuit::RcLineParams p;
  p.segments = 25;
  const auto sys = circuit::make_rc_line(p);

  const cd s0(0.0, 1e8);
  const cd s1(0.0, 4e10);
  const SymbolicLuC symbolic(shifted_pencil(s0, sys.e(), sys.a()), sys.ordering());
  const CsrC pencil = shifted_pencil(s1, sys.e(), sys.a());
  const auto lu = SparseLuC::refactor(symbolic, pencil);
  ASSERT_TRUE(lu.is_ok());

  const la::MatC dense = pencil.to_dense();
  const auto b = random_rhs(sys.n());

  // A^T x = b via dense reference.
  const la::LuC dense_t(la::transpose(dense));
  const auto xt = lu->solve_transpose(b);
  const auto xt_ref = dense_t.solve(b);
  for (std::size_t i = 0; i < xt.size(); ++i)
    EXPECT_LT(std::abs(xt[i] - xt_ref[i]), 1e-8 * (1.0 + std::abs(xt_ref[i])));
}

TEST(SymbolicLu, SymbolicHarvestedFromFullFactorization) {
  circuit::RcLineParams p;
  p.segments = 30;
  const auto sys = circuit::make_rc_line(p);

  const cd s0(0.0, 1e9);
  const CsrC pencil0 = shifted_pencil(s0, sys.e(), sys.a());
  const SparseLuC full(pencil0, sys.ordering());
  const SymbolicLuC symbolic = full.symbolic();

  const cd s1(0.0, 3e11);
  const CsrC pencil1 = shifted_pencil(s1, sys.e(), sys.a());
  const auto lu = SparseLuC::refactor(symbolic, pencil1);
  ASSERT_TRUE(lu.is_ok());
  const auto b = random_rhs(sys.n());
  EXPECT_LT(relative_residual(pencil1, lu->solve(b), b), 1e-10);
}

TEST(SymbolicLu, RejectsPatternMismatch) {
  circuit::RcLineParams p;
  p.segments = 10;
  const auto sys = circuit::make_rc_line(p);
  const SymbolicLuC symbolic(shifted_pencil(cd(0.0, 1e9), sys.e(), sys.a()), sys.ordering());

  circuit::RcLineParams p2;
  p2.segments = 12;  // different size
  const auto other = circuit::make_rc_line(p2);
  EXPECT_THROW((void)SparseLuC::refactor(symbolic,
                                         shifted_pencil(cd(0.0, 1e9), other.e(), other.a())),
               std::invalid_argument);
}

}  // namespace
}  // namespace pmtbr::sparse
