// Pivot-free LDLᵀ for symmetric pencils: the pattern-only analysis and the
// numeric factor must agree with the pivoting LU on every RC generator, fall
// back to LU when a diagonal pivot vanishes, and keep the LU's counters,
// injection sites and layout contract. The lane-batched factor must give
// every shift the bits of its one-lane factor, whatever the grouping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuit/descriptor.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "la/lu.hpp"
#include "sparse/csr.hpp"
#include "sparse/factor_cache.hpp"
#include "sparse/splu.hpp"
#include "util/faultinject.hpp"
#include "util/obs/counters.hpp"

namespace pmtbr::sparse {
namespace {

using la::cd;
using la::index;

std::vector<cd> rhs_vector(index n) {
  std::vector<cd> b(static_cast<std::size_t>(n));
  for (index i = 0; i < n; ++i)
    b[static_cast<std::size_t>(i)] =
        cd(std::sin(static_cast<double>(i) + 1.0), std::cos(2.0 * static_cast<double>(i)));
  return b;
}

double max_abs(const std::vector<cd>& v) {
  double m = 0.0;
  for (const cd& x : v) m = std::max(m, std::abs(x));
  return m;
}

double max_rel_diff(const std::vector<cd>& x, const std::vector<cd>& ref) {
  std::vector<cd> d(ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) d[i] = x[i] - ref[i];
  return max_abs(d) / max_abs(ref);
}

// Normwise backward error ‖Ax − b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞) of a solve, given
// the product Ax.
double backward_error(const la::MatC& dense, const std::vector<cd>& ax,
                      const std::vector<cd>& x, const std::vector<cd>& b) {
  double norm_a = 0.0;
  for (index i = 0; i < dense.rows(); ++i) {
    double row = 0.0;
    for (index j = 0; j < dense.cols(); ++j) row += std::abs(dense(i, j));
    norm_a = std::max(norm_a, row);
  }
  std::vector<cd> r(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) r[i] = ax[i] - b[i];
  return max_abs(r) / (norm_a * max_abs(x) + max_abs(b));
}

// κ₁(A) from a dense inverse (small systems only).
double cond1(const la::MatC& dense) {
  const auto norm1 = [](const la::MatC& m) {
    double best = 0.0;
    for (index j = 0; j < m.cols(); ++j) {
      double col = 0.0;
      for (index i = 0; i < m.rows(); ++i) col += std::abs(m(i, j));
      best = std::max(best, col);
    }
    return best;
  };
  la::MatC eye(dense.rows(), dense.cols());
  for (index i = 0; i < dense.rows(); ++i) eye(i, i) = 1.0;
  return norm1(dense) * norm1(la::LuC(dense).solve(eye));
}

// RC network with a floating (node-to-node) capacitor and no resistive path
// to ground: E is symmetric but not diagonal, and G is singular.
DescriptorSystem floating_capacitor_rc() {
  circuit::Netlist nl;
  nl.ensure_node(12);
  for (index k = 1; k <= 12; ++k) {
    nl.add_capacitor(k, 0, 1e-12);
    if (k < 12) nl.add_resistor(k, k + 1, 10.0);
    if (k + 4 <= 12) nl.add_resistor(k, k + 4, 20.0);
  }
  nl.add_capacitor(3, 9, 5e-13);
  nl.add_port(1);
  return circuit::assemble_mna(nl);
}

// Each test owns the injection state, so an ambient PMTBR_FAULTS does not
// reach the factors it compares.
class Ldlt : public ::testing::Test {
 protected:
  void SetUp() override { util::fault::clear(); }
  void TearDown() override { util::fault::clear(); }
};

struct RcCase {
  std::string name;
  DescriptorSystem sys;
  bool dc_nonsingular;  // G has a resistive path to ground from every node
};

std::vector<RcCase> rc_cases() {
  std::vector<RcCase> cases;
  cases.push_back({"line", circuit::make_rc_line({.segments = 80}), true});
  cases.push_back({"mesh", circuit::make_rc_mesh({.rows = 14, .cols = 14, .num_ports = 4}), true});
  cases.push_back({"clock_tree", circuit::make_clock_tree({.levels = 6}), true});
  cases.push_back({"multiport", circuit::make_multiport_rc({.lines = 8, .segments = 6}), true});
  cases.push_back({"substrate", circuit::make_substrate({.grid = 10, .num_ports = 12}), true});
  cases.push_back({"floating_cap", floating_capacitor_rc(), false});
  return cases;
}

TEST_F(Ldlt, MatchesPivotingLuOnRcGenerators) {
  // Three shifts across the 0–10 GHz band the PMTBR tests sample these
  // circuits on: DC where G is nonsingular (else 1 MHz), 100 MHz, 10 GHz.
  // Both factors must solve backward stably, and agree to 1e-12 relative
  // wherever κ₁ of the pencil is at most 1e4. Above that, two stable
  // solvers differ in proportion to κ₁: the line's and the bus's only path
  // to ground at DC is a 1e6·R leak (κ₁ = 3e8 and 3e7), and there the
  // pivoting LU under AMD and under RCM already differ by 5e-10.
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  for (const RcCase& c : rc_cases()) {
    SCOPED_TRACE(c.name);
    const DescriptorSystem& sys = c.sys;
    const std::vector<cd> shifts{cd(0.0, c.dc_nonsingular ? 0.0 : kTwoPi * 1e6),
                                 cd(0.0, kTwoPi * 1e8), cd(0.0, kTwoPi * 1e10)};
    const CsrC pattern = shifted_pencil(shifts.back(), sys.e(), sys.a());
    const auto analysis = SymbolicLuC::symmetric(pattern, sys.ordering());
    EXPECT_EQ(analysis.kind(), FactorKind::kLdlt);
    const SymbolicLuC lu_analysis(pattern, sys.ordering());
    EXPECT_EQ(lu_analysis.kind(), FactorKind::kLu);
    EXPECT_EQ(analysis.nnz_factors(), lu_analysis.nnz_factors());

    const std::vector<cd> b = rhs_vector(sys.n());
    for (const cd s : shifts) {
      SCOPED_TRACE(s.imag());
      const CsrC pencil = shifted_pencil(s, sys.e(), sys.a());
      const auto ldlt = SparseLuC::refactor(analysis, pencil);
      ASSERT_TRUE(ldlt.is_ok()) << ldlt.status().to_string();
      EXPECT_EQ(ldlt.value().symbolic().kind(), FactorKind::kLdlt);
      const auto lu = SparseLuC::factor(pencil, sys.ordering());
      ASSERT_TRUE(lu.is_ok());
      const la::MatC dense = pencil.to_dense();
      const double tol = 1e-12 * std::max(1.0, cond1(dense) / 1e4);
      const std::vector<cd> x = ldlt.value().solve(b);
      const std::vector<cd> xt = ldlt.value().solve_transpose(b);
      EXPECT_LE(backward_error(dense, pencil.matvec(x), x, b), 1e-15);
      EXPECT_LE(backward_error(dense, pencil.matvec_transpose(xt), xt, b), 1e-15);
      EXPECT_LE(max_rel_diff(x, lu.value().solve(b)), tol);
      EXPECT_LE(max_rel_diff(xt, lu.value().solve_transpose(b)), tol);
    }
  }
}

TEST_F(Ldlt, VanishingDiagonalPivotFallsBackToLu) {
  // E = I and A = -[[0,1,0],[1,0,0],[0,0,2]]: symmetric, so the pencil gets
  // the LDLᵀ analysis, but at s = 0 the [[0,1],[1,0]] block has no usable
  // diagonal pivot. The numeric factor must reject it and the pivoting LU
  // must still solve exactly.
  Triplets<double> te(3, 3), ta(3, 3);
  for (index i = 0; i < 3; ++i) te.add(i, i, 1.0);
  ta.add(0, 1, -1.0);
  ta.add(1, 0, -1.0);
  ta.add(2, 2, -2.0);
  la::MatD b(3, 1), c(1, 3);
  b(0, 0) = 1.0;
  c(0, 0) = 1.0;
  const DescriptorSystem sys(CsrD(te), CsrD(ta), b, c);

  la::MatC rhs(3, 1);
  rhs(0, 0) = cd(1.0, 2.0);
  rhs(1, 0) = cd(3.0, -1.0);
  rhs(2, 0) = cd(4.0, 0.0);
  FactorCache::global().clear();
  const auto rejects = obs::counter_value(obs::Counter::kSparseLuRefactorReject);
  const auto full = obs::counter_value(obs::Counter::kSparseLuFullFactor);
  const la::MatC x = sys.solve_shifted(cd(0.0, 0.0), rhs);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuRefactorReject), rejects + 1);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuFullFactor), full + 1);
  EXPECT_EQ(x(0, 0), rhs(1, 0));
  EXPECT_EQ(x(1, 0), rhs(0, 0));
  EXPECT_EQ(x(2, 0), cd(2.0, 0.0));

  // The same pencil's analysis, used directly, reports the degenerate pivot.
  const CsrC pencil = shifted_pencil(cd(0.0, 0.0), sys.e(), sys.a());
  const auto analysis = SymbolicLuC::symmetric(pencil, sys.ordering());
  const auto ldlt = SparseLuC::refactor(analysis, pencil);
  ASSERT_FALSE(ldlt.is_ok());
  EXPECT_EQ(ldlt.status().code(), util::ErrorCode::kDegeneratePivot);
  EXPECT_EQ(ldlt.status().detail_value(), 0.0);
}

TEST_F(Ldlt, CountersKeepTheirLuMeaning) {
  const DescriptorSystem sys = circuit::make_rc_mesh({.rows = 6, .cols = 6, .num_ports = 1});
  const CsrC pencil = shifted_pencil(cd(0.0, 1e9), sys.e(), sys.a());
  const auto analysis = SymbolicLuC::symmetric(pencil, sys.ordering());
  const auto full = obs::counter_value(obs::Counter::kSparseLuFullFactor);
  const auto refactors = obs::counter_value(obs::Counter::kSparseLuRefactor);
  const auto entries = obs::counter_value(obs::Counter::kSparseLuFactorEntries);
  const auto ldlt = SparseLuC::refactor(analysis, pencil);
  ASSERT_TRUE(ldlt.is_ok());
  // A numeric factor against a frozen analysis: a refactor, not a full
  // factor, adding nnz(L+U) of the equivalent LU, 2·nnz(L) + n.
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuFullFactor), full);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuRefactor), refactors + 1);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuFactorEntries),
            entries + static_cast<std::int64_t>(analysis.nnz_factors()));
  // It stores L and D only: half the off-diagonal scalars of the LU.
  const std::size_t l_entries = ldlt.value().nnz_factors() / 2;
  EXPECT_EQ(ldlt.value().stored_values(), l_entries + static_cast<std::size_t>(sys.n()));
  const auto lu = SparseLuC::factor(pencil, sys.ordering());
  ASSERT_TRUE(lu.is_ok());
  EXPECT_EQ(lu.value().nnz_factors(), ldlt.value().nnz_factors());
  EXPECT_EQ(lu.value().stored_values(), 2 * l_entries + static_cast<std::size_t>(sys.n()));
}

TEST_F(Ldlt, InjectionSitesMatchTheLuAnalysisAndReplay) {
  const DescriptorSystem sys = circuit::make_rc_line({.segments = 10});
  const CsrC pencil = shifted_pencil(cd(0.0, 1e9), sys.e(), sys.a());
  {
    // Neither analysis answers a site: a system builds its analysis once,
    // in whichever solve asks first, where no keyed decision belongs.
    util::fault::ScopedFault guard(util::fault::Site::kSpluPivot, 1.0);
    EXPECT_EQ(SymbolicLuC::symmetric(pencil, sys.ordering()).kind(), FactorKind::kLdlt);
    EXPECT_TRUE(SymbolicLuC::lu(pencil, sys.ordering()).is_ok());
  }
  const auto analysis = SymbolicLuC::symmetric(pencil, sys.ordering());
  {
    util::fault::ScopedFault guard(util::fault::Site::kSpluRefactor, 1.0);
    const auto rejects = obs::counter_value(obs::Counter::kSparseLuRefactorReject);
    const auto ldlt = SparseLuC::refactor(analysis, pencil);
    ASSERT_FALSE(ldlt.is_ok());
    EXPECT_EQ(ldlt.status().code(), util::ErrorCode::kInjectedFault);
    EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuRefactorReject), rejects + 1);
  }
  EXPECT_TRUE(SparseLuC::refactor(analysis, pencil).is_ok());
}

TEST_F(Ldlt, RejectsForeignLayoutAndAsymmetricInput) {
  const auto build = [](index off, double upper) {
    Triplets<double> t(3, 3);
    for (index i = 0; i < 3; ++i) t.add(i, i, 4.0);
    t.add(0, off, upper);
    t.add(off, 0, 1.0);
    return CsrD(t);
  };
  const auto analysis = SymbolicLuD::symmetric(build(1, 1.0));
  EXPECT_TRUE(SparseLuD::refactor(analysis, build(1, 1.0)).is_ok());
  // Same nnz, another layout.
  EXPECT_THROW((void)SparseLuD::refactor(analysis, build(2, 1.0)), std::invalid_argument);
  // Same layout, values that are not symmetric.
  EXPECT_THROW((void)SparseLuD::refactor(analysis, build(1, 2.0)), std::invalid_argument);
  // A structurally unsymmetric pattern has no LDLᵀ analysis.
  Triplets<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 1, 1.0);
  t.add(1, 1, 1.0);
  EXPECT_THROW((void)SymbolicLuD::symmetric(CsrD(t)), std::invalid_argument);
  EXPECT_THROW((void)SymbolicLuD::symmetric(CsrD(2, 3, {0, 0, 0}, {}, {})), std::invalid_argument);
}

bool same_bits(const la::MatC& x, const la::MatC& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(cd)) == 0;
}

// Seventeen shifts across 1e5–1e11 Hz, starting at DC when `dc`.
std::vector<cd> lane_shifts(bool dc) {
  std::vector<cd> shifts;
  for (int k = 0; k < 17; ++k)
    shifts.emplace_back(0.0, 2.0 * std::numbers::pi * 1e5 * std::pow(10.0, 0.375 * k));
  if (dc) shifts.front() = cd(0.0, 0.0);
  return shifts;
}

// B's columns, then a dense complex column that exercises every lane's
// imaginary parts from the first forward-substitution step on.
la::MatC lane_rhs(const DescriptorSystem& sys) {
  la::MatC rhs(sys.n(), sys.num_inputs() + 1);
  const std::vector<cd> dense = rhs_vector(sys.n());
  for (index i = 0; i < sys.n(); ++i) {
    for (index j = 0; j < sys.num_inputs(); ++j) rhs(i, j) = sys.b()(i, j);
    rhs(i, sys.num_inputs()) = dense[static_cast<std::size_t>(i)];
  }
  return rhs;
}

TEST_F(Ldlt, LanesMatchOneLaneFactorsBitForBit) {
  // Every group width (1–8) and ragged counts that split into several
  // groups (9 = 8 + 1, 17 = 8 + 8 + 1, 3 padded to 4), on meshes of both
  // benchmark sizes, a 4-port mesh and an RC line sampled at DC. Each X
  // must equal the one-lane factor's solve of the same pencil bit for bit.
  struct Case {
    std::string name;
    DescriptorSystem sys;
    bool dc;
  };
  std::vector<Case> cases;
  const auto mesh = [](index side, index ports) {
    return circuit::make_rc_mesh({.rows = side, .cols = side, .num_ports = ports});
  };
  cases.push_back({"mesh20", mesh(20, 1), false});
  cases.push_back({"mesh40", mesh(40, 1), false});
  cases.push_back({"mesh14x4", mesh(14, 4), false});
  cases.push_back({"line_dc", circuit::make_rc_line({.segments = 80}), true});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<cd> shifts = lane_shifts(c.dc);
    const auto pencil_at = [&](cd s) { return shifted_pencil(s, c.sys.e(), c.sys.a()); };
    const auto analysis = SymbolicLuC::symmetric(pencil_at(shifts.back()), c.sys.ordering());
    const la::MatC rhs = lane_rhs(c.sys);
    std::vector<la::MatC> one_lane;
    for (const cd s : shifts) {
      const auto lu = SparseLuC::refactor(analysis, pencil_at(s));
      ASSERT_TRUE(lu.is_ok()) << lu.status().to_string();
      one_lane.push_back(lu.value().solve(rhs));
    }
    const ShiftedPencil pencil(c.sys.e(), c.sys.a());
    for (const std::size_t count : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17}) {
      SCOPED_TRACE(count);
      const auto xs = solve_lanes(analysis, pencil, std::span(shifts).subspan(0, count), rhs);
      ASSERT_EQ(xs.size(), count);
      for (std::size_t k = 0; k < count; ++k) {
        ASSERT_TRUE(xs[k].is_ok()) << xs[k].status().to_string();
        EXPECT_TRUE(same_bits(xs[k].value(), one_lane[k])) << "shift " << k;
      }
    }
  }
}

TEST_F(Ldlt, LaneWithVanishingPivotIsRejectedAlone) {
  // The pencil of VanishingDiagonalPivotFallsBackToLu has no usable
  // diagonal pivot at s = 0. As the middle lane of a group it alone is
  // rejected, with refactor()'s detail; its neighbours keep their one-lane
  // bits, and the counters see two refactors and one reject.
  Triplets<double> te(3, 3), ta(3, 3);
  for (index i = 0; i < 3; ++i) te.add(i, i, 1.0);
  ta.add(0, 1, -1.0);
  ta.add(1, 0, -1.0);
  ta.add(2, 2, -2.0);
  const CsrD e(te), a(ta);
  const std::vector<cd> shifts{cd(0.5, 1.0), cd(0.0, 0.0), cd(2.0, -3.0)};
  const auto analysis = SymbolicLuC::symmetric(shifted_pencil(shifts[0], e, a));
  la::MatC rhs(3, 1);
  rhs(0, 0) = cd(1.0, 2.0);
  rhs(1, 0) = cd(3.0, -1.0);
  rhs(2, 0) = cd(4.0, 0.0);
  const auto refactors = obs::counter_value(obs::Counter::kSparseLuRefactor);
  const auto rejects = obs::counter_value(obs::Counter::kSparseLuRefactorReject);
  const auto groups = obs::counter_value(obs::Counter::kSparseLdltLaneGroups);
  const auto lanes = obs::counter_value(obs::Counter::kSparseLdltLanes);
  const auto xs = solve_lanes(analysis, ShiftedPencil(e, a), shifts, rhs);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuRefactor), refactors + 2);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuRefactorReject), rejects + 1);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLdltLaneGroups), groups + 1);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLdltLanes), lanes + 3);
  ASSERT_EQ(xs.size(), 3u);
  ASSERT_FALSE(xs[1].is_ok());
  EXPECT_EQ(xs[1].status().code(), util::ErrorCode::kDegeneratePivot);
  EXPECT_EQ(xs[1].status().detail_value(), 0.0);
  for (const std::size_t k : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(xs[k].is_ok());
    const auto lu = SparseLuC::refactor(analysis, shifted_pencil(shifts[k], e, a));
    ASSERT_TRUE(lu.is_ok());
    EXPECT_TRUE(same_bits(xs[k].value(), lu.value().solve(rhs))) << "shift " << k;
  }
}

TEST_F(Ldlt, LanesRejectForeignLayoutAndAsymmetricInput) {
  // RejectsForeignLayoutAndAsymmetricInput for the lane-batched entry
  // point: E and A are checked once, on the layout they share.
  const auto build = [](index off, double upper) {
    Triplets<double> t(3, 3);
    for (index i = 0; i < 3; ++i) t.add(i, i, 4.0);
    t.add(0, off, upper);
    t.add(off, 0, 1.0);
    return CsrD(t);
  };
  const CsrD eye = [] {
    Triplets<double> t(3, 3);
    for (index i = 0; i < 3; ++i) t.add(i, i, 1.0);
    return CsrD(t);
  }();
  const std::vector<cd> shifts{cd(0.0, 1.0), cd(0.0, 2.0), cd(0.0, 3.0)};
  const auto analysis = SymbolicLuC::symmetric(shifted_pencil(shifts[0], eye, build(1, 1.0)));
  const la::MatC rhs(3, 1);
  const auto xs = solve_lanes(analysis, ShiftedPencil(eye, build(1, 1.0)), shifts, rhs);
  for (const auto& x : xs) EXPECT_TRUE(x.is_ok());
  // Same nnz, another layout.
  EXPECT_THROW((void)solve_lanes(analysis, ShiftedPencil(eye, build(2, 1.0)), shifts, rhs),
               std::invalid_argument);
  // Same layout, values that are not symmetric: in A, then in E.
  EXPECT_THROW((void)solve_lanes(analysis, ShiftedPencil(eye, build(1, 2.0)), shifts, rhs),
               std::invalid_argument);
  EXPECT_THROW((void)solve_lanes(analysis, ShiftedPencil(build(1, 2.0), eye), shifts, rhs),
               std::invalid_argument);
  // An LU analysis has no lanes.
  const SymbolicLuC lu_analysis(shifted_pencil(shifts[0], eye, build(1, 1.0)));
  EXPECT_THROW((void)solve_lanes(lu_analysis, ShiftedPencil(eye, build(1, 1.0)), shifts, rhs),
               std::invalid_argument);
}

}  // namespace
}  // namespace pmtbr::sparse
