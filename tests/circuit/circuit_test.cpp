// Netlist / MNA assembly tests: analytic transfer functions, passivity
// structure, and descriptor-system plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "circuit/descriptor.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "la/eig_sym.hpp"
#include "la/lu.hpp"
#include "la/ops.hpp"
#include "sparse/amd.hpp"
#include "sparse/factor_cache.hpp"
#include "sparse/rcm.hpp"
#include "util/faultinject.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/trace.hpp"
#include "helpers.hpp"

namespace pmtbr::circuit {
namespace {

using la::cd;
using la::MatD;

TEST(Netlist, NodeBookkeeping) {
  Netlist nl;
  EXPECT_EQ(nl.add_node(), 1);
  EXPECT_EQ(nl.add_node(), 2);
  nl.ensure_node(10);
  EXPECT_EQ(nl.num_nodes(), 10);
}

TEST(Netlist, RejectsBadElements) {
  Netlist nl;
  const auto n1 = nl.add_node();
  EXPECT_THROW(nl.add_resistor(n1, n1, 1.0), std::invalid_argument);
  EXPECT_THROW(nl.add_resistor(n1, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(nl.add_capacitor(n1, 5, 1e-12), std::invalid_argument);
  EXPECT_THROW(nl.add_port(0), std::invalid_argument);
}

TEST(Netlist, MutualRequiresKnownInductors) {
  Netlist nl;
  const auto n1 = nl.add_node();
  const auto n2 = nl.add_node();
  const auto l0 = nl.add_inductor(n1, n2, 1e-9);
  EXPECT_THROW(nl.add_mutual(l0, 5, 1e-10), std::invalid_argument);
  EXPECT_THROW(nl.add_mutual(l0, l0, 1e-10), std::invalid_argument);
}

TEST(Mna, ParallelRcAnalytic) {
  // One node: R and C to ground, current port. Z(s) = R / (1 + sRC).
  Netlist nl;
  const auto n1 = nl.add_node();
  const double r = 100.0, c = 1e-12;
  nl.add_resistor(n1, 0, r);
  nl.add_capacitor(n1, 0, c);
  nl.add_port(n1);
  const DescriptorSystem sys = assemble_mna(nl);
  EXPECT_EQ(sys.n(), 1);
  for (const double f : {0.0, 1e8, 1e9, 1e10}) {
    const cd s(0.0, 2.0 * std::numbers::pi * f);
    const cd z = sys.transfer(s)(0, 0);
    const cd expected = r / (1.0 + s * r * c);
    EXPECT_NEAR(std::abs(z - expected), 0.0, 1e-9 * std::abs(expected));
  }
}

TEST(Mna, SeriesRlcAnalytic) {
  // Port -> node1; R from node1 to node2, L from node2 to ground, C from
  // node1 to ground. Z(s) = (R + sL) || (1/(sC)).
  Netlist nl;
  const auto n1 = nl.add_node();
  const auto n2 = nl.add_node();
  const double r = 2.0, l = 1e-9, c = 1e-12;
  nl.add_resistor(n1, n2, r);
  nl.add_inductor(n2, 0, l);
  nl.add_capacitor(n1, 0, c);
  nl.add_port(n1);
  const DescriptorSystem sys = assemble_mna(nl);
  EXPECT_EQ(sys.n(), 3);  // 2 nodes + 1 inductor current
  for (const double f : {1e7, 1e9, 2e10}) {
    const cd s(0.0, 2.0 * std::numbers::pi * f);
    const cd zrl = r + s * l;
    const cd zc = 1.0 / (s * c);
    const cd expected = zrl * zc / (zrl + zc);
    const cd z = sys.transfer(s)(0, 0);
    EXPECT_NEAR(std::abs(z - expected), 0.0, 1e-8 * std::abs(expected));
  }
}

TEST(Mna, ReciprocityTwoPortRc) {
  // RC network: Z12 == Z21 (reciprocal network).
  Netlist nl;
  const auto n1 = nl.add_node();
  const auto n2 = nl.add_node();
  const auto n3 = nl.add_node();
  nl.add_resistor(n1, n2, 10.0);
  nl.add_resistor(n2, n3, 20.0);
  nl.add_resistor(n2, 0, 30.0);
  nl.add_capacitor(n1, 0, 1e-12);
  nl.add_capacitor(n2, 0, 2e-12);
  nl.add_capacitor(n3, 0, 1e-12);
  nl.add_port(n1);
  nl.add_port(n3);
  const DescriptorSystem sys = assemble_mna(nl);
  const la::MatC h = sys.transfer(cd(0.0, 1e9));
  EXPECT_NEAR(std::abs(h(0, 1) - h(1, 0)), 0.0, 1e-12 * std::abs(h(0, 1)));
}

TEST(Mna, PassivityStructure) {
  // E = E^T >= 0 and A + A^T <= 0 for an RLC netlist with mutuals.
  Netlist nl;
  const auto n1 = nl.add_node();
  const auto n2 = nl.add_node();
  const auto n3 = nl.add_node();
  nl.add_resistor(n1, n2, 5.0);
  const auto l1 = nl.add_inductor(n2, n3, 1e-9);
  const auto l2 = nl.add_inductor(n3, 0, 2e-9);
  nl.add_mutual(l1, l2, 0.5e-9);
  nl.add_capacitor(n1, 0, 1e-12);
  nl.add_capacitor(n2, 0, 1e-12);
  nl.add_capacitor(n3, 0, 1e-12);
  nl.add_port(n1);
  const DescriptorSystem sys = assemble_mna(nl);

  const MatD e = sys.e().to_dense();
  EXPECT_LT(la::max_abs_diff(e, la::transpose(e)), 1e-15);
  const auto eige = la::eig_sym(e);
  EXPECT_GE(eige.values.back(), -1e-18);

  MatD sym_a = sys.a().to_dense();
  sym_a += la::transpose(sys.a().to_dense());
  const auto eiga = la::eig_sym(sym_a);
  EXPECT_LE(eiga.values.front(), 1e-15);
}

TEST(Mna, BEqualsCTransposed) {
  Netlist nl;
  const auto n1 = nl.add_node();
  const auto n2 = nl.add_node();
  nl.add_resistor(n1, n2, 1.0);
  nl.add_capacitor(n1, 0, 1e-12);
  nl.add_capacitor(n2, 0, 1e-12);
  nl.add_port(n2);
  nl.add_port(n1);
  const DescriptorSystem sys = assemble_mna(nl);
  EXPECT_LT(la::max_abs_diff(sys.b(), la::transpose(sys.c())), 1e-15);
}

TEST(Descriptor, WithPortsRestricts) {
  Netlist nl;
  const auto n1 = nl.add_node();
  const auto n2 = nl.add_node();
  const auto n3 = nl.add_node();
  nl.add_resistor(n1, n2, 1.0);
  nl.add_resistor(n2, n3, 1.0);
  nl.add_resistor(n3, 0, 1.0);
  for (auto nd : {n1, n2, n3}) nl.add_capacitor(nd, 0, 1e-12);
  nl.add_port(n1);
  nl.add_port(n2);
  nl.add_port(n3);
  const DescriptorSystem sys = assemble_mna(nl);
  const DescriptorSystem sub = sys.with_ports({0, 2});
  EXPECT_EQ(sub.num_inputs(), 2);
  EXPECT_EQ(sub.num_outputs(), 2);
  const la::MatC h_full = sys.transfer(cd(0.0, 1e9));
  const la::MatC h_sub = sub.transfer(cd(0.0, 1e9));
  EXPECT_NEAR(std::abs(h_sub(0, 0) - h_full(0, 0)), 0.0, 1e-13 * std::abs(h_full(0, 0)));
  EXPECT_NEAR(std::abs(h_sub(1, 1) - h_full(2, 2)), 0.0, 1e-13 * std::abs(h_full(2, 2)));
}

TEST(DescriptorContract, WithPortsRejectsOutOfRangeIndex) {
  const DescriptorSystem sys = make_rc_mesh({.rows = 4, .cols = 4, .num_ports = 2});
  ASSERT_EQ(sys.num_inputs(), 2);
  for (const bool restrict_outputs : {true, false}) {
    EXPECT_THROW((void)sys.with_ports({-1}, restrict_outputs), std::invalid_argument);
    EXPECT_THROW((void)sys.with_ports({sys.num_inputs()}, restrict_outputs),
                 std::invalid_argument);
  }
}

// Trace of the first shifted solve of `sys` (a fresh system: copies share
// the analysis cache).
std::vector<obs::ScopeStat> first_solve_trace(const DescriptorSystem& sys) {
  sparse::FactorCache::global().clear();
  obs::reset_trace();
  obs::set_trace_enabled(true);
  (void)sys.solve_shifted(cd(0.0, 1e9), la::to_complex(sys.b()));
  obs::set_trace_enabled(false);
  return obs::trace_snapshot();
}

// Times the scopes ending in `leaf` closed in `trace`.
long long calls(const std::vector<obs::ScopeStat>& trace, const std::string& leaf) {
  long long n = 0;
  for (const auto& s : trace)
    if (s.path.size() >= leaf.size() &&
        s.path.compare(s.path.size() - leaf.size(), leaf.size(), leaf) == 0)
      n += s.count;
  return n;
}

TEST(Descriptor, OrderingFollowsPencilSymmetry) {
  const auto pattern = [](const DescriptorSystem& s) {
    return sparse::combine(1.0, s.e(), 1.0, s.a());
  };
  // Symmetric pencils are factored as L·D·Lᵀ after a pattern-only
  // analysis; the others by a full LU that freezes the pivot order, then an
  // LU replay.
  const auto expect_kernels = [](const DescriptorSystem& fresh, bool ldlt) {
    const auto trace = first_solve_trace(fresh);
    EXPECT_EQ(calls(trace, "splu.analyze"), ldlt ? 1 : 0);
    EXPECT_EQ(calls(trace, "splu.ldlt"), ldlt ? 1 : 0);
    EXPECT_EQ(calls(trace, "splu.full_factor"), ldlt ? 0 : 1);
    EXPECT_EQ(calls(trace, "splu.refactor"), ldlt ? 0 : 1);
  };
  // RC pencils have symmetric E and A: approximate minimum degree.
  RcMeshParams mp;
  mp.rows = 8;
  mp.cols = 8;
  mp.num_ports = 2;
  const auto mesh = make_rc_mesh(mp);
  EXPECT_EQ(mesh.ordering(), sparse::amd_ordering(pattern(mesh)));
  EXPECT_NE(mesh.ordering(), sparse::rcm_ordering(pattern(mesh)));
  expect_kernels(make_rc_mesh(mp), true);

  // A floating (node-to-node) capacitor makes E non-diagonal, still symmetric.
  Netlist nl;
  nl.ensure_node(12);
  for (index k = 1; k <= 12; ++k) {
    nl.add_capacitor(k, 0, 1e-12);
    if (k < 12) nl.add_resistor(k, k + 1, 10.0);
    if (k + 4 <= 12) nl.add_resistor(k, k + 4, 20.0);
  }
  nl.add_capacitor(3, 9, 5e-13);
  nl.add_port(1);
  const auto rc = assemble_mna(nl);
  EXPECT_EQ(rc.ordering(), sparse::amd_ordering(pattern(rc)));
  EXPECT_NE(rc.ordering(), sparse::rcm_ordering(pattern(rc)));
  expect_kernels(assemble_mna(nl), true);

  // RLC MNA couples node voltages and inductor currents antisymmetrically:
  // A is not symmetric, so the pencil keeps RCM.
  const auto conn = make_connector();
  EXPECT_EQ(conn.ordering(), sparse::rcm_ordering(pattern(conn)));
  EXPECT_NE(conn.ordering(), sparse::amd_ordering(pattern(conn)));
  expect_kernels(make_connector(), false);
}

// Real pencils (PRIMA's and PVL's expansion pencil, the transient
// integrator's trapezoidal matrix) follow the rule of the complex shifts:
// under ordering(), LDLᵀ when E and A are exactly symmetric, with a
// pivoting LU when a diagonal pivot is rejected; pivoting LU otherwise.
TEST(Descriptor, RealPencilOfAnRcMeshFactorsAsLdlt) {
  RcMeshParams mp;
  mp.rows = 12;
  mp.cols = 12;
  mp.num_ports = 2;
  const auto mesh = make_rc_mesh(mp);
  for (const double s0 : {0.0, 1e9}) {
    SCOPED_TRACE(::testing::Message() << "s0 = " << s0);
    const sparse::SparseLuD f = mesh.factor_real(s0, -1.0);
    EXPECT_EQ(f.symbolic().kind(), sparse::FactorKind::kLdlt);
    const sparse::SparseLuD lu(sparse::combine(s0, mesh.e(), -1.0, mesh.a()), mesh.ordering());
    const MatD want = lu.solve(mesh.b());
    MatD diff = f.solve(mesh.b());
    diff -= want;
    EXPECT_LE(la::norm_fro(diff), 1e-12 * la::norm_fro(want));
  }
}

TEST(Descriptor, RealPencilOfTheSpiralFactorsAsLu) {
  const auto spiral = make_spiral();
  EXPECT_EQ(spiral.factor_real(0.0, -1.0).symbolic().kind(), sparse::FactorKind::kLu);
  EXPECT_EQ(spiral.factor_real(1e9, -1.0).symbolic().kind(), sparse::FactorKind::kLu);
}

TEST(Descriptor, RealPencilWithAZeroDiagonalFallsBackToLu) {
  // E = I and A = [[0, 1], [1, 0]] are symmetric, but at s0 = 0 the pencil
  // −A has no diagonal to pivot on: LDLᵀ rejects it, the pivoting LU solves.
  const DescriptorSystem sys = from_dense(MatD{{0, 1}, {1, 0}}, MatD{{1}, {0}}, MatD{{1, 0}});
  const sparse::SparseLuD f = sys.factor_real(0.0, -1.0);
  EXPECT_EQ(f.symbolic().kind(), sparse::FactorKind::kLu);
  const std::vector<double> x = f.solve(std::vector<double>{1.0, 2.0});
  EXPECT_EQ(x, (std::vector<double>{-2.0, -1.0}));
}

TEST(Descriptor, DenseStandardMatchesTransfer) {
  Netlist nl;
  const auto n1 = nl.add_node();
  const auto n2 = nl.add_node();
  nl.add_resistor(n1, n2, 3.0);
  nl.add_resistor(n2, 0, 5.0);
  nl.add_capacitor(n1, 0, 1e-12);
  nl.add_capacitor(n2, 0, 2e-12);
  nl.add_port(n1);
  const DescriptorSystem sys = assemble_mna(nl);
  const DenseStandard d = to_dense_standard(sys);
  const cd s(0.0, 3e9);
  // H = C (sI - Ad)^{-1} Bd
  la::MatC pencil(2, 2);
  for (la::index i = 0; i < 2; ++i)
    for (la::index j = 0; j < 2; ++j) pencil(i, j) = (i == j ? s : cd{0}) - cd(d.a(i, j));
  const la::MatC x = la::LuC(pencil).solve(la::to_complex(d.b));
  const cd h_dense = la::matmul(la::to_complex(d.c), x)(0, 0);
  const cd h_sparse = sys.transfer(s)(0, 0);
  EXPECT_NEAR(std::abs(h_dense - h_sparse), 0.0, 1e-10 * std::abs(h_sparse));
}

TEST(Descriptor, TransposeSolveConsistent) {
  Netlist nl;
  const auto n1 = nl.add_node();
  const auto n2 = nl.add_node();
  nl.add_resistor(n1, n2, 1.0);
  nl.add_resistor(n2, 0, 2.0);
  nl.add_capacitor(n1, 0, 1e-12);
  nl.add_capacitor(n2, 0, 1e-12);
  nl.add_port(n1);
  const DescriptorSystem sys = assemble_mna(nl);
  const cd s(0.0, 1e9);
  // (sE-A)^{-T} rhs from the shift's factor  ==  transpose path check via dense.
  la::MatC rhs(2, 1);
  rhs(0, 0) = cd(1.0, 0.5);
  rhs(1, 0) = cd(-2.0, 1.0);
  const la::MatC xt = sys.factor_shifted(s).solve_transpose(rhs);
  const la::MatC dense = sparse::shifted_pencil(s, sys.e(), sys.a()).to_dense();
  const la::MatC back = la::matmul(la::transpose(dense), xt);
  EXPECT_NEAR(std::abs(back(0, 0) - rhs(0, 0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(back(1, 0) - rhs(1, 0)), 0.0, 1e-12);
}

// The process-wide solve cache (sparse/factor_cache) starts empty, and no
// ambient fault site keeps it out of the solve path.
class SolveCache : public ::testing::Test {
 protected:
  void SetUp() override {
    util::fault::clear();
    sparse::FactorCache::global().clear();
  }
  void TearDown() override { sparse::FactorCache::global().clear(); }
};

std::int64_t numeric_factors() {
  return obs::counter_value(obs::Counter::kSparseLuRefactor) +
         obs::counter_value(obs::Counter::kSparseLuFullFactor);
}

bool same_bits(const la::MatC& x, const la::MatC& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(cd)) == 0;
}

// A miss factors, solves and keeps X; the hit that follows skips the factor
// and returns X bit for bit, which is also what a fresh factor computes.
void expect_hit_is_fresh_solve(const DescriptorSystem& sys, cd s) {
  const la::MatC b = la::to_complex(sys.b());
  const la::MatC miss = sys.solve_shifted(s, b);
  const std::int64_t factors = numeric_factors();
  const std::int64_t hits = obs::counter_value(obs::Counter::kFactorCacheHit);
  const la::MatC hit = sys.solve_shifted(s, b);
  EXPECT_EQ(obs::counter_value(obs::Counter::kFactorCacheHit), hits + 1);
  EXPECT_EQ(numeric_factors(), factors);
  EXPECT_TRUE(same_bits(hit, miss));
  EXPECT_TRUE(same_bits(hit, sys.factor_shifted(s).solve(b)));
  EXPECT_EQ(numeric_factors(), factors + 1);  // factor_shifted is never cached
}

TEST_F(SolveCache, HitIsBitIdenticalToAFreshSolveOnAnLdltPencil) {
  const DescriptorSystem sys = make_rc_mesh({.rows = 6, .cols = 6, .num_ports = 2});
  ASSERT_TRUE(sparse::is_symmetric(sys.e()) && sparse::is_symmetric(sys.a()));
  expect_hit_is_fresh_solve(sys, cd(0.0, 2e9));
}

TEST_F(SolveCache, HitIsBitIdenticalToAFreshSolveOnAnLuPencil) {
  ConnectorParams cp;
  cp.pins = 3;
  cp.sections = 3;
  const DescriptorSystem sys = make_connector(cp);
  ASSERT_FALSE(sparse::is_symmetric(sys.a()));
  expect_hit_is_fresh_solve(sys, cd(0.0, 2e9));
}

TEST_F(SolveCache, OtherRightHandSidesAreSolvedButNotKept) {
  const DescriptorSystem sys = make_rc_mesh({.rows = 5, .cols = 5, .num_ports = 2});
  const cd s(0.0, 1e9);
  const la::MatC b = la::to_complex(sys.b());
  la::MatC twice = b;
  twice *= cd(2.0, 0.0);
  la::MatC signed_zero = b;
  signed_zero(0, 0) = cd(signed_zero(0, 0).real(), -0.0);
  const la::MatC first_port = la::to_complex(sys.b().columns(0, 1));
  la::MatC swapped(b.rows(), 2);
  swapped.set_col(0, b.col(1));
  swapped.set_col(1, b.col(0));
  const std::int64_t misses = obs::counter_value(obs::Counter::kFactorCacheMiss);
  for (const la::MatC* rhs :
       std::vector<const la::MatC*>{&twice, &signed_zero, &first_port, &swapped}) {
    const std::int64_t factors = numeric_factors();
    (void)sys.solve_shifted(s, *rhs);
    EXPECT_EQ(numeric_factors(), factors + 1);
  }
  EXPECT_EQ(obs::counter_value(obs::Counter::kFactorCacheMiss), misses);  // never looked up
  EXPECT_EQ(sparse::FactorCache::global().stats().entries, 0);
  (void)sys.solve_shifted(s, b);
  EXPECT_EQ(sparse::FactorCache::global().stats().entries, 1);
}

TEST_F(SolveCache, BytesGaugeChargesEachSolveItsScalars) {
  const DescriptorSystem sys = make_rc_mesh({.rows = 5, .cols = 5, .num_ports = 3});
  const la::MatC b = la::to_complex(sys.b());
  const auto entry_bytes =
      static_cast<std::int64_t>(sys.n() * sys.num_inputs()) * static_cast<std::int64_t>(16);
  const std::int64_t gauge = obs::counter_value(obs::Counter::kFactorCacheBytes);
  for (int k = 1; k <= 3; ++k) (void)sys.solve_shifted(cd(0.0, 1e9 * k), b);
  (void)sys.solve_shifted(cd(0.0, 1e9), b);  // a hit adds nothing
  const util::CacheStats st = sparse::FactorCache::global().stats();
  EXPECT_EQ(st.entries, 3);
  EXPECT_EQ(st.bytes, 3 * entry_bytes);
  EXPECT_EQ(obs::counter_value(obs::Counter::kFactorCacheBytes), gauge + 3 * entry_bytes);
  sparse::FactorCache::global().clear();
  EXPECT_EQ(obs::counter_value(obs::Counter::kFactorCacheBytes), gauge);
}

// The span solve against one-shift solves: every X bit for bit, hits and
// misses alike, with the counters of as many one-shift calls.
TEST_F(SolveCache, ShiftSpanMatchesOneShiftSolves) {
  struct Case {
    const char* name;
    DescriptorSystem sys;
    bool dc;  // sample s = 0 first
  };
  const std::vector<Case> cases{
      {"mesh20", make_rc_mesh({.rows = 20, .cols = 20, .num_ports = 1}), false},
      {"mesh40", make_rc_mesh({.rows = 40, .cols = 40, .num_ports = 1}), false},
      {"mesh14x4", make_rc_mesh({.rows = 14, .cols = 14, .num_ports = 4}), false},
      {"line_dc", make_rc_line({.segments = 80}), true},
      {"connector", make_connector({.pins = 3, .sections = 3}), false}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<cd> shifts;
    for (int k = 0; k < 17; ++k)
      shifts.emplace_back(0.0, 2.0 * std::numbers::pi * 1e5 * std::pow(10.0, 0.375 * k));
    if (c.dc) shifts.front() = cd(0.0, 0.0);
    const la::MatC b = la::to_complex(c.sys.b());
    std::vector<la::MatC> single;
    for (const cd s : shifts) {
      sparse::FactorCache::global().clear();
      single.push_back(c.sys.solve_shifted(s, b));
    }
    sparse::FactorCache::global().clear();
    (void)c.sys.solve_shifted(shifts[5], b);  // one hit among the misses
    for (const std::size_t count : {3, 8, 9, 17}) {
      SCOPED_TRACE(count);
      const std::int64_t solves = obs::counter_value(obs::Counter::kShiftedSolve);
      const auto xs = c.sys.try_solve_shifted(std::span(shifts).subspan(0, count), b);
      EXPECT_EQ(obs::counter_value(obs::Counter::kShiftedSolve),
                solves + static_cast<std::int64_t>(count));
      ASSERT_EQ(xs.size(), count);
      for (std::size_t k = 0; k < count; ++k) {
        ASSERT_TRUE(xs[k].is_ok()) << xs[k].status().to_string();
        EXPECT_TRUE(same_bits(xs[k].value(), single[k])) << "shift " << k;
      }
      sparse::FactorCache::global().clear();
    }
  }
}

TEST_F(SolveCache, RejectedLaneFallsBackToLuAlone) {
  // The 3×3 pencil of Ldlt.VanishingDiagonalPivotFallsBackToLu, whose
  // diagonal pivot vanishes at s = 0, as the middle of five shifts: that
  // lane is rejected and solved exactly by a full LU, the others keep
  // their one-shift bits, and the counters move by one reject, one full
  // factor and four refactors in one lane group.
  sparse::Triplets<double> te(3, 3), ta(3, 3);
  for (la::index i = 0; i < 3; ++i) te.add(i, i, 1.0);
  ta.add(0, 1, -1.0);
  ta.add(1, 0, -1.0);
  ta.add(2, 2, -2.0);
  MatD b(3, 1), c(1, 3);
  b(0, 0) = 1.0;
  c(0, 0) = 1.0;
  const DescriptorSystem sys(sparse::CsrD(te), sparse::CsrD(ta), b, c);
  la::MatC rhs(3, 1);
  rhs(0, 0) = cd(1.0, 2.0);
  rhs(1, 0) = cd(3.0, -1.0);
  rhs(2, 0) = cd(4.0, 0.0);
  const std::vector<cd> shifts{cd(0.5, 1.0), cd(0.0, 2.0), cd(0.0, 0.0), cd(3.0, 0.0),
                               cd(1.0, -1.0)};
  ASSERT_TRUE(sys.try_prepare_shifted(shifts[0]).is_ok());
  std::vector<la::MatC> single;
  for (const cd s : shifts) single.push_back(sys.solve_shifted(s, rhs));
  const std::int64_t refactors = obs::counter_value(obs::Counter::kSparseLuRefactor);
  const std::int64_t rejects = obs::counter_value(obs::Counter::kSparseLuRefactorReject);
  const std::int64_t full = obs::counter_value(obs::Counter::kSparseLuFullFactor);
  const std::int64_t groups = obs::counter_value(obs::Counter::kSparseLdltLaneGroups);
  const std::int64_t lanes = obs::counter_value(obs::Counter::kSparseLdltLanes);
  const auto xs = sys.try_solve_shifted(shifts, rhs);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuRefactor), refactors + 4);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuRefactorReject), rejects + 1);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuFullFactor), full + 1);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLdltLaneGroups), groups + 1);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLdltLanes), lanes + 5);
  ASSERT_EQ(xs.size(), shifts.size());
  for (std::size_t k = 0; k < shifts.size(); ++k) {
    ASSERT_TRUE(xs[k].is_ok()) << xs[k].status().to_string();
    EXPECT_TRUE(same_bits(xs[k].value(), single[k])) << "shift " << k;
  }
  EXPECT_EQ(xs[2].value()(0, 0), rhs(1, 0));
  EXPECT_EQ(xs[2].value()(1, 0), rhs(0, 0));
  EXPECT_EQ(xs[2].value()(2, 0), cd(2.0, 0.0));
}

// While a fault site is armed the span solve neither batches nor caches:
// each shift is one SparseLu::refactor, so injected decisions stay keyed
// per solve.
TEST_F(SolveCache, ArmedFaultSiteSolvesEachShiftAlone) {
  const DescriptorSystem sys = make_rc_mesh({.rows = 6, .cols = 6, .num_ports = 1});
  const std::vector<cd> shifts{cd(0.0, 1e8), cd(0.0, 1e9), cd(0.0, 1e10)};
  const la::MatC b = la::to_complex(sys.b());
  ASSERT_TRUE(sys.try_prepare_shifted(shifts[0]).is_ok());
  const std::int64_t groups = obs::counter_value(obs::Counter::kSparseLdltLaneGroups);
  const std::int64_t refactors = obs::counter_value(obs::Counter::kSparseLuRefactor);
  {
    util::fault::ScopedFault guard(util::fault::Site::kPoolTask, 0.0);
    ASSERT_TRUE(util::fault::enabled());
    for (const auto& x : sys.try_solve_shifted(shifts, b)) EXPECT_TRUE(x.is_ok());
  }
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLdltLaneGroups), groups);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuRefactor), refactors + 3);
  EXPECT_EQ(sparse::FactorCache::global().stats().entries, 0);
}

// A system builds its analysis once, in whichever solve asks first, so the
// analysis answers no injection site: with splu.pivot condemning every
// full factor, an RC mesh's LDLᵀ analysis and the connector's LU analysis
// are still built.
TEST(PencilAnalysis, PreparesWithThePivotSiteArmed) {
  util::fault::clear();
  for (const DescriptorSystem& sys :
       {make_rc_mesh({.rows = 6, .cols = 6, .num_ports = 1}), make_connector()}) {
    const std::int64_t analyses = obs::counter_value(obs::Counter::kSymbolicCacheMiss);
    const std::int64_t full = obs::counter_value(obs::Counter::kSparseLuFullFactor);
    {
      util::fault::ScopedFault pivots(util::fault::Site::kSpluPivot, 1.0);
      EXPECT_TRUE(sys.try_prepare_shifted(cd(0.0, 1e9)).is_ok());
    }
    EXPECT_EQ(obs::counter_value(obs::Counter::kSymbolicCacheMiss), analyses + 1);
    // The LU analysis is one full factor, the LDLᵀ analysis none.
    const bool lu = !sparse::is_symmetric(sys.a());
    EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuFullFactor), full + (lu ? 1 : 0));
    // A second request finds it built.
    EXPECT_TRUE(sys.try_prepare_shifted(cd(0.0, 2e9)).is_ok());
    EXPECT_EQ(obs::counter_value(obs::Counter::kSymbolicCacheMiss), analyses + 1);
  }
}

}  // namespace
}  // namespace pmtbr::circuit
