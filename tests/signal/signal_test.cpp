// Waveform, correlation, transient, AC-sweep, and subspace-angle tests.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <utility>

#include "circuit/netlist.hpp"
#include "mor/error.hpp"
#include "signal/ac.hpp"
#include "signal/correlation.hpp"
#include "signal/subspace.hpp"
#include "signal/transient.hpp"
#include "signal/waveform.hpp"
#include "helpers.hpp"

namespace pmtbr::signal {
namespace {

using la::index;
using la::MatD;

TEST(Waveform, LinearInterpolation) {
  Waveform w({0.0, 1.0, 2.0}, {0.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(w.value(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value(1.5), 2.0);
  EXPECT_DOUBLE_EQ(w.value(5.0), 2.0);
}

TEST(Waveform, RejectsUnsortedTimes) {
  EXPECT_THROW(Waveform({1.0, 0.0}, {0.0, 1.0}), std::invalid_argument);
}

TEST(Waveform, SquareWaveTogglesBetweenRails) {
  Rng rng(81);
  SquareWaveSpec spec;
  spec.period = 1e-9;
  spec.rise_time = 2e-11;
  spec.dither_fraction = 0.0;
  const auto w = make_square_wave(spec, 5e-9, rng);
  // Mid-high and mid-low plateau checks (first cycle: rise at 0, fall at T/2).
  EXPECT_NEAR(w.value(0.25e-9), 1.0, 1e-9);
  EXPECT_NEAR(w.value(0.75e-9), 0.0, 1e-9);
}

TEST(Waveform, DitherStaysBounded) {
  Rng rng(82);
  SquareWaveSpec spec;
  spec.period = 1e-9;
  spec.dither_fraction = 0.1;
  const auto w = make_square_wave(spec, 2e-8, rng);
  for (double v : w.values()) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(Waveform, BankPhasesShiftWaves) {
  Rng rng(83);
  SquareWaveSpec spec;
  spec.period = 2e-9;
  spec.dither_fraction = 0.0;
  const auto bank = make_square_bank(spec, 1e-8, {0.0, 1e-9}, rng);
  ASSERT_EQ(bank.size(), 2u);
  // Half-period phase offset: when one is high, the other is low.
  EXPECT_NEAR(bank[0].value(0.5e-9), 1.0, 1e-9);
  EXPECT_NEAR(bank[1].value(0.5e-9), 0.0, 1e-9);
}

TEST(Waveform, BulkCurrentsHaveLowRank) {
  Rng rng(84);
  BulkCurrentSpec spec;
  spec.num_ports = 30;
  spec.num_sources = 3;
  const auto bank = make_bulk_currents(spec, 5e-8, rng);
  ASSERT_EQ(bank.size(), 30u);
  const MatD u = sample_waveforms(bank, 5e-8, 150);
  EXPECT_LE(effective_rank(u, 1e-6), 3);
}

TEST(Correlation, MatrixMatchesDefinition) {
  MatD u{{1, -1}, {1, 1}};
  const MatD k = correlation_matrix(u);
  EXPECT_DOUBLE_EQ(k(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(k(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(k(1, 1), 1.0);
}

TEST(Correlation, SpectrumMatchesEigenvalues) {
  pmtbr::Rng rng(85);
  const MatD u = pmtbr::testing::random_matrix(4, 50, rng);
  const auto spec = correlation_spectrum(u);
  const MatD k = correlation_matrix(u);
  double trace = 0;
  for (index i = 0; i < 4; ++i) trace += k(i, i);
  double sum = 0;
  for (double v : spec) sum += v;
  EXPECT_NEAR(trace, sum, 1e-10 * trace);
}

TEST(Transient, RcStepResponseAnalytic) {
  // Single RC: v(t) = R*(1 - e^{-t/RC}) for unit step current input.
  circuit::Netlist nl;
  const auto n1 = nl.add_node();
  const double r = 1000.0, c = 1e-12;
  nl.add_resistor(n1, 0, r);
  nl.add_capacitor(n1, 0, c);
  nl.add_port(n1);
  const auto sys = circuit::assemble_mna(nl);

  TransientOptions opts;
  opts.t_end = 5e-9;
  opts.steps = 2000;
  const auto res = simulate(
      sys, [](double) { return std::vector<double>{1.0}; }, opts);
  const double tau = r * c;
  for (const index k : {500, 1000, 2000}) {
    const double t = res.times[static_cast<std::size_t>(k)];
    const double expected = r * (1.0 - std::exp(-t / tau));
    EXPECT_NEAR(res.outputs(k, 0), expected, 2e-3 * r) << "t=" << t;
  }
}

TEST(Transient, DenseMatchesSparseOnSameModel) {
  const auto sys = [&] {
    circuit::Netlist nl;
    const auto n1 = nl.add_node();
    const auto n2 = nl.add_node();
    nl.add_resistor(n1, n2, 50.0);
    nl.add_resistor(n2, 0, 100.0);
    nl.add_capacitor(n1, 0, 1e-12);
    nl.add_capacitor(n2, 0, 2e-12);
    nl.add_port(n1);
    return circuit::assemble_mna(nl);
  }();
  const mor::DenseSystem dense(sys.e().to_dense(), sys.a().to_dense(), sys.b(), sys.c());

  TransientOptions opts;
  opts.t_end = 1e-9;
  opts.steps = 300;
  const auto input = [](double t) {
    return std::vector<double>{std::sin(2.0 * std::numbers::pi * 3e9 * t)};
  };
  const auto rs = simulate(sys, input, opts);
  const auto rd = simulate(dense, input, opts);
  const auto err = compare_outputs(rs, rd);
  EXPECT_LT(err.max_abs, 1e-10 * std::max(err.max_ref, 1e-30));
}

TEST(Transient, ZeroInputStaysZero) {
  const auto sys = [&] {
    circuit::Netlist nl;
    const auto n1 = nl.add_node();
    nl.add_resistor(n1, 0, 10.0);
    nl.add_capacitor(n1, 0, 1e-12);
    nl.add_port(n1);
    return circuit::assemble_mna(nl);
  }();
  TransientOptions opts;
  opts.t_end = 1e-9;
  opts.steps = 50;
  const auto res = simulate(
      sys, [](double) { return std::vector<double>{0.0}; }, opts);
  for (index k = 0; k <= 50; ++k) EXPECT_DOUBLE_EQ(res.outputs(k, 0), 0.0);
}

TEST(Ac, SweepMatchesAnalyticRc) {
  circuit::Netlist nl;
  const auto n1 = nl.add_node();
  const double r = 100.0, c = 1e-12;
  nl.add_resistor(n1, 0, r);
  nl.add_capacitor(n1, 0, c);
  nl.add_port(n1);
  const auto sys = circuit::assemble_mna(nl);
  const auto pts = ac_sweep(sys, {1e9});
  const double w = 2.0 * std::numbers::pi * 1e9;
  const double expected = r / std::sqrt(1.0 + w * w * r * r * c * c);
  EXPECT_NEAR(pts[0].magnitude, expected, 1e-9 * expected);
  EXPECT_LT(pts[0].phase_rad, 0.0);  // capacitive lag
}

TEST(Ac, RejectsOutOfRangeTransferEntries) {
  circuit::Netlist nl;
  const auto n1 = nl.add_node();
  nl.add_resistor(n1, 0, 100.0);
  nl.add_capacitor(n1, 0, 1e-12);
  nl.add_port(n1);
  const auto sys = circuit::assemble_mna(nl);
  const mor::DenseSystem dense(sys.e().to_dense(), sys.a().to_dense(), sys.b(), sys.c());
  for (const auto& [out_idx, in_idx] : {std::pair<index, index>{-1, 0}, {0, -1}, {1, 0}, {0, 1}}) {
    EXPECT_THROW(ac_sweep(sys, {1e6, 1e8}, out_idx, in_idx), std::invalid_argument);
    EXPECT_THROW(ac_sweep(dense, {1e6, 1e8}, out_idx, in_idx), std::invalid_argument);
  }
}

TEST(Subspace, IdenticalSubspacesZeroAngle) {
  pmtbr::Rng rng(86);
  const MatD a = pmtbr::testing::random_matrix(10, 3, rng);
  EXPECT_NEAR(subspace_angle(a, a), 0.0, 1e-7);
}

TEST(Subspace, OrthogonalVectorsRightAngle) {
  MatD a(4, 1), b(4, 1);
  a(0, 0) = 1.0;
  b(1, 0) = 1.0;
  EXPECT_NEAR(subspace_angle(a, b), std::numbers::pi / 2.0, 1e-12);
}

TEST(Subspace, KnownFortyFiveDegrees) {
  MatD a(2, 1), b(2, 1);
  a(0, 0) = 1.0;
  b(0, 0) = 1.0;
  b(1, 0) = 1.0;
  EXPECT_NEAR(subspace_angle(a, b), std::numbers::pi / 4.0, 1e-12);
}

TEST(Subspace, VectorInsideLargerSubspace) {
  // A vector lying inside a 2-d subspace: angle 0.
  MatD v(3, 1), s(3, 2);
  v(0, 0) = 1.0;
  v(1, 0) = 1.0;
  s(0, 0) = 1.0;
  s(1, 1) = 1.0;
  EXPECT_NEAR(subspace_angle(v, s), 0.0, 1e-7);
}

TEST(Subspace, AnglesAscendingAndBounded) {
  pmtbr::Rng rng(87);
  const MatD a = pmtbr::testing::random_matrix(12, 4, rng);
  const MatD b = pmtbr::testing::random_matrix(12, 4, rng);
  const auto angles = principal_angles(a, b);
  for (std::size_t i = 1; i < angles.size(); ++i) EXPECT_GE(angles[i], angles[i - 1]);
  for (double th : angles) {
    EXPECT_GE(th, -1e-12);
    EXPECT_LE(th, std::numbers::pi / 2.0 + 1e-12);
  }
}

}  // namespace
}  // namespace pmtbr::signal
