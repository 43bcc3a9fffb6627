// Additional signal-layer coverage: bank adapters, bulk-current
// determinism, and transient consistency properties.
#include <gtest/gtest.h>

#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "la/ops.hpp"
#include "signal/correlation.hpp"
#include "signal/transient.hpp"
#include "signal/waveform.hpp"

namespace pmtbr::signal {
namespace {

using la::index;

TEST(BankInput, EvaluatesAllChannels) {
  Waveform w1({0.0, 1.0}, {0.0, 2.0});
  Waveform w2({0.0, 1.0}, {1.0, 1.0});
  const auto in = bank_input({w1, w2});
  const auto u = in(0.5);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u[0], 1.0);
  EXPECT_DOUBLE_EQ(u[1], 1.0);
}

TEST(BulkCurrents, SeededDeterminism) {
  BulkCurrentSpec spec;
  spec.num_ports = 10;
  spec.num_sources = 2;
  Rng r1(5), r2(5);
  const auto b1 = make_bulk_currents(spec, 2e-8, r1);
  const auto b2 = make_bulk_currents(spec, 2e-8, r2);
  for (std::size_t k = 0; k < b1.size(); ++k)
    for (std::size_t i = 0; i < b1[k].values().size(); ++i)
      EXPECT_DOUBLE_EQ(b1[k].values()[i], b2[k].values()[i]);
}

TEST(BulkCurrents, AmplitudeScales) {
  BulkCurrentSpec spec;
  spec.num_ports = 5;
  spec.num_sources = 2;
  spec.amplitude = 1e-3;
  Rng rng(6);
  const auto bank = make_bulk_currents(spec, 2e-8, rng);
  double peak = 0;
  for (const auto& w : bank)
    for (const double v : w.values()) peak = std::max(peak, std::abs(v));
  EXPECT_GT(peak, 1e-4);
  EXPECT_LT(peak, 1e-1);
}

TEST(Correlation, RankOneForIdenticalWaves) {
  // All ports driven by the same waveform scaled differently: rank 1.
  Waveform base({0.0, 1e-9, 2e-9, 3e-9}, {0.0, 1.0, 0.5, 1.0});
  la::MatD u(3, 50);
  for (index l = 0; l < 50; ++l) {
    const double t = 3e-9 * static_cast<double>(l) / 49.0;
    const double v = base.value(t);
    u(0, l) = v;
    u(1, l) = 2.0 * v;
    u(2, l) = -0.5 * v;
  }
  EXPECT_EQ(effective_rank(u, 1e-10), 1);
}

TEST(Transient, LinearityInInput) {
  const auto sys = [&] {
    circuit::Netlist nl;
    const auto n1 = nl.add_node();
    const auto n2 = nl.add_node();
    nl.add_resistor(n1, n2, 100.0);
    nl.add_resistor(n2, 0, 50.0);
    nl.add_capacitor(n1, 0, 1e-12);
    nl.add_capacitor(n2, 0, 2e-12);
    nl.add_port(n1);
    return circuit::assemble_mna(nl);
  }();
  TransientOptions opts;
  opts.t_end = 1e-9;
  opts.steps = 200;
  const auto u1 = [](double t) { return std::vector<double>{std::sin(3e9 * t)}; };
  const auto u2 = [&](double t) { return std::vector<double>{2.0 * std::sin(3e9 * t)}; };
  const auto r1 = simulate(sys, u1, opts);
  const auto r2 = simulate(sys, u2, opts);
  for (index k = 0; k <= opts.steps; k += 20)
    EXPECT_NEAR(r2.outputs(k, 0), 2.0 * r1.outputs(k, 0), 1e-9 * (1.0 + std::abs(r1.outputs(k, 0))));
}

TEST(Transient, StepConvergesToDcGain) {
  // Long simulation: output approaches R_dc * I.
  circuit::Netlist nl;
  const auto n1 = nl.add_node();
  nl.add_resistor(n1, 0, 200.0);
  nl.add_capacitor(n1, 0, 1e-12);
  nl.add_port(n1);
  const auto sys = circuit::assemble_mna(nl);
  TransientOptions opts;
  opts.t_end = 1e-8;  // 50 time constants
  opts.steps = 500;
  const auto res = simulate(
      sys, [](double) { return std::vector<double>{1.0}; }, opts);
  EXPECT_NEAR(res.outputs(opts.steps, 0), 200.0, 0.01);
}

TEST(Transient, RejectsBadOptions) {
  const auto sys = circuit::make_rc_line({.segments = 3});
  TransientOptions bad;
  bad.steps = 0;
  EXPECT_THROW(simulate(sys, [](double) { return std::vector<double>{0.0}; }, bad),
               std::invalid_argument);
}

TEST(Transient, RejectsWrongInputWidth) {
  const auto sys = circuit::make_rc_line({.segments = 3});
  TransientOptions opts;
  opts.t_end = 1e-9;
  opts.steps = 10;
  EXPECT_THROW(simulate(sys, [](double) { return std::vector<double>{1.0, 2.0}; }, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace pmtbr::signal
