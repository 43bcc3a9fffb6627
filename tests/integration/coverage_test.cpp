// Final coverage pass: option paths and cross-module behaviours not
// exercised elsewhere.
#include <gtest/gtest.h>

#include <numbers>

#include "circuit/generators.hpp"
#include "circuit/parser.hpp"
#include "circuit/writer.hpp"
#include "la/ops.hpp"
#include "mor/cross_gramian.hpp"
#include "mor/error.hpp"
#include "mor/input_correlated.hpp"
#include "mor/mpproj.hpp"
#include "mor/pmtbr.hpp"
#include "mor/prima.hpp"
#include "mor/tbr.hpp"
#include "signal/waveform.hpp"

namespace pmtbr {
namespace {

using la::cd;
using la::index;
using mor::Band;

TEST(Coverage, WithPortsKeepingAllOutputs) {
  circuit::RcMeshParams p;
  p.rows = 4;
  p.cols = 4;
  p.num_ports = 3;
  const auto sys = circuit::make_rc_mesh(p);
  const auto sub = sys.with_ports({1}, /*restrict_outputs=*/false);
  EXPECT_EQ(sub.num_inputs(), 1);
  EXPECT_EQ(sub.num_outputs(), 3);
  // Column 1 of the full transfer matrix is preserved.
  const cd s(0.0, 2.0 * std::numbers::pi * 1e9);
  const auto h_full = sys.transfer(s);
  const auto h_sub = sub.transfer(s);
  for (index i = 0; i < 3; ++i)
    EXPECT_LT(std::abs(h_sub(i, 0) - h_full(i, 1)), 1e-12 * std::abs(h_full(i, 1)) + 1e-18);
}

TEST(Coverage, PrimaNonzeroExpansionPoint) {
  const auto sys = circuit::make_rc_line({.segments = 15});
  mor::PrimaOptions opts;
  opts.num_moments = 4;
  opts.s0 = 2.0 * std::numbers::pi * 1e9;
  const auto res = mor::prima(sys, opts);
  // Accuracy is best near the expansion point.
  const cd s(0.0, opts.s0);
  const cd hf = sys.transfer(s)(0, 0);
  const cd hr = res.model.system.transfer(s)(0, 0);
  EXPECT_LT(std::abs(hf - hr) / std::abs(hf), 1e-8);
}

TEST(Coverage, PrimaDeflationOnSmallSystem) {
  // Requesting more moments than the state dimension supports must deflate
  // gracefully (basis capped at n).
  const auto sys = circuit::make_rc_line({.segments = 3});
  mor::PrimaOptions opts;
  opts.num_moments = 20;
  const auto res = mor::prima(sys, opts);
  EXPECT_LE(res.model.system.n(), sys.n());
}

TEST(Coverage, MpprojRespectsMaxOrderMidBlock) {
  circuit::RcMeshParams p;
  p.rows = 4;
  p.cols = 4;
  p.num_ports = 3;  // 3 columns per sample: the cap lands mid-block
  const auto sys = circuit::make_rc_mesh(p);
  const auto samples = mor::sample_band(Band{0.0, 1e10}, 5, mor::SamplingScheme::kUniform);
  mor::MpprojOptions opts;
  opts.max_order = 7;
  const auto res = mor::mpproj(sys, samples, opts);
  EXPECT_EQ(res.model.system.n(), 7);
}

TEST(Coverage, CrossGramianMaxOrderCap) {
  const auto sys = circuit::make_rc_line({.segments = 15});
  mor::CrossGramianOptions opts;
  opts.bands = {Band{0.0, 1e10}};
  opts.num_samples = 10;
  opts.truncation_tol = 0.0;  // would keep everything...
  opts.max_order = 3;         // ...but the cap wins
  const auto res = mor::cross_gramian_pmtbr(sys, opts);
  EXPECT_LE(res.model.system.n(), 3);
}

TEST(Coverage, InputCorrelatedMaxOrderAndTolInteraction) {
  circuit::MultiportRcParams p;
  p.lines = 6;
  p.segments = 3;
  const auto sys = circuit::make_multiport_rc(p);
  Rng rng(404);
  signal::SquareWaveSpec spec;
  spec.period = 4e-9;
  const auto bank = signal::make_square_bank(spec, 1e-8, std::vector<double>(6, 0.0), rng);
  const auto samples = signal::sample_waveforms(bank, 1e-8, 100);

  mor::InputCorrelatedOptions opts;
  opts.bands = {Band{0.0, 2e9}};
  opts.num_freq_samples = 6;
  opts.draws_per_frequency = 0;
  opts.truncation_tol = 1e-14;  // very tight...
  opts.max_order = 4;           // ...but capped
  const auto res = mor::input_correlated_tbr(sys, samples, opts);
  EXPECT_LE(res.model.system.n(), 4);
  EXPECT_GE(res.input_rank, 1);
}

TEST(Coverage, TbrErrorBoundEdgeOrders) {
  const std::vector<double> hsv{4.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(mor::tbr_error_bound(hsv, 0), 14.0);
  EXPECT_DOUBLE_EQ(mor::tbr_error_bound(hsv, 3), 0.0);
  EXPECT_DOUBLE_EQ(mor::tbr_error_bound(hsv, 99), 0.0);
}

TEST(Coverage, WriterHandlesGeneratedRlc) {
  // Serialize a generator output's netlist equivalent: build a small RLC by
  // hand, round-trip, and compare at several frequencies.
  circuit::Netlist nl;
  const auto n1 = nl.add_node();
  const auto n2 = nl.add_node();
  const auto n3 = nl.add_node();
  nl.add_resistor(n1, n2, 12.0);
  const auto l1 = nl.add_inductor(n2, n3, 1.5e-9);
  const auto l2 = nl.add_inductor(n3, 0, 0.5e-9);
  nl.add_mutual(l1, l2, 0.3e-9);
  for (auto nd : {n1, n2, n3}) nl.add_capacitor(nd, 0, 1e-12);
  nl.add_resistor(n3, 0, 75.0);
  nl.add_port(n1);
  nl.add_port(n3);

  const auto round = circuit::parse_netlist_string(circuit::netlist_to_string(nl));
  const auto s1 = circuit::assemble_mna(nl);
  const auto s2 = circuit::assemble_mna(round);
  for (const double f : {1e8, 2e9, 2e10}) {
    const cd s(0.0, 2.0 * std::numbers::pi * f);
    EXPECT_LT(la::max_abs_diff(s1.transfer(s), s2.transfer(s)),
              1e-9 * la::norm_fro(s1.transfer(s)));
  }
}

TEST(Coverage, PmtbrOnMultiBandUnion) {
  // Two disjoint bands of interest (Algorithm 2 proper).
  const auto sys = circuit::make_peec({.sections = 12});
  mor::PmtbrOptions opts;
  opts.bands = {Band{0.0, 1e8}, Band{5e8, 8e8}};
  opts.num_samples = 16;
  opts.fixed_order = 10;
  const auto res = mor::pmtbr(sys, opts);
  // Accurate inside both bands.
  for (const auto& band : opts.bands) {
    const auto grid = mor::linspace_grid(std::max(band.f_lo, 1e6), band.f_hi, 10);
    const auto err = mor::compare_on_grid(sys, res.model.system, grid);
    EXPECT_LT(err.max_rel, 0.05) << "band " << band.f_lo << "-" << band.f_hi;
  }
}

TEST(Coverage, SampleUsageRecorded) {
  const auto sys = circuit::make_rc_line({.segments = 8});
  mor::PmtbrOptions opts;
  opts.bands = {Band{0.0, 1e9}};
  opts.num_samples = 7;
  opts.fixed_order = 3;
  const auto res = mor::pmtbr(sys, opts);
  EXPECT_EQ(res.samples_used.size(), 7u);
  for (const auto& fs : res.samples_used) EXPECT_GT(fs.weight, 0.0);
}

TEST(Coverage, HankelEstimatesAreSquaredSingularValues) {
  const auto sys = circuit::make_rc_line({.segments = 10});
  mor::PmtbrOptions opts;
  opts.bands = {Band{0.0, 1e10}};
  opts.num_samples = 6;
  opts.fixed_order = 3;
  const auto res = mor::pmtbr(sys, opts);
  ASSERT_EQ(res.hankel_estimates.size(), res.model.singular_values.size());
  for (std::size_t i = 0; i < res.hankel_estimates.size(); ++i)
    EXPECT_DOUBLE_EQ(res.hankel_estimates[i],
                     res.model.singular_values[i] * res.model.singular_values[i]);
}

}  // namespace
}  // namespace pmtbr
