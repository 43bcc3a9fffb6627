// PRIMA / MPPROJ / cross-Gramian / input-correlated algorithm tests.
#include <gtest/gtest.h>

#include <numbers>

#include "circuit/generators.hpp"
#include "la/lu.hpp"
#include "la/ops.hpp"
#include "mor/cross_gramian.hpp"
#include "mor/error.hpp"
#include "mor/input_correlated.hpp"
#include "mor/mpproj.hpp"
#include "mor/pmtbr.hpp"
#include "mor/prima.hpp"
#include "signal/correlation.hpp"
#include "signal/transient.hpp"
#include "signal/waveform.hpp"
#include "util/obs/counters.hpp"

namespace pmtbr::mor {
namespace {

// Dense block moments of the descriptor system about s0 = 0:
//   m_k = C (A^{-1} E)^k A^{-1} B.
std::vector<MatD> dense_moments(const MatD& e, const MatD& a, const MatD& b, const MatD& c,
                                index count) {
  const la::LuD lua(a);
  std::vector<MatD> out;
  MatD r = lua.solve(b);
  for (index k = 0; k < count; ++k) {
    out.push_back(la::matmul(c, r));
    r = lua.solve(la::matmul(e, r));
  }
  return out;
}

TEST(Prima, MatchesBlockMoments) {
  const auto sys = circuit::make_rc_line({.segments = 12, .far_end_port = true});
  PrimaOptions opts;
  opts.num_moments = 3;
  const auto res = prima(sys, opts);
  const auto& rm = res.model.system;

  const auto full = dense_moments(sys.e().to_dense(), sys.a().to_dense(), sys.b(), sys.c(),
                                  opts.num_moments);
  const auto red = dense_moments(rm.e(), rm.a(), rm.b(), rm.c(), opts.num_moments);
  for (index k = 0; k < opts.num_moments; ++k) {
    const double scale = la::norm_fro(full[static_cast<std::size_t>(k)]);
    EXPECT_LT(la::max_abs_diff(full[static_cast<std::size_t>(k)], red[static_cast<std::size_t>(k)]),
              1e-7 * scale)
        << "moment " << k;
  }
}

TEST(Prima, ModelSizeIsMomentsTimesPorts) {
  circuit::MultiportRcParams p;
  p.lines = 6;
  p.segments = 5;
  const auto sys = circuit::make_multiport_rc(p);
  PrimaOptions opts;
  opts.num_moments = 2;
  const auto res = prima(sys, opts);
  EXPECT_EQ(res.model.system.n(), 12);  // the port-count blowup
}

TEST(Prima, ReducedRcIsStableAndAccurateAtDc) {
  const auto sys = circuit::make_rc_line({.segments = 25});
  PrimaOptions opts;
  opts.num_moments = 4;
  const auto res = prima(sys, opts);
  EXPECT_TRUE(res.model.system.is_stable(-1e-9));
  const cd h0f = sys.transfer(cd(0.0, 1e3))(0, 0);
  const cd h0r = res.model.system.transfer(cd(0.0, 1e3))(0, 0);
  EXPECT_LT(std::abs(h0f - h0r) / std::abs(h0f), 1e-9);
}

TEST(Mpproj, InterpolatesAtSamplePoints) {
  const auto sys = circuit::make_rc_line({.segments = 18});
  std::vector<FrequencySample> samples{{cd(0.0, 1e9), 1.0}, {cd(0.0, 5e9), 1.0}};
  const auto res = mpproj(sys, samples);
  for (const auto& fs : samples) {
    const cd hf = sys.transfer(fs.s)(0, 0);
    const cd hr = res.model.system.transfer(fs.s)(0, 0);
    EXPECT_LT(std::abs(hf - hr) / std::abs(hf), 1e-8);
  }
}

TEST(Mpproj, PmtbrBeatsMpprojAtEqualOrder) {
  // The Fig. 10 phenomenon: with redundant samples, MPPROJ wastes order on
  // near-duplicate directions while PMTBR's SVD prunes them.
  circuit::PeecParams pp;
  pp.sections = 15;
  const auto sys = circuit::make_peec(pp);
  const Band band{0.0, 1e9};
  const index order = 10;

  PmtbrOptions popts;
  popts.bands = {band};
  popts.num_samples = 30;
  popts.fixed_order = order;
  const auto pm = pmtbr(sys, popts);

  // MPPROJ gets the first samples until its basis hits the same order.
  const auto samples = sample_band(band, 30, SamplingScheme::kUniform);
  MpprojOptions mopts;
  mopts.max_order = order;
  const auto mp = mpproj(sys, samples, mopts);

  const auto grid = linspace_grid(1e6, 1e9, 40);
  const auto e_pm = compare_on_grid(sys, pm.model.system, grid);
  const auto e_mp = compare_on_grid(sys, mp.model.system, grid);
  EXPECT_LE(e_pm.max_abs, e_mp.max_abs * 1.2);
}

TEST(CrossGramian, SisoMatchesPmtbrQuality) {
  const auto sys = circuit::make_rc_line({.segments = 20});
  CrossGramianOptions opts;
  opts.bands = {Band{0.0, 1e10}};
  opts.num_samples = 12;
  opts.fixed_order = 6;
  const auto res = cross_gramian_pmtbr(sys, opts);
  const auto err = compare_on_grid(sys, res.model.system, logspace_grid(1e6, 1e10, 20));
  EXPECT_LT(err.max_rel, 1e-4);
}

TEST(CrossGramian, NonsymmetricSystemReduces) {
  // Connector slice: the ports are reciprocal, but the RLC MNA A-matrix is
  // nonsymmetric, exercising the two-sided path.
  circuit::ConnectorParams cp;
  cp.pins = 3;
  cp.sections = 3;
  cp.cavity_branches = false;
  const auto sys = circuit::make_connector(cp);
  CrossGramianOptions opts;
  opts.bands = {Band{0.0, 5e9}};
  opts.num_samples = 15;
  opts.fixed_order = 12;
  const auto res = cross_gramian_pmtbr(sys, opts);
  const auto err = compare_on_grid(sys, res.model.system, linspace_grid(1e8, 5e9, 15));
  EXPECT_LT(err.max_rel, 0.05);
}

TEST(CrossGramian, EigenvalueEstimatesDescending) {
  const auto sys = circuit::make_rc_line({.segments = 10});
  CrossGramianOptions opts;
  opts.bands = {Band{0.0, 1e10}};
  opts.num_samples = 8;
  opts.fixed_order = 4;
  const auto res = cross_gramian_pmtbr(sys, opts);
  for (std::size_t i = 1; i < res.eigenvalue_estimates.size(); ++i)
    EXPECT_GE(std::abs(res.eigenvalue_estimates[i - 1]),
              std::abs(res.eigenvalue_estimates[i]) - 1e-18);
}

TEST(CrossGramian, OneNumericFactorPerSample) {
  // The B and Cᵀ solves of a sample share its factor, on an LDLᵀ pencil (RC
  // line) and an LU pencil (connector) alike.
  circuit::ConnectorParams cp;
  cp.pins = 3;
  cp.sections = 3;
  cp.cavity_branches = false;
  for (const auto& sys : {circuit::make_rc_line({.segments = 20}), circuit::make_connector(cp)}) {
    CrossGramianOptions opts;
    opts.bands = {Band{0.0, 5e9}};
    opts.num_samples = 10;
    opts.fixed_order = 4;
    const auto samples = sample_bands(opts.bands, opts.num_samples, opts.scheme);
    // The LU analysis is itself a full factor; build it before counting.
    ASSERT_TRUE(sys.try_prepare_shifted(samples.front().s).is_ok());
    const auto factors = [] {
      return obs::counter_value(obs::Counter::kSparseLuRefactor) +
             obs::counter_value(obs::Counter::kSparseLuFullFactor);
    };
    const std::int64_t before = factors();
    (void)cross_gramian_pmtbr(sys, opts);
    EXPECT_EQ(factors() - before, static_cast<std::int64_t>(samples.size()));
  }
}

class InputCorrelatedFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    circuit::MultiportRcParams p;
    p.lines = 8;
    p.segments = 5;
    sys_ = circuit::make_multiport_rc(p);

    // Correlated inputs: all ports driven by dithered square waves sharing
    // one clock; two distinct phase groups -> low effective rank.
    signal::SquareWaveSpec spec;
    spec.period = 4e-9;
    spec.rise_time = 2e-10;
    spec.dither_fraction = 0.1;
    std::vector<double> phases;
    for (index k = 0; k < 8; ++k) phases.push_back(static_cast<double>(k % 2) * 1e-9);
    Rng rng(77);
    bank_ = signal::make_square_bank(spec, t_end_, phases, rng);
    samples_ = signal::sample_waveforms(bank_, t_end_, 200);
  }

  DescriptorSystem sys_;
  double t_end_ = 2e-8;
  std::vector<signal::Waveform> bank_;
  MatD samples_;
};

TEST_F(InputCorrelatedFixture, InputEnsembleEnergyConcentrated) {
  // Dither adds full-rank noise at a low level; the test property is that
  // the correlation energy concentrates in the two phase-group directions.
  const auto spec = signal::correlation_spectrum(samples_);
  ASSERT_GE(spec.size(), 3u);
  EXPECT_LT(spec[2], 0.05 * spec[0]);
  EXPECT_GE(signal::effective_rank(samples_, 1e-3), 1);
}

TEST_F(InputCorrelatedFixture, SmallModelTracksFullUnderTrainedInputs) {
  InputCorrelatedOptions opts;
  opts.bands = {Band{0.0, 2e9}};
  opts.num_freq_samples = 12;
  opts.fixed_order = 10;
  opts.seed = 99;
  const auto res = input_correlated_tbr(sys_, samples_, opts);

  signal::TransientOptions topts;
  topts.t_end = t_end_;
  topts.steps = 400;
  const auto in = signal::bank_input(bank_);
  const auto full = signal::simulate(sys_, in, topts);
  const auto red = signal::simulate(res.model.system, in, topts);
  const auto err = signal::compare_outputs(full, red);
  EXPECT_LT(err.max_abs, 0.05 * err.max_ref);
}

TEST_F(InputCorrelatedFixture, DeterministicVariantWorksToo) {
  InputCorrelatedOptions opts;
  opts.bands = {Band{0.0, 2e9}};
  opts.num_freq_samples = 12;
  opts.draws_per_frequency = 0;  // blocked deterministic variant
  opts.fixed_order = 10;
  const auto res = input_correlated_tbr(sys_, samples_, opts);
  EXPECT_EQ(res.model.system.n(), 10);
  EXPECT_GE(res.input_rank, 1);
}

TEST_F(InputCorrelatedFixture, SeedReproducibility) {
  InputCorrelatedOptions opts;
  opts.fixed_order = 6;
  opts.seed = 5;
  const auto r1 = input_correlated_tbr(sys_, samples_, opts);
  const auto r2 = input_correlated_tbr(sys_, samples_, opts);
  EXPECT_LT(la::max_abs_diff(r1.model.v, r2.model.v), 1e-300);
}

TEST_F(InputCorrelatedFixture, RejectsWrongPortCount) {
  InputCorrelatedOptions opts;
  EXPECT_THROW(input_correlated_tbr(sys_, MatD(3, 10), opts), std::invalid_argument);
}

}  // namespace
}  // namespace pmtbr::mor
