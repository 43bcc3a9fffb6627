// Tests for the sweep / truncation / weighting APIs added around the core
// algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numbers>
#include <string>

#include "circuit/generators.hpp"
#include "la/ops.hpp"
#include "mor/error.hpp"
#include "mor/pmtbr.hpp"
#include "mor/tbr.hpp"

namespace pmtbr::mor {
namespace {

TEST(TbrTruncate, MatchesDirectTbrAtSameOrder) {
  circuit::RcMeshParams p;
  p.rows = 5;
  p.cols = 5;
  p.num_ports = 2;
  const auto sys = circuit::make_rc_mesh(p);

  TbrOptions full_opts;
  full_opts.fixed_order = 12;
  const auto full = tbr(sys, full_opts);

  for (const index q : {3, 6, 9}) {
    TbrOptions direct_opts;
    direct_opts.fixed_order = q;
    const auto direct = tbr(sys, direct_opts);
    const auto trunc = tbr_truncate(sys, full, q);
    EXPECT_NEAR(trunc.error_bound, direct.error_bound, 1e-9 * (1.0 + direct.error_bound));
    // Same transfer function (states may differ by sign).
    const auto grid = logspace_grid(1e6, 1e11, 10);
    for (const double f : grid) {
      const la::cd s(0.0, 2.0 * 3.14159265358979 * f);
      const la::cd hd = direct.model.system.transfer(s)(0, 0);
      const la::cd ht = trunc.model.system.transfer(s)(0, 0);
      EXPECT_LT(std::abs(hd - ht), 1e-7 * std::abs(hd) + 1e-14);
    }
  }
}

TEST(TbrTruncate, RejectsBadOrder) {
  const auto sys = circuit::make_rc_line({.segments = 8});
  TbrOptions opts;
  opts.fixed_order = 4;
  const auto full = tbr(sys, opts);
  EXPECT_THROW(tbr_truncate(sys, full, 5), std::invalid_argument);
  EXPECT_THROW(tbr_truncate(sys, full, 0), std::invalid_argument);
}

TEST(OrderSweep, MatchesIndividualCalls) {
  // Every sweep entry equals pmtbr_with_samples at that fixed order, with
  // the same frequency weighting: none, the low band weighted 100x, and
  // the upper half of the band suppressed (its samples dropped).
  struct Case {
    Band band;
    std::function<double(double)> weight_fn;
    std::size_t used;  // samples left after weighting
  };
  const std::vector<Case> cases{
      {Band{0.0, 1e10}, nullptr, 12},
      {Band{0.0, 1e9}, [](double f_hz) { return f_hz < 4e8 ? 100.0 : 1.0; }, 12},
      {Band{0.0, 1e9}, [](double f_hz) { return f_hz < 5e8 ? 1.0 : 0.0; }, 6},
  };
  const auto sys = circuit::make_rc_line({.segments = 25});
  const std::vector<index> orders{2, 5, 8};
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const auto samples = sample_band(cases[c].band, 12, SamplingScheme::kUniform);
    PmtbrOptions opts;
    opts.weight_fn = cases[c].weight_fn;
    const auto sweep = pmtbr_order_sweep(sys, samples, orders, opts);
    ASSERT_EQ(sweep.size(), 3u);
    for (std::size_t i = 0; i < orders.size(); ++i) {
      opts.fixed_order = orders[i];
      const auto direct = pmtbr_with_samples(sys, samples, opts);
      ASSERT_EQ(direct.samples_used.size(), cases[c].used);
      ASSERT_EQ(sweep[i].samples_used.size(), direct.samples_used.size());
      for (std::size_t k = 0; k < direct.samples_used.size(); ++k)
        EXPECT_EQ(sweep[i].samples_used[k].weight, direct.samples_used[k].weight);
      EXPECT_EQ(sweep[i].model.system.n(), direct.model.system.n());
      EXPECT_LT(la::max_abs_diff(sweep[i].model.v, direct.model.v), 1e-12);
    }
  }
}

TEST(OrderSweep, ClampsToRank) {
  const auto sys = circuit::make_rc_line({.segments = 10});
  const auto samples = sample_band(Band{0.0, 1e10}, 2, SamplingScheme::kUniform);
  const auto sweep = pmtbr_order_sweep(sys, samples, {100});
  EXPECT_LE(sweep[0].model.system.n(), 4);  // 2 complex samples -> rank <= 4
}

TEST(FrequencyWeighting, BiasesAccuracyTowardWeightedBand) {
  // Weight the lower half of the band 100x: the low band must come out more
  // accurate than with uniform weighting, at the same small order.
  const auto sys = circuit::make_peec({.sections = 12});
  const Band band{0.0, 1e9};
  const auto low_grid = linspace_grid(1e6, 4e8, 20);

  PmtbrOptions plain;
  plain.bands = {band};
  plain.num_samples = 24;
  plain.fixed_order = 6;
  const auto res_plain = pmtbr(sys, plain);

  PmtbrOptions weighted = plain;
  weighted.weight_fn = [](double f_hz) { return f_hz < 4e8 ? 100.0 : 1.0; };
  const auto res_weighted = pmtbr(sys, weighted);

  const auto e_plain = compare_on_grid(sys, res_plain.model.system, low_grid);
  const auto e_weighted = compare_on_grid(sys, res_weighted.model.system, low_grid);
  EXPECT_LT(e_weighted.max_abs, e_plain.max_abs);
}

TEST(FrequencyWeighting, ZeroWeightDropsSamples) {
  const auto sys = circuit::make_rc_line({.segments = 10});
  PmtbrOptions opts;
  opts.bands = {Band{0.0, 1e10}};
  opts.num_samples = 10;
  opts.fixed_order = 3;
  opts.weight_fn = [](double f_hz) { return f_hz < 5e9 ? 1.0 : 0.0; };
  const auto res = pmtbr(sys, opts);
  EXPECT_EQ(res.samples_used.size(), 5u);
}

TEST(FrequencyWeighting, SameEffectThroughEveryEntryPoint) {
  // weight_fn means the same thing through pmtbr, pmtbr_order_sweep and
  // pmtbr_adaptive: no used sample lies in a zero-weight band, and a 100x
  // low-band weight changes the model.
  const auto sys = circuit::make_rc_line({.segments = 25});
  const Band band{0.0, 1e9};
  const auto run = [&](int entry, std::function<double(double)> weight_fn) {
    PmtbrOptions opts;
    opts.bands = {band};
    opts.num_samples = 12;
    opts.fixed_order = 5;
    opts.weight_fn = std::move(weight_fn);
    if (entry == 0) return pmtbr(sys, opts);
    if (entry == 1)
      return pmtbr_order_sweep(sys, sample_bands(opts.bands, opts.num_samples, opts.scheme),
                               {opts.fixed_order}, opts)[0];
    return pmtbr_adaptive(sys, {.band = band, .initial_samples = 4, .max_samples = 16}, opts);
  };
  const auto f_hz = [](const FrequencySample& fs) {
    return fs.s.imag() / (2.0 * std::numbers::pi);
  };
  for (const int entry : {0, 1, 2}) {
    SCOPED_TRACE("entry point " + std::to_string(entry));
    const auto plain = run(entry, nullptr);
    ASSERT_TRUE(std::any_of(plain.samples_used.begin(), plain.samples_used.end(),
                            [&](const FrequencySample& fs) { return f_hz(fs) > 5e8; }));

    const auto cut = run(entry, [](double f) { return f < 5e8 ? 1.0 : 0.0; });
    ASSERT_FALSE(cut.samples_used.empty());
    for (const auto& fs : cut.samples_used) {
      EXPECT_LT(f_hz(fs), 5e8);
      EXPECT_GT(fs.weight, 0.0);
    }

    const auto boosted = run(entry, [](double f) { return f < 4e8 ? 100.0 : 1.0; });
    EXPECT_GT(boosted.model.singular_values[0], 2.0 * plain.model.singular_values[0]);
    EXPECT_GT(la::max_abs_diff(boosted.model.v, plain.model.v), 1e-6);
  }
}

TEST(FrequencyWeighting, NegativeWeightRejected) {
  const auto sys = circuit::make_rc_line({.segments = 5});
  PmtbrOptions opts;
  opts.bands = {Band{0.0, 1e9}};
  opts.num_samples = 4;
  opts.weight_fn = [](double) { return -1.0; };
  EXPECT_THROW(pmtbr(sys, opts), std::invalid_argument);
}

TEST(EnergyStandard, DiagonalDispatchEqualsSymmetricStandard) {
  const auto sys = circuit::make_rc_line({.segments = 12});
  const auto e1 = to_energy_standard(sys);
  const auto e2 = to_symmetric_standard(sys);
  EXPECT_LT(la::max_abs_diff(e1.a().to_dense(), e2.a().to_dense()), 1e-14);
  EXPECT_LT(la::max_abs_diff(e1.b(), e2.b()), 1e-14);
}

TEST(EnergyStandard, ImprovesRlcPmtbrAccuracy) {
  // The connector observation at test scale: energy coordinates give the
  // one-sided SVD the physically right norm.
  circuit::ConnectorParams cp;
  cp.pins = 4;
  cp.sections = 4;
  const auto raw = circuit::make_connector(cp);
  const auto esys = to_energy_standard(raw);
  const auto grid = linspace_grid(1e8, 8e9, 20);

  PmtbrOptions opts;
  opts.bands = {Band{0.0, 8e9}};
  opts.num_samples = 25;
  opts.fixed_order = 14;
  const auto r_raw = pmtbr(raw, opts);
  const auto r_energy = pmtbr(esys, opts);

  const auto e_raw = compare_on_grid(raw, r_raw.model.system, grid);
  const auto e_energy = compare_on_grid(esys, r_energy.model.system, grid);
  EXPECT_LT(e_energy.max_rel, e_raw.max_rel);
}

}  // namespace
}  // namespace pmtbr::mor
