// PMTBR algorithm tests: interpolation, convergence to TBR, order control,
// frequency selectivity, and passivity-friendly projection.
#include <gtest/gtest.h>

#include <cstdint>
#include <numbers>

#include "circuit/generators.hpp"
#include "la/ops.hpp"
#include "mor/error.hpp"
#include "mor/pmtbr.hpp"
#include "mor/replay.hpp"
#include "mor/same_reduction.hpp"
#include "mor/tbr.hpp"
#include "signal/subspace.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/trace.hpp"

namespace pmtbr::mor {
namespace {

TEST(Pmtbr, InterpolatesAtSamplePointsWithoutTruncation) {
  // With no truncation the projection space contains every sample vector,
  // so the reduced transfer function interpolates H at the sample points.
  circuit::RcLineParams p;
  p.segments = 20;
  const auto sys = circuit::make_rc_line(p);

  std::vector<FrequencySample> samples{{cd(0.0, 2e9), 1.0}, {cd(0.0, 9e9), 1.0}};
  PmtbrOptions opts;
  opts.fixed_order = 4;  // 2 samples × (re+im) = full sample space
  opts.truncation_tol = 0;
  const auto res = pmtbr_with_samples(sys, samples, opts);

  for (const auto& fs : samples) {
    const cd h_full = sys.transfer(fs.s)(0, 0);
    const cd h_red = res.model.system.transfer(fs.s)(0, 0);
    EXPECT_NEAR(std::abs(h_full - h_red) / std::abs(h_full), 0.0, 1e-8);
  }
}

TEST(Pmtbr, HankelEstimatesTrackExactHsv) {
  // Paper Fig. 5: estimated singular values follow the exact ones. The
  // identification "σ(ZW)² ≈ Hankel singular values" holds in symmetric
  // coordinates (paper Sec. III-A), which the E^{1/2} transform provides
  // for RC networks.
  circuit::ClockTreeParams p;
  p.levels = 5;
  const auto sys = to_symmetric_standard(circuit::make_clock_tree(p));

  PmtbrOptions opts;
  // Log sampling across the full dynamic range of the tree (poles span
  // ~1e6..1e13 rad/s); a narrow band underestimates the HSV tail, which is
  // the finite-bandwidth effect Fig. 5 itself shows.
  opts.bands = {Band{1e4, 1e13}};
  opts.scheme = SamplingScheme::kLogarithmic;
  opts.num_samples = 80;
  const auto res = pmtbr(sys, opts);
  const auto exact = hankel_singular_values(sys);

  ASSERT_GE(res.hankel_estimates.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    const double ratio = res.hankel_estimates[i] / exact[i];
    EXPECT_GT(ratio, 0.1) << "hsv " << i;
    EXPECT_LT(ratio, 10.0) << "hsv " << i;
  }
}

TEST(Pmtbr, SubspaceConvergesToTbrWithMoreSamples) {
  // Paper Fig. 6: the angle between PMTBR and TBR subspaces decreases as
  // samples are added (in symmetric coordinates, where the one-sided
  // sampled Gramian and the balancing subspace coincide asymptotically).
  circuit::ClockTreeParams p;
  p.levels = 5;
  const auto sys = to_symmetric_standard(circuit::make_clock_tree(p));
  TbrOptions topts;
  topts.fixed_order = 4;
  const auto exact = tbr(sys, topts);

  double angle_few = 0, angle_many = 0;
  for (const index ns : {2, 48}) {
    PmtbrOptions opts;
    opts.bands = {Band{1e6, 1e12}};
    opts.scheme = SamplingScheme::kLogarithmic;
    opts.num_samples = ns;
    opts.fixed_order = 4;
    const auto res = pmtbr(sys, opts);
    const double angle = signal::subspace_angle(exact.model.v, res.model.v);
    if (ns == 2)
      angle_few = angle;
    else
      angle_many = angle;
  }
  EXPECT_LT(angle_many, angle_few);
  // The residual angle is the finite-bandwidth plateau the paper describes
  // for Fig. 6 — small but not zero.
  EXPECT_LT(angle_many, 0.15);
}

TEST(Pmtbr, AccuracyImprovesWithOrder) {
  const auto sys = circuit::make_rc_line({.segments = 40});
  const auto grid = logspace_grid(1e6, 2e10, 25);
  double prev = 1e300;
  for (const index q : {2, 4, 8}) {
    PmtbrOptions opts;
    opts.bands = {Band{0.0, 2e10}};
    opts.num_samples = 20;
    opts.fixed_order = q;
    const auto res = pmtbr(sys, opts);
    const auto err = compare_on_grid(sys, res.model.system, grid);
    EXPECT_LT(err.max_rel, prev * 1.5);
    prev = err.max_rel;
  }
  EXPECT_LT(prev, 1e-4);
}

TEST(Pmtbr, OrderControlMatchesTolerance) {
  const auto sys = circuit::make_rc_line({.segments = 30});
  PmtbrOptions tight, loose;
  tight.bands = loose.bands = {Band{0.0, 1e10}};
  tight.num_samples = loose.num_samples = 20;
  tight.truncation_tol = 1e-10;
  loose.truncation_tol = 1e-3;
  const auto rt = pmtbr(sys, tight);
  const auto rl = pmtbr(sys, loose);
  EXPECT_GT(rt.model.system.n(), rl.model.system.n());
}

TEST(Pmtbr, AdaptiveStopsEarly) {
  const auto sys = circuit::make_rc_line({.segments = 30});
  PmtbrOptions opts;
  opts.bands = {Band{0.0, 1e10}};
  opts.num_samples = 60;
  opts.truncation_tol = 1e-6;
  opts.adaptive_excess = 2.0;
  const auto res = pmtbr(sys, opts);
  EXPECT_LT(res.samples_used.size(), 60u);
  // And the model is still accurate.
  const auto err = compare_on_grid(sys, res.model.system, logspace_grid(1e6, 1e10, 20));
  EXPECT_LT(err.max_rel, 1e-3);
}

// R folds and R-sized SVDs of one pmtbr call, from the trace: folds that
// commit (compressor.settle) inside and outside pmtbr.project, and the
// scratch folds of order checks (compressor.scratch_fold).
struct Folds {
  long long finalize = 0, sampling = 0, scratch = 0;
};

Folds traced_folds(const DescriptorSystem& sys, const PmtbrOptions& opts, PmtbrResult& res) {
  const bool trace_was_enabled = obs::trace_enabled();
  obs::set_trace_enabled(true);
  obs::reset_trace();
  res = pmtbr(sys, opts);
  Folds f;
  for (const auto& s : obs::trace_snapshot()) {
    if (s.path == "pmtbr/pmtbr.project/compressor.settle") f.finalize += s.count;
    if (s.path == "pmtbr/compressor.settle") f.sampling += s.count;
    if (s.path.ends_with("compressor.scratch_fold")) f.scratch += s.count;
    if (s.path.ends_with("la.svd")) {
      EXPECT_TRUE(s.path.ends_with("compressor.settle/la.svd") ||
                  s.path.ends_with("compressor.scratch_fold/la.svd") ||
                  s.path.ends_with("compressor.add_columns/la.svd"))
          << s.path;
    }
  }
  obs::set_trace_enabled(trace_was_enabled);
  return f;
}

TEST(Pmtbr, FinalizeFoldsOnceInsideProjectScope) {
  // Every R-sized SVD is a compressor fold inside a library scope. Every
  // run commits one fold, under pmtbr.project, where order choice, basis
  // and the singular-value list share it. An adaptive run also folds into
  // a scratch copy at each order check its bound cannot decide, which is
  // fewer than the samples checked. The small per-block SVDs of absorption
  // sit under compressor.add_columns.
  const auto sys = circuit::make_rc_line({.segments = 30});
  PmtbrOptions fixed;
  fixed.bands = {Band{0.0, 1e10}};
  fixed.num_samples = 12;
  fixed.fixed_order = 5;
  PmtbrOptions adaptive = fixed;
  adaptive.fixed_order = -1;
  adaptive.truncation_tol = 1e-6;
  adaptive.adaptive_excess = 2.0;

  for (const PmtbrOptions* opts : {&fixed, &adaptive}) {
    PmtbrResult res;
    const Folds f = traced_folds(sys, *opts, res);
    EXPECT_EQ(f.finalize, 1);
    EXPECT_EQ(f.sampling, 0);
    if (opts == &fixed) {
      EXPECT_EQ(f.scratch, 0);
      continue;
    }
    const auto checks = static_cast<long long>(res.samples_used.size()) - opts->min_samples + 1;
    EXPECT_EQ(f.scratch, testing::replay_every_sample(sys, *opts).exact_checks);
    EXPECT_GE(f.scratch, 1);
    EXPECT_LT(f.scratch, checks);
  }
}

TEST(Pmtbr, AdaptiveMeshFoldsTwice) {
  // mesh_adaptive's shape: a 20×20 two-port RC mesh, 20 samples on
  // 1e5–1e11 Hz, excess 2, tol 1e-6. No stop: 20 of 20 samples at order 28.
  // One exact check folds (the first, with no σ to bound from), then the
  // span; folding at every check past the fourth sample would take 17.
  circuit::RcMeshParams mp;
  mp.rows = 20;
  mp.cols = 20;
  mp.num_ports = 2;
  const auto sys = circuit::make_rc_mesh(mp);
  PmtbrOptions opts;
  opts.bands = {Band{1e5, 1e11}};
  opts.num_samples = 20;
  opts.adaptive_excess = 2.0;
  opts.truncation_tol = 1e-6;
  PmtbrResult res;
  const std::int64_t svd_before = obs::counter_value(obs::Counter::kSvdCalls);
  const Folds f = traced_folds(sys, opts, res);
  const std::int64_t svd_calls = obs::counter_value(obs::Counter::kSvdCalls) - svd_before;
  EXPECT_EQ(res.samples_used.size(), 20u);
  EXPECT_LE(f.finalize + f.sampling + f.scratch, 2);
  EXPECT_LE(svd_calls, 20);
}

TEST(Pmtbr, StopAtExactCheckFoldsItsColumnsOnce) {
  // A run that stops at an exact check commits that check's scratch fold:
  // the span's settle() runs no SVD, so the columns the model is built
  // from are folded by one la::svd_right, and the model is the bits of the
  // replay that queries after every sample.
  const auto sys = circuit::make_rc_line({.segments = 30});
  PmtbrOptions opts;
  opts.bands = {Band{0.0, 1e10}};
  opts.num_samples = 60;
  opts.truncation_tol = 1e-6;
  opts.adaptive_excess = 2.0;
  const bool trace_was_enabled = obs::trace_enabled();
  obs::set_trace_enabled(true);
  obs::reset_trace();
  const std::int64_t stops = obs::counter_value(obs::Counter::kPmtbrAdaptiveStops);
  const PmtbrResult res = pmtbr(sys, opts);
  long long check_svds = 0, settle_svds = 0, settles = 0;
  for (const auto& s : obs::trace_snapshot()) {
    if (s.path.ends_with("compressor.scratch_fold/la.svd")) check_svds += s.count;
    if (s.path.ends_with("compressor.settle/la.svd")) settle_svds += s.count;
    if (s.path == "pmtbr/pmtbr.project/compressor.settle") settles += s.count;
  }
  obs::set_trace_enabled(trace_was_enabled);
  const testing::Replayed ref = testing::replay_every_sample(sys, opts);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPmtbrAdaptiveStops), stops + 1);
  EXPECT_LT(res.samples_used.size(), 60u);
  EXPECT_EQ(res.samples_used.size(), ref.result.samples_used.size());
  EXPECT_EQ(settles, 1);
  EXPECT_EQ(settle_svds, 0);
  EXPECT_EQ(check_svds, ref.exact_checks);
  testing::expect_same_model(res, ref.result);
}

TEST(Pmtbr, FrequencySelectiveBeatsGlobalInBand) {
  // Reduce a resonant system targeting a low band; the in-band error of the
  // band-focused model must beat a same-order model sampled far out of band.
  circuit::PeecParams pp;
  pp.sections = 12;
  const auto sys = circuit::make_peec(pp);

  const Band focus{0.0, 2e8};
  const auto grid = linspace_grid(1e6, 2e8, 30);

  PmtbrOptions in_band;
  in_band.bands = {focus};
  in_band.num_samples = 16;
  in_band.fixed_order = 8;
  const auto res_in = pmtbr(sys, in_band);

  PmtbrOptions wide;
  wide.bands = {Band{5e9, 5e10}};  // effort spent at high frequencies
  wide.num_samples = 16;
  wide.fixed_order = 8;
  const auto res_wide = pmtbr(sys, wide);

  const auto err_in = compare_on_grid(sys, res_in.model.system, grid);
  const auto err_wide = compare_on_grid(sys, res_wide.model.system, grid);
  EXPECT_LT(err_in.max_abs, err_wide.max_abs);
}

TEST(Pmtbr, CongruenceReducedRlcIsStable) {
  circuit::SpiralParams sp;
  sp.turns = 10;
  const auto sys = circuit::make_spiral(sp);
  PmtbrOptions opts;
  opts.bands = {Band{0.0, 5e10}};
  opts.num_samples = 15;
  opts.fixed_order = 8;
  const auto res = pmtbr(sys, opts);
  EXPECT_TRUE(res.model.system.is_stable(-1e-9));
}

TEST(Pmtbr, BasisIsOrthonormal) {
  const auto sys = circuit::make_rc_line({.segments = 15});
  PmtbrOptions opts;
  opts.bands = {Band{0.0, 1e10}};
  opts.num_samples = 8;
  opts.fixed_order = 5;
  const auto res = pmtbr(sys, opts);
  const MatD g = la::matmul(la::transpose(res.model.v), res.model.v);
  EXPECT_LT(la::max_abs_diff(g, MatD::identity(g.rows())), 1e-10);
}

TEST(Pmtbr, SingularEMatrixHandled) {
  // A node without a grounded capacitor makes E singular; PMTBR must not
  // care (paper Sec. V-A). Build such a netlist manually.
  circuit::Netlist nl;
  const auto n1 = nl.add_node();
  const auto n2 = nl.add_node();
  const auto n3 = nl.add_node();
  nl.add_resistor(n1, n2, 10.0);
  nl.add_resistor(n2, n3, 10.0);
  nl.add_resistor(n3, 0, 10.0);
  nl.add_capacitor(n1, 0, 1e-12);
  nl.add_capacitor(n3, 0, 1e-12);  // n2 has no capacitor -> singular E
  nl.add_port(n1);
  const auto sys = circuit::assemble_mna(nl);

  PmtbrOptions opts;
  opts.bands = {Band{0.0, 1e10}};
  opts.num_samples = 6;
  opts.fixed_order = 2;
  const auto res = pmtbr(sys, opts);
  const cd s(0.0, 2.0 * std::numbers::pi * 1e9);
  const cd h_full = sys.transfer(s)(0, 0);
  const cd h_red = res.model.system.transfer(s)(0, 0);
  EXPECT_LT(std::abs(h_full - h_red) / std::abs(h_full), 1e-2);
}

}  // namespace
}  // namespace pmtbr::mor
