// Graceful-degradation integration tests (docs/ROBUSTNESS.md): deterministic
// fault-injection sweeps through the PMTBR sampling pipeline, genuine
// pole-hit recovery on a lossless LC resonator bank, the coverage floor,
// AC-sweep point dropping, and the manifest plumbing.
//
// Everything here is deterministic: injection decisions are a pure function
// of (seed, site, sample shift), so each test computes the exact set of
// condemned samples in advance via util::fault::decide and asserts the
// pipeline dropped exactly those — independent of thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>
#include <vector>

#include "circuit/generators.hpp"
#include "la/matrix.hpp"
#include "mor/pmtbr.hpp"
#include "mor/sampling.hpp"
#include "signal/ac.hpp"
#include "sparse/csr.hpp"
#include "util/faultinject.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/manifest.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace pmtbr {
namespace {

namespace fault = util::fault;
using la::index;

// These tests arm their own injection sites and assert exact drop sets, so
// they must not inherit whatever PMTBR_FAULTS the environment carries (the
// CI fault-injection job runs this suite with env faults armed).
class Robustness : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear(); }
  void TearDown() override { fault::clear(); }
};

std::uint64_t sample_key(const mor::FrequencySample& fs) {
  return fault::shift_key(fs.s.real(), fs.s.imag());
}

// Indices the splu.pivot site would condemn at (p, seed) for this sample set.
std::vector<std::size_t> condemned_set(const std::vector<mor::FrequencySample>& samples, double p,
                                       std::uint64_t seed) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < samples.size(); ++i)
    if (fault::decide(p, seed, fault::Site::kSpluPivot, sample_key(samples[i]))) out.push_back(i);
  return out;
}

// First seed whose condemned set has exactly `want` members (deterministic:
// the injection hash is fixed).
std::uint64_t seed_with_drops(const std::vector<mor::FrequencySample>& samples, double p,
                              std::size_t want, std::vector<std::size_t>& condemned) {
  for (std::uint64_t seed = 1; seed < 500; ++seed) {
    condemned = condemned_set(samples, p, seed);
    if (condemned.size() == want) return seed;
  }
  ADD_FAILURE() << "no seed under 500 condemns exactly " << want << " samples";
  return 0;
}

// Max relative magnitude error of `model` against a reference descriptor
// sweep over `freqs` (both sweeps clean — call outside fault guards).
double ac_error(const DescriptorSystem& ref, const mor::DenseSystem& model,
                const std::vector<double>& freqs) {
  const auto a = signal::ac_sweep(ref, freqs);
  const auto b = signal::ac_sweep(model, freqs);
  EXPECT_EQ(a.size(), b.size());
  double scale = 0.0;
  for (const auto& pt : a) scale = std::max(scale, pt.magnitude);
  double err = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    err = std::max(err, std::abs(a[i].magnitude - b[i].magnitude) / scale);
  return err;
}

std::vector<double> log_grid(double f_lo, double f_hi, std::size_t count) {
  std::vector<double> f(count);
  for (std::size_t i = 0; i < count; ++i)
    f[i] = f_lo * std::pow(f_hi / f_lo, static_cast<double>(i) / static_cast<double>(count - 1));
  return f;
}

// Fault sweep on the RC mesh: condemn k of N quadrature samples and require
// the run to complete, drop exactly the condemned set, redistribute their
// weight, and stay within 10x of the clean run's AC error envelope.
void run_mesh_fault_sweep(std::size_t want_drops) {
  circuit::RcMeshParams mp;
  mp.rows = 8;
  mp.cols = 8;
  const auto sys = circuit::make_rc_mesh(mp);

  const auto samples = mor::sample_bands({mor::Band{1e6, 1e9}}, 24, mor::SamplingScheme::kLogarithmic);
  ASSERT_EQ(samples.size(), 24u);

  mor::PmtbrOptions opts;
  opts.fixed_order = 10;

  const auto clean = mor::pmtbr_with_samples(sys, samples, opts);
  EXPECT_FALSE(clean.degradation.degraded());
  EXPECT_EQ(clean.degradation.samples_attempted, 24);
  EXPECT_DOUBLE_EQ(clean.degradation.coverage, 1.0);

  const double p = want_drops == 1 ? 0.05 : 0.25;
  std::vector<std::size_t> condemned;
  const std::uint64_t seed = seed_with_drops(samples, p, want_drops, condemned);
  ASSERT_EQ(condemned.size(), want_drops);

  mor::PmtbrResult degraded;
  {
    // Force every replay onto the full-factor path so the per-sample
    // splu.pivot decision governs each solve, then condemn `p` of them.
    fault::ScopedFault replays(fault::Site::kSpluRefactor, 1.0);
    fault::ScopedFault pivots(fault::Site::kSpluPivot, p, seed);
    degraded = mor::pmtbr_with_samples(sys, samples, opts);
  }

  // Exactly the precomputed set dropped, each after the full retry ladder.
  EXPECT_EQ(degraded.degradation.samples_attempted, 24);
  ASSERT_EQ(static_cast<std::size_t>(degraded.degradation.samples_dropped), want_drops);
  ASSERT_EQ(degraded.degradation.failures.size(), want_drops);
  for (std::size_t i = 0; i < want_drops; ++i) {
    EXPECT_EQ(static_cast<std::size_t>(degraded.degradation.failures[i].sample), condemned[i]);
    EXPECT_EQ(degraded.degradation.failures[i].status.code(), util::ErrorCode::kInjectedFault);
  }
  EXPECT_EQ(degraded.degradation.retries, static_cast<index>(want_drops) * mor::kSampleRetries);
  EXPECT_EQ(degraded.degradation.reweights, 1);  // single window, reweighted once
  EXPECT_EQ(degraded.samples_used.size(), samples.size() - want_drops);
  EXPECT_GT(degraded.degradation.coverage, 0.5);
  EXPECT_LT(degraded.degradation.coverage, 1.0);

  // Figure-shape invariants survive the degradation: the singular-value
  // estimates stay positive and ordered, and the spectrum still decays.
  const auto& est = degraded.hankel_estimates;
  ASSERT_GE(est.size(), 8u);
  EXPECT_GT(est[0], 0.0);
  for (std::size_t i = 1; i < est.size(); ++i) EXPECT_LE(est[i], est[i - 1]);
  EXPECT_GT(est[0] / std::max(est[7], 1e-300), 1e2);

  // Accuracy: the degraded ROM stays within 10x of the clean error envelope.
  const auto freqs = log_grid(1e6, 1e9, 15);
  const double err_clean = ac_error(sys, clean.model.system, freqs);
  const double err_fault = ac_error(sys, degraded.model.system, freqs);
  EXPECT_LT(err_fault, 10.0 * std::max(err_clean, 1e-10))
      << "clean err " << err_clean << ", degraded err " << err_fault;

  // The manifest records the exact degradation stats.
  const auto extra = mor::degradation_extra(degraded.degradation);
  EXPECT_EQ(extra.first, "degradation");
  const std::string manifest = obs::manifest_json("robustness_sweep", {extra});
  EXPECT_NE(manifest.find("\"degradation\""), std::string::npos);
  EXPECT_NE(manifest.find("\"samples_dropped\""), std::string::npos);
  EXPECT_NE(manifest.find("\"injected_fault\""), std::string::npos);
  EXPECT_NE(manifest.find("\"coverage\""), std::string::npos);
}

TEST_F(Robustness, MeshFaultSweepSingleSample) { run_mesh_fault_sweep(1); }

TEST_F(Robustness, MeshFaultSweepQuarterOfSamples) { run_mesh_fault_sweep(6); }

// Lossless LC resonator bank with all values exact powers of two, so the
// pencil at the resonant shift s = j/sqrt(LC) is singular in exact floating
// point — a genuine pole hit, no injection. The retry at s(1+eps) must
// recover the sample; nothing is dropped.
TEST_F(Robustness, LcPoleHitRecoversViaRetry) {
  // Three resonators: omega0 = 2^19, 2^20, 2^21 rad/s.
  const double kC = std::ldexp(1.0, -30);
  const std::vector<double> kL = {std::ldexp(1.0, -8), std::ldexp(1.0, -10),
                                  std::ldexp(1.0, -12)};
  const index n = static_cast<index>(2 * kL.size());
  sparse::Triplets<double> te(n, n), ta(n, n);
  la::MatD b(n, 1);
  for (std::size_t k = 0; k < kL.size(); ++k) {
    const index v = static_cast<index>(2 * k), i = v + 1;
    te.add(v, v, kC);
    te.add(i, i, kL[k]);
    ta.add(v, i, -1.0);
    ta.add(i, v, 1.0);
    b(v, 0) = 1.0;
  }
  la::MatD c(1, n);
  for (index j = 0; j < n; ++j) c(0, j) = b(j, 0);
  const DescriptorSystem sys(sparse::CsrD(te), sparse::CsrD(ta), b, c);

  const double w0 = std::ldexp(1.0, 20);  // exactly on the middle resonance
  const auto mk = [](double w) { return mor::FrequencySample{la::cd(0.0, w), 1.0}; };
  const std::vector<mor::FrequencySample> pole_hit = {mk(std::ldexp(1.0, 19) * 1.5), mk(w0),
                                                      mk(std::ldexp(1.0, 21) * 1.25)};

  mor::PmtbrOptions opts;
  opts.fixed_order = 4;
  const auto res = mor::pmtbr_with_samples(sys, pole_hit, opts);

  EXPECT_EQ(res.degradation.samples_dropped, 0);
  EXPECT_EQ(res.degradation.samples_ok, 3);
  EXPECT_GE(res.degradation.retries, 1);  // the pole sample needed the ladder
  EXPECT_TRUE(res.degradation.degraded());
  ASSERT_EQ(res.samples_used.size(), 3u);

  // The clean reference samples at exactly the shift the retry ladder lands
  // on, so the two ROM transfer functions must agree tightly.
  const double w_retry = w0 * (1.0 + mor::kRetryShiftEps);
  const std::vector<mor::FrequencySample> off_pole = {pole_hit[0], mk(w_retry), pole_hit[2]};
  const auto ref = mor::pmtbr_with_samples(sys, off_pole, opts);
  EXPECT_FALSE(ref.degradation.degraded());

  for (const double w : {std::ldexp(1.0, 18), std::ldexp(1.0, 20) * 1.1, std::ldexp(1.0, 22)}) {
    const la::cd h_fault = res.model.system.transfer(la::cd(0.0, w))(0, 0);
    const la::cd h_ref = ref.model.system.transfer(la::cd(0.0, w))(0, 0);
    EXPECT_NEAR(std::abs(h_fault - h_ref), 0.0, 1e-8 * std::max(std::abs(h_ref), 1.0));
  }

  // Manifest records the recovery.
  const std::string json = mor::degradation_extra(res.degradation).second;
  EXPECT_NE(json.find("\"retries\""), std::string::npos);
}

TEST_F(Robustness, CoverageFloorThrowsStatusError) {
  circuit::RcMeshParams mp;
  mp.rows = 4;
  mp.cols = 4;
  const auto sys = circuit::make_rc_mesh(mp);
  const auto samples = mor::sample_bands({mor::Band{1e6, 1e9}}, 8, mor::SamplingScheme::kLogarithmic);

  // Every numeric factor condemned, the full-factor fallback and the
  // regularized rescue included: no sample survives.
  {
    fault::ScopedFault replays(fault::Site::kSpluRefactor, 1.0);
    fault::ScopedFault pivots(fault::Site::kSpluPivot, 1.0);
    try {
      mor::pmtbr_with_samples(sys, samples, {});
      FAIL() << "expected StatusError";
    } catch (const util::StatusError& e) {
      EXPECT_EQ(e.status().code(), util::ErrorCode::kCoverageFloor);
    }
  }

  // The top log-spaced sample carries more than 1 − kMinCoverage of the
  // quadrature weight (about 58%), the bottom one far less: losing the top
  // sample alone breaks the floor, losing the bottom one alone does not.
  double total = 0.0;
  for (const auto& fs : samples) total += fs.weight;
  ASSERT_GT(samples.back().weight, (1.0 - mor::kMinCoverage) * total);
  ASSERT_LT(samples.front().weight, (1.0 - mor::kMinCoverage) * total);
  const auto seed_dropping_only = [&](std::size_t idx) {
    for (std::uint64_t seed = 1; seed < 500; ++seed)
      if (condemned_set(samples, 0.1, seed) == std::vector<std::size_t>{idx}) return seed;
    ADD_FAILURE() << "no seed under 500 condemns only sample " << idx;
    return std::uint64_t{0};
  };
  {
    fault::ScopedFault replays(fault::Site::kSpluRefactor, 1.0);
    fault::ScopedFault pivots(fault::Site::kSpluPivot, 0.1,
                              seed_dropping_only(samples.size() - 1));
    try {
      mor::pmtbr_with_samples(sys, samples, {});
      FAIL() << "expected StatusError";
    } catch (const util::StatusError& e) {
      EXPECT_EQ(e.status().code(), util::ErrorCode::kCoverageFloor);
    }
  }
  {
    fault::ScopedFault replays(fault::Site::kSpluRefactor, 1.0);
    fault::ScopedFault pivots(fault::Site::kSpluPivot, 0.1, seed_dropping_only(0));
    const auto res = mor::pmtbr_with_samples(sys, samples, {});
    EXPECT_EQ(res.degradation.samples_dropped, 1);
    EXPECT_GE(res.degradation.coverage, mor::kMinCoverage);
  }
}

TEST_F(Robustness, AcSweepDropsCondemnedPointsAndKeepsTheRest) {
  circuit::RcMeshParams mp;
  mp.rows = 4;
  mp.cols = 4;
  const auto sys = circuit::make_rc_mesh(mp);
  const auto freqs = log_grid(1e6, 1e9, 20);

  // Which grid points would the pivot site condemn? (AC keys by shift
  // j*2*pi*f, re = 0.)
  std::vector<mor::FrequencySample> as_samples;
  for (const double f : freqs)
    as_samples.push_back({la::cd(0.0, 2.0 * std::numbers::pi * f), 1.0});
  std::vector<std::size_t> condemned;
  const std::uint64_t seed = seed_with_drops(as_samples, 0.2, 4, condemned);

  const std::int64_t dropped_before = obs::counter_value(obs::Counter::kAcPointsDropped);
  std::vector<signal::AcPoint> out;
  {
    fault::ScopedFault replays(fault::Site::kSpluRefactor, 1.0);
    fault::ScopedFault pivots(fault::Site::kSpluPivot, 0.2, seed);
    out = signal::ac_sweep(sys, freqs);
  }
  ASSERT_EQ(out.size(), freqs.size() - condemned.size());
  EXPECT_EQ(obs::counter_value(obs::Counter::kAcPointsDropped),
            dropped_before + static_cast<std::int64_t>(condemned.size()));

  // Survivors are exactly the non-condemned frequencies, in grid order.
  std::vector<double> expect;
  for (std::size_t i = 0; i < freqs.size(); ++i)
    if (std::find(condemned.begin(), condemned.end(), i) == condemned.end())
      expect.push_back(freqs[i]);
  ASSERT_EQ(out.size(), expect.size());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_DOUBLE_EQ(out[i].f_hz, expect[i]);
}

// pmtbr_adaptive under fault injection. Its initial grid is one window,
// so a condemned grid sample is dropped after the full retry ladder and its
// weight moves to the grid's survivors; bisected pairs are windows of their
// own. The result must not depend on the thread count.
TEST_F(Robustness, AdaptiveDropsCondemnedSampleAndReweightsItsWindow) {
  mor::AdaptiveOptions aopts;
  aopts.band = {0.0, 1e9};
  aopts.initial_samples = 4;
  aopts.max_samples = 16;
  // pmtbr_adaptive's initial grid is the uniform midpoint rule on the band.
  const auto grid = mor::sample_band(aopts.band, aopts.initial_samples,
                                     mor::SamplingScheme::kUniform);
  std::vector<std::size_t> condemned;
  const std::uint64_t seed = seed_with_drops(grid, 0.02, 1, condemned);
  ASSERT_EQ(condemned.size(), 1u);

  struct ScopedThreads {
    explicit ScopedThreads(int n) { util::set_global_threads(n); }
    ~ScopedThreads() { util::set_global_threads(util::resolve_num_threads(nullptr)); }
  };
  const auto run = [&](int threads) {
    ScopedThreads guard(threads);
    circuit::RcLineParams lp;
    lp.segments = 30;
    const auto sys = circuit::make_rc_line(lp);
    fault::ScopedFault replays(fault::Site::kSpluRefactor, 1.0);
    fault::ScopedFault pivots(fault::Site::kSpluPivot, 0.02, seed);
    return mor::pmtbr_adaptive(sys, aopts, {});
  };
  const auto serial = run(1);
  const auto parallel = run(4);

  const mor::DegradeReport& r = serial.degradation;
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(static_cast<std::size_t>(r.failures[0].sample), condemned[0]);
  EXPECT_EQ(r.failures[0].status.code(), util::ErrorCode::kInjectedFault);
  EXPECT_EQ(r.samples_dropped, 1);
  EXPECT_EQ(r.retries, mor::kSampleRetries);
  EXPECT_EQ(r.reweights, 1);  // the initial grid, once
  EXPECT_LT(r.coverage, 1.0);
  EXPECT_GT(r.coverage, 0.5);
  EXPECT_EQ(r.samples_ok, static_cast<index>(serial.samples_used.size()));
  for (const auto& fs : serial.samples_used) EXPECT_NE(fs.s, grid[condemned[0]].s);

  const mor::DegradeReport& p = parallel.degradation;
  EXPECT_EQ(p.samples_attempted, r.samples_attempted);
  EXPECT_EQ(p.samples_ok, r.samples_ok);
  EXPECT_EQ(p.retries, r.retries);
  EXPECT_EQ(p.reweights, r.reweights);
  EXPECT_EQ(p.coverage, r.coverage);
  ASSERT_EQ(p.failures.size(), 1u);
  EXPECT_EQ(p.failures[0].sample, r.failures[0].sample);
  ASSERT_EQ(parallel.samples_used.size(), serial.samples_used.size());
  for (std::size_t i = 0; i < serial.samples_used.size(); ++i) {
    EXPECT_EQ(parallel.samples_used[i].s, serial.samples_used[i].s);
    EXPECT_EQ(parallel.samples_used[i].weight, serial.samples_used[i].weight);
  }
  const la::MatD& va = serial.model.v;
  const la::MatD& vb = parallel.model.v;
  ASSERT_EQ(va.rows(), vb.rows());
  ASSERT_EQ(va.cols(), vb.cols());
  for (index i = 0; i < va.rows(); ++i)
    for (index j = 0; j < va.cols(); ++j) EXPECT_EQ(va(i, j), vb(i, j));
}

TEST_F(Robustness, CleanRunReportsNoDegradation) {
  circuit::RcLineParams lp;
  lp.segments = 30;
  const auto sys = circuit::make_rc_line(lp);
  const auto res = mor::pmtbr(sys, {});
  EXPECT_FALSE(res.degradation.degraded());
  EXPECT_EQ(res.degradation.samples_dropped, 0);
  EXPECT_EQ(res.degradation.retries, 0);
  EXPECT_EQ(res.degradation.reweights, 0);
  EXPECT_DOUBLE_EQ(res.degradation.coverage, 1.0);
  EXPECT_TRUE(res.degradation.failures.empty());

  const std::string json = mor::degradation_extra(res.degradation).second;
  EXPECT_NE(json.find("\"samples_dropped\""), std::string::npos);
  EXPECT_NE(json.find("\"failures\""), std::string::npos);
}

}  // namespace
}  // namespace pmtbr
