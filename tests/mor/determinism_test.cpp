// Determinism of the parallel sampling pipeline: PMTBR at 4 threads must
// produce bit-identical reduced models to PMTBR at 1 thread. The pipeline
// guarantees this because a system's symbolic analysis, pivot order
// included, is a function of E and A alone, and because sample blocks are
// committed in sample order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <utility>
#include <vector>

#include "circuit/generators.hpp"
#include "la/ops.hpp"
#include "mor/mpproj.hpp"
#include "mor/pmtbr.hpp"
#include "mor/replay.hpp"
#include "mor/same_reduction.hpp"
#include "mor/sampling.hpp"
#include "signal/ac.hpp"
#include "sparse/factor_cache.hpp"
#include "util/faultinject.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace pmtbr::mor {
namespace {

// Restores the default pool size even if a test fails mid-way. Empties the
// process-wide solve cache on entry: it is keyed by system content, not by
// object, so without this a run on a freshly built but equal system would
// be served the previous run's samples and solve nothing on this pool.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) {
    util::set_global_threads(n);
    sparse::FactorCache::global().clear();
  }
  ~ScopedThreads() { util::set_global_threads(util::resolve_num_threads(nullptr)); }
};

DescriptorSystem mesh_system(la::index side = 10) {
  circuit::RcMeshParams p;
  p.rows = side;
  p.cols = side;
  p.num_ports = 3;
  return circuit::make_rc_mesh(p);
}

void expect_bit_identical(const MatD& a, const MatD& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (la::index i = 0; i < a.rows(); ++i)
    for (la::index j = 0; j < a.cols(); ++j)
      EXPECT_EQ(a(i, j), b(i, j)) << "entry (" << i << ", " << j << ")";
}

PmtbrResult run_pmtbr(int threads, bool adaptive_stop, la::index side = 10) {
  ScopedThreads guard(threads);
  const auto sys = mesh_system(side);
  PmtbrOptions opts;
  opts.bands = {Band{1e5, 5e10}};
  opts.num_samples = 16;
  opts.fixed_order = 8;
  if (adaptive_stop) {
    opts.adaptive_excess = 2.0;
    opts.min_samples = 4;
    opts.fixed_order = -1;
    opts.truncation_tol = 1e-6;
  }
  const std::int64_t hits = obs::counter_value(obs::Counter::kFactorCacheHit);
  auto result = pmtbr(sys, opts);
  EXPECT_EQ(obs::counter_value(obs::Counter::kFactorCacheHit), hits)
      << "samples served from the solve cache were not solved at " << threads << " threads";
  return result;
}

TEST(ParallelDeterminism, PmtbrMatchesSerialBitForBit) {
  // n = 100, and n = 1024 so the compressor factors tall residual blocks.
  for (const la::index side : {la::index{10}, la::index{32}}) {
    SCOPED_TRACE(::testing::Message() << side << "x" << side << " mesh");
    const auto serial = run_pmtbr(1, false, side);
    const auto parallel = run_pmtbr(4, false, side);

    expect_bit_identical(serial.model.v, parallel.model.v);
    expect_bit_identical(serial.model.system.a(), parallel.model.system.a());
    expect_bit_identical(serial.model.system.b(), parallel.model.system.b());
    expect_bit_identical(serial.model.system.c(), parallel.model.system.c());
    expect_bit_identical(serial.model.system.e(), parallel.model.system.e());
    ASSERT_EQ(serial.model.singular_values.size(), parallel.model.singular_values.size());
    for (std::size_t i = 0; i < serial.model.singular_values.size(); ++i)
      EXPECT_EQ(serial.model.singular_values[i], parallel.model.singular_values[i]);
  }
}

TEST(ParallelDeterminism, AdaptiveStopCommitsIdenticalSamplePrefix) {
  const auto serial = run_pmtbr(1, true);
  const auto parallel = run_pmtbr(4, true);

  ASSERT_EQ(serial.samples_used.size(), parallel.samples_used.size());
  for (std::size_t i = 0; i < serial.samples_used.size(); ++i) {
    EXPECT_EQ(serial.samples_used[i].s, parallel.samples_used[i].s);
    EXPECT_EQ(serial.samples_used[i].weight, parallel.samples_used[i].weight);
  }
  expect_bit_identical(serial.model.v, parallel.model.v);
  expect_bit_identical(serial.model.system.a(), parallel.model.system.a());
}

// The stop rule against the replay's call sequence: on four systems, eight
// tolerances and three excess factors, mor::pmtbr (which folds only where
// its bound cannot rule out a stop) must stop at the same sample and return
// the same bits as a public-API loop that queries the order after every
// sample past min_samples, and fold exactly at the loop's undecided checks.
void expect_stop_rule_matches_replay(int threads) {
  ScopedThreads guard(threads);
  struct Case {
    const char* name;
    DescriptorSystem sys;
    Band band;
    index samples;
  };
  circuit::RcMeshParams mp;
  mp.rows = 20;
  mp.cols = 20;
  mp.num_ports = 2;
  circuit::PeecParams pp;
  pp.sections = 12;
  const Case cases[] = {
      {"20x20 two-port RC mesh", circuit::make_rc_mesh(mp), Band{1e5, 1e11}, 20},
      {"7-level clock tree", circuit::make_clock_tree({.levels = 7}), Band{0.0, 1e10}, 60},
      {"60-segment RC line", circuit::make_rc_line({.segments = 60}), Band{0.0, 1e10}, 40},
      {"12-section PEEC", circuit::make_peec(pp), Band{0.0, 1e10}, 40}};
  const bool trace_was_enabled = obs::trace_enabled();
  obs::set_trace_enabled(true);
  long long checks = 0, folds = 0;
  for (const Case& c : cases) {
    for (const double tol : {1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 0.0}) {
      for (const double excess : {1.5, 2.0, 3.0}) {
        SCOPED_TRACE(::testing::Message() << c.name << ", tol " << tol << ", excess " << excess);
        PmtbrOptions opts;
        opts.bands = {c.band};
        opts.num_samples = c.samples;
        opts.truncation_tol = tol;
        opts.adaptive_excess = excess;
        obs::reset_trace();
        const PmtbrResult res = pmtbr(c.sys, opts);
        long long scratch = 0;
        for (const auto& s : obs::trace_snapshot())
          if (s.path.ends_with("compressor.scratch_fold")) scratch += s.count;
        const testing::Replayed ref = testing::replay_every_sample(c.sys, opts);
        EXPECT_EQ(res.samples_used.size(), ref.result.samples_used.size());
        testing::expect_same_model(res, ref.result);
        EXPECT_EQ(scratch, ref.exact_checks);
        checks += static_cast<long long>(res.samples_used.size()) - opts.min_samples + 1;
        folds += scratch;
      }
    }
  }
  obs::set_trace_enabled(trace_was_enabled);
  EXPECT_LT(folds, checks);
}

TEST(Pmtbr, AdaptiveStopMatchesExactEverySample) { expect_stop_rule_matches_replay(1); }

TEST(ParallelDeterminism, AdaptiveStopMatchesExactEverySample) {
  expect_stop_rule_matches_replay(4);
}

// Solves an adaptive run throws away: the samples of its last batch solved
// past the stop (pmtbr_samples_discarded). A batch is two samples per pool
// thread, or one lane group's width when that is more, so at most a batch
// less the stopping sample is discarded.
std::int64_t discarded_solves(const DescriptorSystem& sys, const PmtbrOptions& opts,
                              std::size_t& used) {
  const std::int64_t before = obs::counter_value(obs::Counter::kPmtbrSamplesDiscarded);
  used = pmtbr(sys, opts).samples_used.size();
  return obs::counter_value(obs::Counter::kPmtbrSamplesDiscarded) - before;
}

TEST(Pmtbr, AdaptiveMeshSolvesInThreeLaneGroupsAndDiscardsNone) {
  // mesh_adaptive's shape at one thread never stops: its 20 samples are
  // factored as 8 + 8 + 4 lanes, and no solve is discarded.
  ScopedThreads guard(1);
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
  const std::int64_t groups = obs::counter_value(obs::Counter::kSparseLdltLaneGroups);
  std::size_t used = 0;
  EXPECT_EQ(discarded_solves(sys, opts, used), 0);
  EXPECT_EQ(used, 20u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLdltLaneGroups) - groups, 3);
}

TEST(ParallelDeterminism, DiscardedSolvesStayWithinOneBatch) {
  // bench_ablation_ordercontrol's 7-level clock tree (LDLᵀ lanes) stops at
  // 5–13 of 60 samples; a 12-section PEEC line (RLC, LU) stops at 4–12.
  // The tree's batch is its lane width at one thread, and from four
  // threads up two samples per thread, as on an LU pencil: a lane group
  // never widens a batch that the threads already fill.
  circuit::PeecParams pp;
  pp.sections = 12;
  const DescriptorSystem tree = circuit::make_clock_tree({.levels = 7});
  const DescriptorSystem peec = circuit::make_peec(pp);
  for (const int threads : {1, 4}) {
    ScopedThreads guard(threads);
    for (const double tol : {1e-2, 1e-4, 1e-6, 1e-8, 1e-10}) {
      SCOPED_TRACE(::testing::Message() << threads << " threads, clock tree, tol " << tol);
      PmtbrOptions opts;
      opts.bands = {Band{0.0, 1e10}};
      opts.num_samples = 60;
      opts.adaptive_excess = 2.5;
      opts.truncation_tol = tol;
      std::size_t used = 0;
      const std::int64_t discarded = discarded_solves(tree, opts, used);
      EXPECT_LT(used, 60u);
      EXPECT_GE(discarded, 0);
      EXPECT_LE(discarded, (threads == 1 ? tree.lane_width() : 2 * threads) - 1);
    }
    EXPECT_EQ(peec.lane_width(), 1);
    for (const double tol : {1e-2, 1e-3, 1e-4}) {
      SCOPED_TRACE(::testing::Message() << threads << " threads, PEEC, tol " << tol);
      PmtbrOptions opts;
      opts.bands = {Band{0.0, 1e10}};
      opts.num_samples = 60;
      opts.adaptive_excess = 1.5;
      opts.truncation_tol = tol;
      std::size_t used = 0;
      const std::int64_t discarded = discarded_solves(peec, opts, used);
      EXPECT_LT(used, 60u);
      EXPECT_GE(discarded, 0);
      EXPECT_LE(discarded, 2 * threads - 1);
    }
  }
}

// Adaptive stopping with a sample condemned just past the stopping point.
// A serial run commits pairs and never solves it; a 4-thread run solves it
// in the same batch as the stop. Windows are pairs at every pool size and
// samples solved past the stop are discarded unrecorded, so the model and
// the degradation report must not depend on the thread count.
TEST(ParallelDeterminism, DegradedAdaptiveStopMatchesSerial) {
  const auto run = [](int threads) {
    ScopedThreads guard(threads);
    const auto sys = circuit::make_rc_line({.segments = 30});
    PmtbrOptions opts;
    opts.bands = {Band{1e5, 1e10}};
    opts.num_samples = 16;
    opts.adaptive_excess = 2.0;
    opts.truncation_tol = 1e-6;
    util::fault::ScopedFault replays(util::fault::Site::kSpluRefactor, 1.0);
    util::fault::ScopedFault pivots(util::fault::Site::kSpluPivot, 0.1, 2);
    return pmtbr(sys, opts);
  };
  const auto serial = run(1);
  const auto parallel = run(4);

  const DegradeReport& a = serial.degradation;
  const DegradeReport& b = parallel.degradation;
  EXPECT_EQ(a.samples_attempted, b.samples_attempted);
  EXPECT_EQ(a.samples_ok, b.samples_ok);
  EXPECT_EQ(a.samples_dropped, b.samples_dropped);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.regularized, b.regularized);
  EXPECT_EQ(a.reweights, b.reweights);
  EXPECT_EQ(a.coverage, b.coverage);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].sample, b.failures[i].sample);
    EXPECT_EQ(a.failures[i].status.code(), b.failures[i].status.code());
    EXPECT_EQ(a.failures[i].retries, b.failures[i].retries);
  }
  ASSERT_EQ(serial.samples_used.size(), parallel.samples_used.size());
  for (std::size_t i = 0; i < serial.samples_used.size(); ++i) {
    EXPECT_EQ(serial.samples_used[i].s, parallel.samples_used[i].s);
    EXPECT_EQ(serial.samples_used[i].weight, parallel.samples_used[i].weight);
  }
  expect_bit_identical(serial.model.v, parallel.model.v);
  ASSERT_EQ(serial.model.singular_values.size(), parallel.model.singular_values.size());
  for (std::size_t i = 0; i < serial.model.singular_values.size(); ++i)
    EXPECT_EQ(serial.model.singular_values[i], parallel.model.singular_values[i]);
}

TEST(ParallelDeterminism, OrderSweepMatchesSerial) {
  const auto samples = sample_bands({Band{1e6, 1e10}}, 12, SamplingScheme::kLogarithmic);
  const std::vector<la::index> orders{2, 4, 8};

  std::vector<PmtbrResult> serial, parallel;
  {
    ScopedThreads guard(1);
    serial = pmtbr_order_sweep(mesh_system(), samples, orders);
  }
  {
    ScopedThreads guard(4);
    parallel = pmtbr_order_sweep(mesh_system(), samples, orders);
  }
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    expect_bit_identical(serial[k].model.v, parallel[k].model.v);
    expect_bit_identical(serial[k].model.system.a(), parallel[k].model.system.a());
  }
}

TEST(ParallelDeterminism, AcSweepMatchesSerial) {
  std::vector<double> freqs;
  for (int k = 0; k < 40; ++k) freqs.push_back(1e6 * std::pow(10.0, 0.1 * k));

  std::vector<signal::AcPoint> serial, parallel;
  {
    ScopedThreads guard(1);
    serial = signal::ac_sweep(mesh_system(), freqs, 0, 0);
  }
  {
    ScopedThreads guard(4);
    parallel = signal::ac_sweep(mesh_system(), freqs, 0, 0);
  }
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].f_hz, parallel[i].f_hz);
    EXPECT_EQ(serial[i].magnitude, parallel[i].magnitude);
    EXPECT_EQ(serial[i].phase_rad, parallel[i].phase_rad);
  }
}

TEST(ParallelDeterminism, ConcurrentShiftedSolvesOnOneSystemAreSafe) {
  // Hammer one DescriptorSystem's lazy caches from many pool tasks at once
  // (exactly what the sampling pipeline does); under TSan this doubles as
  // the race check for the merge and analysis caches. Whichever task builds
  // the analysis, each solve must equal, bit for bit, a serial solve in
  // reverse order on a freshly built copy: on an LDLᵀ pencil (RC mesh) and
  // an LU pencil (connector) alike.
  constexpr la::index kSolves = 16;  // 1 MHz to 5.6 GHz, four per decade
  const auto shift = [](la::index i) {
    const double f = 1e6 * std::pow(10.0, 0.25 * static_cast<double>(i));
    return la::cd(0.0, 2.0 * std::numbers::pi * f);
  };
  const auto check = [&](DescriptorSystem (*build)()) {
    ScopedThreads guard(4);
    const DescriptorSystem sys = build();
    const la::MatC b = la::to_complex(sys.b());
    std::vector<la::MatC> results(static_cast<std::size_t>(kSolves));
    util::parallel_for(0, kSolves, [&](la::index i) {
      results[static_cast<std::size_t>(i)] = sys.solve_shifted(shift(i), b);
    });
    // The copy must factor its own solves, not read these from the cache.
    sparse::FactorCache::global().clear();
    const DescriptorSystem fresh = build();
    for (la::index i = kSolves - 1; i >= 0; --i) {
      SCOPED_TRACE(i);
      const la::MatC ref = fresh.solve_shifted(shift(i), b);
      const la::MatC& x = results[static_cast<std::size_t>(i)];
      ASSERT_EQ(x.size(), ref.size());
      EXPECT_EQ(std::memcmp(x.data(), ref.data(), x.size() * sizeof(la::cd)), 0);
    }
  };
  {
    SCOPED_TRACE("mesh");
    check([] { return mesh_system(); });
  }
  {
    SCOPED_TRACE("connector");
    check([] { return circuit::make_connector(); });
  }
}

// An RLC pencil's analysis reads only E and A, so what was solved on a
// system before cannot move its models: a connector that first evaluated
// H(j·2π·1 MHz) reduces to the bits of a freshly built one.
TEST(PencilAnalysis, ModelsDependOnlyOnTheMatrices) {
  PmtbrOptions opts;
  opts.bands = {Band{0.0, 8e9}};
  opts.num_samples = 16;
  opts.fixed_order = 20;
  const auto samples = sample_bands(opts.bands, opts.num_samples, opts.scheme);
  const auto reduce = [&](bool primed) {
    sparse::FactorCache::global().clear();
    const DescriptorSystem sys = circuit::make_connector();
    if (primed) {
      (void)sys.transfer(la::cd(0.0, 2.0 * std::numbers::pi * 1e6));
      sparse::FactorCache::global().clear();
    }
    return std::pair{pmtbr(sys, opts).model, mpproj(sys, samples).model};
  };
  const auto expect_same = [](const ReducedModel& a, const ReducedModel& b) {
    expect_bit_identical(a.v, b.v);
    expect_bit_identical(a.system.e(), b.system.e());
    expect_bit_identical(a.system.a(), b.system.a());
    expect_bit_identical(a.system.b(), b.system.b());
    expect_bit_identical(a.system.c(), b.system.c());
  };
  const auto fresh = reduce(false);
  const auto primed = reduce(true);
  {
    SCOPED_TRACE("pmtbr");
    expect_same(fresh.first, primed.first);
  }
  {
    SCOPED_TRACE("mpproj");
    expect_same(fresh.second, primed.second);
  }
}

}  // namespace
}  // namespace pmtbr::mor
