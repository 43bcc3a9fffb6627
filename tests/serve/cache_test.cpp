// Cross-job caching layer tests (docs/SERVING.md): job and span
// fingerprints, one lookup and at most one sampling per job, concurrent
// jobs of one span, bit-identical cache hits at the job's own order, the
// shared solve cache that PMTBR's samples bypass, and the move-only
// admission path. The suite names carry the ReductionService prefix so the
// TSan CI preset picks the concurrency tests up.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/generators.hpp"
#include "la/ops.hpp"
#include "mor/pmtbr.hpp"
#include "mor/same_reduction.hpp"
#include "serve/model_cache.hpp"
#include "serve/service.hpp"
#include "sparse/factor_cache.hpp"
#include "util/faultinject.hpp"
#include "util/obs/counters.hpp"

namespace pmtbr::serve {
namespace {

// Memoization is intentionally suspended while fault injection is armed
// (injected failures must replay exactly), so these tests disarm any
// ambient PMTBR_FAULTS configuration for their process.
class CacheTestEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    util::fault::clear();
    sparse::FactorCache::global().clear();
    obs::reset_counters();
  }
};

using ReductionServiceCache = CacheTestEnv;
using ReductionServiceFingerprint = CacheTestEnv;
using ReductionServiceAdmission = CacheTestEnv;

JobRequest mesh_job(const std::string& name, int samples = 12) {
  JobRequest req;
  req.name = name;
  req.system = circuit::make_rc_mesh({.rows = 8, .cols = 8, .num_ports = 2});
  req.options.num_samples = samples;
  return req;
}

const std::string kNetlist =
    "* two-segment RC line\n"
    "R1 in mid 100\n"
    "R2 mid out 100\n"
    "C1 mid 0 1p\n"
    "C2 out 0 1p\n"
    ".port in\n"
    ".end\n";

TEST_F(ReductionServiceFingerprint, StableAcrossReparseSensitiveToValues) {
  auto first = job_from_netlist(kNetlist);
  auto second = job_from_netlist(kNetlist);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  const auto fp1 = job_fingerprint(first.value());
  const auto fp2 = job_fingerprint(second.value());
  ASSERT_TRUE(fp1.has_value());
  ASSERT_TRUE(fp2.has_value());
  // Independent parses of the same text assemble bit-identical systems.
  EXPECT_EQ(*fp1, *fp2);

  // Perturbing one element value must change the key.
  std::string perturbed = kNetlist;
  perturbed.replace(perturbed.find("R1 in mid 100"), 13, "R1 in mid 101");
  auto third = job_from_netlist(perturbed);
  ASSERT_TRUE(third.is_ok());
  const auto fp3 = job_fingerprint(third.value());
  ASSERT_TRUE(fp3.has_value());
  EXPECT_NE(*fp1, *fp3);

  // So must every option that feeds the reduction, and under kPmtbrAdaptive
  // every field of the adaptive options.
  using Perturb = std::function<void(JobRequest&)>;
  const auto expect_new_key = [](const JobRequest& base, const char* field, const Perturb& f) {
    JobRequest other = base;
    f(other);
    const auto fp = job_fingerprint(other);
    ASSERT_TRUE(fp.has_value()) << field;
    EXPECT_NE(*job_fingerprint(base), *fp) << field;
  };
  const std::vector<std::pair<const char*, Perturb>> options = {
      {"num_samples", [](JobRequest& r) { r.options.num_samples += 1; }},
      {"bands", [](JobRequest& r) { r.options.bands.push_back(mor::Band{2e9, 3e9}); }},
      {"bands.f_lo", [](JobRequest& r) { r.options.bands[0].f_lo = 1e3; }},
      {"bands.f_hi", [](JobRequest& r) { r.options.bands[0].f_hi *= 2.0; }},
      {"scheme", [](JobRequest& r) { r.options.scheme = mor::SamplingScheme::kLogarithmic; }},
      {"fixed_order", [](JobRequest& r) { r.options.fixed_order = 3; }},
      {"truncation_tol", [](JobRequest& r) { r.options.truncation_tol *= 10.0; }},
      {"max_order", [](JobRequest& r) { r.options.max_order = 5; }},
      {"adaptive_excess", [](JobRequest& r) { r.options.adaptive_excess = 2.0; }},
      {"min_samples", [](JobRequest& r) { r.options.min_samples += 1; }},
      {"compressor",
       [](JobRequest& r) { r.options.compressor = mor::CompressorMode::kReference; }},
      {"method", [](JobRequest& r) { r.method = Method::kPmtbrAdaptive; }},
  };
  for (const auto& [field, f] : options) expect_new_key(first.value(), field, f);
  JobRequest adaptive = first.value();
  adaptive.method = Method::kPmtbrAdaptive;
  const std::vector<std::pair<const char*, Perturb>> adaptive_options = {
      {"adaptive.band.f_lo", [](JobRequest& r) { r.adaptive.band.f_lo = 1e3; }},
      {"adaptive.band.f_hi", [](JobRequest& r) { r.adaptive.band.f_hi *= 2.0; }},
      {"adaptive.initial_samples", [](JobRequest& r) { r.adaptive.initial_samples += 1; }},
      {"adaptive.max_samples", [](JobRequest& r) { r.adaptive.max_samples += 1; }},
      {"adaptive.novelty_tol", [](JobRequest& r) { r.adaptive.novelty_tol *= 10.0; }},
  };
  for (const auto& [field, f] : adaptive_options) expect_new_key(adaptive, field, f);

  // Scheduling metadata affects when a job runs, never what it computes.
  JobRequest renamed = first.value();
  renamed.name = "different-label";
  renamed.priority = Priority::kHigh;
  const auto fp5 = job_fingerprint(renamed);
  ASSERT_TRUE(fp5.has_value());
  EXPECT_EQ(*fp1, *fp5);

  // A custom weight function has no content identity: uncacheable.
  JobRequest weighted = first.value();
  weighted.options.weight_fn = [](double) { return 1.0; };
  EXPECT_FALSE(job_fingerprint(weighted).has_value());
}

TEST_F(ReductionServiceCache, HitIsBitIdenticalToFreshReduction) {
  JobRequest req = mesh_job("cold");
  const mor::PmtbrResult direct = mor::pmtbr(req.system, req.options);

  ReductionService svc({.runners = 2, .max_queue = 8});
  auto cold = svc.submit(mesh_job("cold"));
  ASSERT_TRUE(cold.is_ok());
  ASSERT_EQ(svc.wait(cold.value()).outcome, JobOutcome::kCompleted);

  auto warm = svc.submit(mesh_job("warm"));
  ASSERT_TRUE(warm.is_ok());
  const JobResult hit = svc.wait(warm.value());
  ASSERT_EQ(hit.outcome, JobOutcome::kCompleted) << hit.status.to_string();

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, 2);
  EXPECT_EQ(st.cache_hits, 1);
  EXPECT_EQ(svc.model_cache_stats().hits, 1);

  // The memoized result must be indistinguishable from a fresh computation
  // down to the last bit, not merely within tolerance.
  const mor::DenseSystem& got = hit.reduction.model.system;
  const mor::DenseSystem& want = direct.model.system;
  ASSERT_EQ(got.a().rows(), want.a().rows());
  ASSERT_EQ(got.a().cols(), want.a().cols());
  for (la::index i = 0; i < got.a().rows(); ++i)
    for (la::index j = 0; j < got.a().cols(); ++j) {
      EXPECT_EQ(got.e()(i, j), want.e()(i, j));
      EXPECT_EQ(got.a()(i, j), want.a()(i, j));
    }
  ASSERT_EQ(got.b().rows(), want.b().rows());
  for (la::index i = 0; i < got.b().rows(); ++i)
    for (la::index j = 0; j < got.b().cols(); ++j) EXPECT_EQ(got.b()(i, j), want.b()(i, j));
  for (la::index i = 0; i < got.c().rows(); ++i)
    for (la::index j = 0; j < got.c().cols(); ++j) EXPECT_EQ(got.c()(i, j), want.c()(i, j));
  ASSERT_EQ(hit.reduction.model.singular_values.size(),
            direct.model.singular_values.size());
  for (std::size_t i = 0; i < direct.model.singular_values.size(); ++i)
    EXPECT_EQ(hit.reduction.model.singular_values[i], direct.model.singular_values[i]);
}

TEST_F(ReductionServiceCache, DisabledCacheRunsEveryJob) {
  // PMTBR_CACHE_BYTES=0 turns the model cache off. The service reads it
  // when it builds its cache, so it is restored right after.
  const char* prev = std::getenv("PMTBR_CACHE_BYTES");
  const bool had = prev != nullptr;
  const std::string saved = had ? prev : "";
  setenv("PMTBR_CACHE_BYTES", "0", 1);
  ReductionService svc({.runners = 1, .max_queue = 4});
  if (had)
    setenv("PMTBR_CACHE_BYTES", saved.c_str(), 1);
  else
    unsetenv("PMTBR_CACHE_BYTES");
  for (int i = 0; i < 2; ++i) {
    auto id = svc.submit(mesh_job("nocache"));
    ASSERT_TRUE(id.is_ok());
    ASSERT_EQ(svc.wait(id.value()).outcome, JobOutcome::kCompleted);
  }
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, 2);
  EXPECT_EQ(st.cache_hits, 0);
  const util::CacheStats cs = svc.model_cache_stats();
  EXPECT_EQ(cs.hits, 0);
  EXPECT_EQ(cs.entries, 0);
}

TEST_F(ReductionServiceCache, FactorCacheSharesSolvesAcrossSystems) {
  // Two independently built but bit-identical systems share content and
  // symbolic fingerprints, so the second one's solve of B is the first
  // one's, served from the shared solve cache instead of refactoring.
  const auto sys1 = circuit::make_rc_mesh({.rows = 6, .cols = 6});
  const auto sys2 = circuit::make_rc_mesh({.rows = 6, .cols = 6});
  EXPECT_EQ(sys1.content_fingerprint(), sys2.content_fingerprint());

  const la::MatC rhs = la::to_complex(sys1.b());
  const la::cd shift(0.0, 2e9);
  const la::MatC x1 = sys1.solve_shifted(shift, rhs);
  const std::int64_t refactors_after_first =
      obs::counter_value(obs::Counter::kSparseLuRefactor);
  const la::MatC x2 = sys2.solve_shifted(shift, rhs);
  // sys2 still builds its own symbolic analysis (for an RC mesh, the
  // pattern-only LDLᵀ analysis, no numeric work), but the solve comes from
  // the shared cache: no refactorization happens at the shift.
  EXPECT_EQ(obs::counter_value(obs::Counter::kSparseLuRefactor), refactors_after_first);
  EXPECT_GE(obs::counter_value(obs::Counter::kFactorCacheHit), 1);

  ASSERT_EQ(x1.rows(), x2.rows());
  for (la::index i = 0; i < x1.rows(); ++i)
    for (la::index j = 0; j < x1.cols(); ++j) EXPECT_EQ(x1(i, j), x2(i, j));

  const util::CacheStats st = sparse::FactorCache::global().stats();
  EXPECT_GE(st.entries, 1);
  EXPECT_GT(st.bytes, 0);
}

// --- The span contract: every order of one sampling is a projection of
// one cached span, bit for bit what a cold call returns at that order. ---

using testing::expect_same_reduction;

// A mesh_job as one direct library call on a freshly built copy of its
// system, with an empty solve cache.
mor::PmtbrResult cold_call(const JobRequest& req) {
  sparse::FactorCache::global().clear();
  const DescriptorSystem sys = mesh_job("cold").system;
  return req.method == Method::kPmtbrAdaptive ? mor::pmtbr_adaptive(sys, req.adaptive, req.options)
                                              : mor::pmtbr(sys, req.options);
}

TEST_F(ReductionServiceCache, ReorderIsAHitEqualToAColdCall) {
  struct Case {
    const char* name;
    std::function<void(JobRequest&)> sampling;  // the shared sampling
    la::index first_order, reorder;
  };
  const std::vector<Case> cases{
      {"fixed order", [](JobRequest&) {}, 4, 7},
      {"adaptive excess",
       [](JobRequest& r) {
         r.options.num_samples = 30;
         r.options.adaptive_excess = 2.0;
         r.options.truncation_tol = 1e-6;
       },
       -1, 3},
      {"pmtbr_adaptive",
       [](JobRequest& r) {
         r.method = Method::kPmtbrAdaptive;
         r.adaptive.band = mor::Band{1e6, 1e11};
         r.adaptive.max_samples = 16;
       },
       4, 6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ReductionService svc({.runners = 1, .max_queue = 4});
    JobResult results[2];
    JobRequest reqs[2];
    for (int k = 0; k < 2; ++k) {
      reqs[k] = mesh_job(k == 0 ? "source" : "reorder");
      c.sampling(reqs[k]);
      reqs[k].options.fixed_order = k == 0 ? c.first_order : c.reorder;
      JobRequest copy = reqs[k];
      auto id = svc.submit(std::move(copy));
      ASSERT_TRUE(id.is_ok());
      results[k] = svc.wait(id.value());
      ASSERT_EQ(results[k].outcome, JobOutcome::kCompleted) << results[k].status.to_string();
    }
    EXPECT_EQ(svc.stats().cache_hits, 1);
    EXPECT_EQ(svc.model_cache_stats().hits, 1);
    EXPECT_EQ(obs::counter_value(obs::Counter::kModelCacheHit), 1);
    EXPECT_NE(results[0].reduction.model.system.n(), results[1].reduction.model.system.n());
    for (int k = 0; k < 2; ++k) expect_same_reduction(results[k].reduction, cold_call(reqs[k]));
    obs::reset_counters();
  }
}

TEST_F(ReductionServiceCache, SamplingInputsNeverShareASpan) {
  using Perturb = std::function<void(JobRequest&)>;
  JobRequest base = mesh_job("base");
  JobRequest excess = mesh_job("excess");
  excess.options.adaptive_excess = 2.0;
  JobRequest adaptive = mesh_job("adaptive");
  adaptive.method = Method::kPmtbrAdaptive;
  adaptive.adaptive.band = mor::Band{1e6, 1e11};
  adaptive.adaptive.max_samples = 10;
  struct Case {
    const char* field;
    const JobRequest* from;
    Perturb f;
  };
  const std::vector<Case> sampling = {
      {"bands", &base, [](JobRequest& r) { r.options.bands.push_back(mor::Band{2e9, 3e9}); }},
      {"bands.f_hi", &base, [](JobRequest& r) { r.options.bands[0].f_hi *= 2.0; }},
      {"num_samples", &base, [](JobRequest& r) { r.options.num_samples += 1; }},
      {"scheme", &base,
       [](JobRequest& r) { r.options.scheme = mor::SamplingScheme::kLogarithmic; }},
      {"compressor", &base,
       [](JobRequest& r) { r.options.compressor = mor::CompressorMode::kReference; }},
      {"adaptive_excess", &excess, [](JobRequest& r) { r.options.adaptive_excess = 3.0; }},
      {"adaptive_excess on", &base, [](JobRequest& r) { r.options.adaptive_excess = 1.5; }},
      {"min_samples", &excess, [](JobRequest& r) { r.options.min_samples += 1; }},
      {"truncation_tol with adaptive_excess", &excess,
       [](JobRequest& r) { r.options.truncation_tol *= 10.0; }},
      {"method", &base, [](JobRequest& r) { r.method = Method::kPmtbrAdaptive; }},
      {"adaptive.band", &adaptive, [](JobRequest& r) { r.adaptive.band.f_hi *= 2.0; }},
      {"adaptive.initial_samples", &adaptive,
       [](JobRequest& r) { r.adaptive.initial_samples += 1; }},
      {"adaptive.max_samples", &adaptive, [](JobRequest& r) { r.adaptive.max_samples += 2; }},
      {"adaptive.novelty_tol", &adaptive, [](JobRequest& r) { r.adaptive.novelty_tol *= 1e3; }},
  };
  ReductionService svc({.runners = 1, .max_queue = 4});
  const auto run = [&svc](const JobRequest& req) {
    JobRequest copy = req;
    auto id = svc.submit(std::move(copy));
    EXPECT_TRUE(id.is_ok());
    const JobResult r = svc.wait(id.value());
    EXPECT_EQ(r.outcome, JobOutcome::kCompleted) << r.status.to_string();
  };
  for (const JobRequest* from : {&base, &excess, &adaptive}) run(*from);
  ASSERT_EQ(svc.stats().cache_hits, 0);
  for (const Case& c : sampling) {
    SCOPED_TRACE(c.field);
    JobRequest other = *c.from;
    c.f(other);
    EXPECT_NE(*span_fingerprint(other), *span_fingerprint(*c.from));
    run(other);
    EXPECT_EQ(svc.stats().cache_hits, 0);
  }

  // The order choice alone never splits a span, while it still splits the
  // job: truncation_tol only while adaptive_excess is off.
  const std::vector<Case> order = {
      {"fixed_order", &base, [](JobRequest& r) { r.options.fixed_order = 3; }},
      {"max_order", &base, [](JobRequest& r) { r.options.max_order = 5; }},
      {"truncation_tol", &base, [](JobRequest& r) { r.options.truncation_tol *= 10.0; }},
      {"fixed_order with adaptive_excess", &excess,
       [](JobRequest& r) { r.options.fixed_order = 3; }},
      {"fixed_order under pmtbr_adaptive", &adaptive,
       [](JobRequest& r) { r.options.fixed_order = 3; }},
  };
  std::int64_t hits = 0;
  for (const Case& c : order) {
    SCOPED_TRACE(c.field);
    JobRequest other = *c.from;
    c.f(other);
    EXPECT_EQ(*span_fingerprint(other), *span_fingerprint(*c.from));
    EXPECT_NE(*job_fingerprint(other), *job_fingerprint(*c.from));
    run(other);
    EXPECT_EQ(svc.stats().cache_hits, ++hits);
  }
  JobRequest weighted = base;
  weighted.options.weight_fn = [](double) { return 1.0; };
  EXPECT_FALSE(span_fingerprint(weighted).has_value());
}

// Submits every request at once and waits for all of them.
std::vector<JobResult> run_together(ReductionService& svc, const std::vector<JobRequest>& reqs) {
  std::vector<JobId> ids;
  for (const JobRequest& req : reqs) {
    JobRequest copy = req;
    auto id = svc.submit(std::move(copy));
    EXPECT_TRUE(id.is_ok());
    if (id.is_ok()) ids.push_back(id.value());
  }
  std::vector<JobResult> results;
  for (const JobId id : ids) results.push_back(svc.wait(id));
  return results;
}

// Every job looks its span up once: a miss samples it (`samples` absorbed
// samples per miss, no other sampling), a hit only projects.
void expect_one_sampling_per_miss(const ReductionService& svc, std::int64_t jobs,
                                  std::int64_t samples) {
  const std::int64_t misses = obs::counter_value(obs::Counter::kModelCacheMiss);
  EXPECT_GE(misses, 1);
  EXPECT_EQ(svc.model_cache_stats().misses, misses);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPmtbrSamples), samples * misses);
  EXPECT_EQ(svc.stats().cache_hits, jobs - misses);
  EXPECT_EQ(obs::counter_value(obs::Counter::kModelCacheHit), jobs - misses);
}

TEST_F(ReductionServiceCache, ConcurrentIdenticalJobsEqualAColdCall) {
  // Jobs of one span that run at once each sample it; every result is the
  // cold call's, bit for bit, whichever sampling it projected.
  constexpr int kJobs = 16;
  ReductionService svc({.runners = kJobs, .max_queue = kJobs});
  std::vector<JobRequest> reqs;
  for (int i = 0; i < kJobs; ++i) reqs.push_back(mesh_job("same-" + std::to_string(i), 24));
  const std::vector<JobResult> results = run_together(svc, reqs);
  for (const JobResult& r : results)
    ASSERT_EQ(r.outcome, JobOutcome::kCompleted) << r.status.to_string();
  EXPECT_EQ(svc.stats().completed, kJobs);
  expect_one_sampling_per_miss(svc, kJobs, 24);

  const mor::PmtbrResult cold = cold_call(reqs[0]);
  for (const JobResult& r : results) expect_same_reduction(r.reduction, cold);
}

TEST_F(ReductionServiceCache, ConcurrentOrdersOfOneSamplingEqualColdCalls) {
  constexpr int kJobs = 8;
  ReductionService svc({.runners = kJobs, .max_queue = kJobs});
  std::vector<JobRequest> reqs;
  for (int q = 1; q <= kJobs; ++q) {
    reqs.push_back(mesh_job("order-" + std::to_string(q), 24));
    reqs.back().options.fixed_order = q;
  }
  const std::vector<JobResult> results = run_together(svc, reqs);
  expect_one_sampling_per_miss(svc, kJobs, 24);
  for (int k = 0; k < kJobs; ++k) {
    SCOPED_TRACE(k + 1);
    ASSERT_EQ(results[static_cast<std::size_t>(k)].outcome, JobOutcome::kCompleted);
    EXPECT_EQ(results[static_cast<std::size_t>(k)].reduction.model.system.n(), k + 1);
    expect_same_reduction(results[static_cast<std::size_t>(k)].reduction,
                          cold_call(reqs[static_cast<std::size_t>(k)]));
  }
}

TEST_F(ReductionServiceCache, FreshJobCountsOneMiss) {
  ReductionService svc({.runners = 1, .max_queue = 2});
  const std::vector<JobResult> results = run_together(svc, {mesh_job("fresh")});
  ASSERT_EQ(results[0].outcome, JobOutcome::kCompleted) << results[0].status.to_string();
  EXPECT_EQ(obs::counter_value(obs::Counter::kModelCacheMiss), 1);
  EXPECT_EQ(svc.model_cache_stats().misses, 1);
  EXPECT_EQ(svc.model_cache_stats().hits, 0);
  EXPECT_EQ(svc.model_cache_stats().entries, 1);
}

TEST_F(ReductionServiceCache, PmtbrLeavesTheSolveCacheAlone) {
  const DescriptorSystem sys = circuit::make_rc_mesh({.rows = 8, .cols = 8, .num_ports = 2});
  mor::PmtbrOptions opts;
  opts.num_samples = 12;
  opts.fixed_order = 5;
  mor::PmtbrOptions excess = opts;
  excess.adaptive_excess = 2.0;
  mor::AdaptiveOptions aopts;
  aopts.band = mor::Band{1e6, 1e11};
  aopts.max_samples = 12;
  (void)mor::pmtbr(sys, opts);
  (void)mor::pmtbr(sys, excess);
  (void)mor::pmtbr_adaptive(sys, aopts, opts);
  (void)mor::pmtbr_order_sweep(sys, mor::sample_bands(opts.bands, 12, opts.scheme), {2, 4}, opts);
  (void)mor::pmtbr_span(sys, opts);
  EXPECT_GT(obs::counter_value(obs::Counter::kPmtbrSamples), 0);
  EXPECT_EQ(obs::counter_value(obs::Counter::kFactorCacheHit), 0);
  EXPECT_EQ(obs::counter_value(obs::Counter::kFactorCacheMiss), 0);
  EXPECT_EQ(sparse::FactorCache::global().stats().entries, 0);
}

TEST_F(ReductionServiceCache, SpanIsChargedItsFactorsAndSamples) {
  const JobRequest req = mesh_job("span");
  const mor::SampledSpan span = mor::pmtbr_span(req.system, req.options);
  const auto r = static_cast<std::size_t>(span.compressor.rank());
  const auto n = static_cast<std::size_t>(span.compressor.n());
  ASSERT_GT(r, 0u);
  // The settled compressor keeps the basis, U and σ, and nothing else.
  EXPECT_EQ(span.compressor.resident_bytes(), (r * n + r * r + r) * sizeof(double));
  EXPECT_EQ(span_bytes(span), span.compressor.resident_bytes() +
                                  span.samples_used.size() * sizeof(mor::FrequencySample));

  ReductionService svc({.runners = 1, .max_queue = 2});
  auto id = svc.submit(mesh_job("span"));
  ASSERT_TRUE(id.is_ok());
  ASSERT_EQ(svc.wait(id.value()).outcome, JobOutcome::kCompleted);
  EXPECT_EQ(svc.model_cache_stats().bytes, static_cast<std::int64_t>(span_bytes(span)));
  EXPECT_EQ(obs::counter_value(obs::Counter::kModelCacheBytes),
            static_cast<std::int64_t>(span_bytes(span)));
}

// A 16×16 two-port mesh at 300 samples: long enough to cancel mid-sampling.
JobRequest big_job(const std::string& name, la::index order) {
  JobRequest req;
  req.name = name;
  req.system = circuit::make_rc_mesh({.rows = 16, .cols = 16, .num_ports = 2});
  req.options.num_samples = 300;
  req.options.fixed_order = order;
  return req;
}

void await_running(const ReductionService& svc) {
  for (int spin = 0; spin < 20000 && svc.stats().running == 0; ++spin)
    std::this_thread::sleep_for(std::chrono::microseconds(50));
}

TEST_F(ReductionServiceCache, FailedOrCancelledSamplingLeavesNoSpan) {
  ReductionService svc({.runners = 1, .max_queue = 2});
  const auto run = [&svc](JobRequest req) {
    auto id = svc.submit(std::move(req));
    EXPECT_TRUE(id.is_ok());
    return svc.wait(id.value());
  };

  // Options that fail throw before any sample is solved.
  JobRequest bad = mesh_job("bad");
  bad.options.truncation_tol = -1.0;
  EXPECT_EQ(run(std::move(bad)).status.code(), util::ErrorCode::kInvalidInput);
  EXPECT_EQ(svc.model_cache_stats().entries, 0);
  EXPECT_EQ(run(mesh_job("good")).outcome, JobOutcome::kCompleted);
  EXPECT_EQ(svc.stats().cache_hits, 0);
  EXPECT_EQ(svc.model_cache_stats().entries, 1);

  // A cancel lands within microseconds of the start of a 300-sample job, so
  // the job is cancelled mid-sampling; had it finished first, it would have
  // kept its span like any completed job.
  const JobId doomed = svc.submit(big_job("doomed", 3)).value();
  await_running(svc);
  svc.cancel(doomed);
  const JobResult first = svc.wait(doomed);
  const bool cancelled = first.outcome == JobOutcome::kCancelled;
  ASSERT_TRUE(cancelled || first.outcome == JobOutcome::kCompleted) << first.status.to_string();
  EXPECT_EQ(svc.model_cache_stats().entries, cancelled ? 1 : 2);
  const JobResult again = run(big_job("again", 3));
  ASSERT_EQ(again.outcome, JobOutcome::kCompleted) << again.status.to_string();
  EXPECT_EQ(svc.stats().cache_hits, cancelled ? 0 : 1);
  EXPECT_EQ(svc.model_cache_stats().entries, 2);
}

TEST_F(ReductionServiceCache, FailedOrCancelledJobNeverPoisonsItsSpan) {
  // A failing job shares the span key of valid ones (truncation_tol is not
  // a sampling input while adaptive_excess is off): it fails alone.
  {
    ReductionService svc({.runners = 2, .max_queue = 8});
    JobRequest bad = mesh_job("bad");
    bad.options.truncation_tol = -1.0;
    ASSERT_EQ(span_fingerprint(bad), span_fingerprint(mesh_job("good")));
    std::vector<JobId> ids;
    ids.push_back(svc.submit(std::move(bad)).value());
    for (const la::index q : {3, 5}) {
      JobRequest good = mesh_job("good");
      good.options.fixed_order = q;
      ids.push_back(svc.submit(std::move(good)).value());
    }
    JobRequest late = mesh_job("late-bad");
    late.options.truncation_tol = -1.0;
    ids.push_back(svc.submit(std::move(late)).value());
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const JobResult r = svc.wait(ids[k]);
      const bool is_bad = k == 0 || k + 1 == ids.size();
      EXPECT_EQ(r.outcome, is_bad ? JobOutcome::kFailed : JobOutcome::kCompleted)
          << k << ": " << r.status.to_string();
      if (is_bad) {
        EXPECT_EQ(r.status.code(), util::ErrorCode::kInvalidInput);
      }
    }
  }

  // A job cancelled mid-sampling inserts nothing; the jobs of its span
  // submitted while it ran sample or find the span, each at its own order.
  ReductionService svc({.runners = 4, .max_queue = 8});
  const JobId first = svc.submit(big_job("first", 3)).value();
  await_running(svc);
  std::vector<JobId> others;
  for (const la::index q : {4, 5, 6}) others.push_back(svc.submit(big_job("other", q)).value());
  svc.cancel(first);
  const JobResult cancelled = svc.wait(first);
  EXPECT_TRUE(cancelled.outcome == JobOutcome::kCancelled ||
              cancelled.outcome == JobOutcome::kCompleted)
      << cancelled.status.to_string();
  for (std::size_t k = 0; k < others.size(); ++k) {
    const JobResult r = svc.wait(others[k]);
    ASSERT_EQ(r.outcome, JobOutcome::kCompleted) << r.status.to_string();
    sparse::FactorCache::global().clear();
    const JobRequest want = big_job("direct", static_cast<la::index>(4 + k));
    expect_same_reduction(r.reduction, mor::pmtbr(want.system, want.options));
  }
}

TEST_F(ReductionServiceAdmission, SubmitMovesRequestWithoutCopyingMatrices) {
  JobRequest req = mesh_job("moved");
  const double* values_before = req.system.a().values().data();
  const std::size_t nnz_before = req.system.a().nnz();
  ASSERT_GT(nnz_before, 0u);

  // Moving the request relocates the handle, not the payload.
  JobRequest moved = std::move(req);
  EXPECT_EQ(moved.system.a().values().data(), values_before);

  // The admission path (submit by value + move into the job record) must
  // preserve that: after submit, the caller's request no longer owns the
  // matrix storage. (libstdc++ leaves a moved-from vector empty.)
  ReductionService svc({.runners = 1, .max_queue = 2});
  auto id = svc.submit(std::move(moved));
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(moved.system.a().nnz(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(svc.wait(id.value()).outcome, JobOutcome::kCompleted);
}

}  // namespace
}  // namespace pmtbr::serve
