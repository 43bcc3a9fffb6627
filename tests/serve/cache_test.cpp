// Cross-job caching layer tests (docs/SERVING.md): job fingerprint
// stability, single-flight coalescing of concurrent identical jobs,
// bit-identical cache hits, the shared numeric-factor cache, and the
// move-only admission path. The suite names carry the ReductionService
// prefix so the TSan CI preset picks the concurrency tests up.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/generators.hpp"
#include "la/ops.hpp"
#include "mor/pmtbr.hpp"
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

TEST_F(ReductionServiceCache, SingleFlightCollapsesConcurrentIdenticalJobs) {
  constexpr int kJobs = 16;
  ReductionService svc({.runners = kJobs, .max_queue = kJobs});
  std::vector<JobId> ids;
  ids.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    auto id = svc.submit(mesh_job("flight-" + std::to_string(i), 24));
    ASSERT_TRUE(id.is_ok());
    ids.push_back(id.value());
  }
  std::vector<JobResult> results;
  results.reserve(kJobs);
  for (const JobId id : ids) results.push_back(svc.wait(id));
  for (const JobResult& r : results)
    ASSERT_EQ(r.outcome, JobOutcome::kCompleted) << r.status.to_string();

  // Exactly one reduction ran: the sample counter saw one job's worth of
  // absorbed samples, every other job was served by the flight or the LRU.
  EXPECT_EQ(obs::counter_value(obs::Counter::kPmtbrSamples), 24);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, kJobs);
  EXPECT_EQ(st.cache_hits, kJobs - 1);

  // All coalesced results are bit-identical to the leader's.
  for (const JobResult& r : results) {
    ASSERT_EQ(r.reduction.model.singular_values.size(),
              results[0].reduction.model.singular_values.size());
    for (std::size_t i = 0; i < results[0].reduction.model.singular_values.size(); ++i)
      EXPECT_EQ(r.reduction.model.singular_values[i],
                results[0].reduction.model.singular_values[i]);
  }
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
