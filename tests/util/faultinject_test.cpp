// Error-taxonomy and fault-injection unit tests: Status/Expected semantics,
// deterministic injection decisions, spec parsing, and the scoped guards
// the robustness tests build on (docs/ROBUSTNESS.md).
#include "util/faultinject.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/obs/counters.hpp"
#include "util/status.hpp"

namespace pmtbr::util {
namespace {

TEST(Status, DefaultIsOkAndErrorCarriesCodeMessageDetail) {
  Status ok;
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.code(), ErrorCode::kOk);
  EXPECT_EQ(ok.to_string(), "ok");

  Status err = Status(ErrorCode::kDegeneratePivot, "pivot too small").with_detail(17, 1e-14);
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.code(), ErrorCode::kDegeneratePivot);
  EXPECT_EQ(err.detail_index(), 17);
  EXPECT_DOUBLE_EQ(err.detail_value(), 1e-14);
  EXPECT_EQ(err.to_string(), "degenerate_pivot: pivot too small");
}

TEST(Status, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kSingularMatrix), "singular_matrix");
  EXPECT_STREQ(error_code_name(ErrorCode::kInjectedFault), "injected_fault");
  EXPECT_STREQ(error_code_name(ErrorCode::kCoverageFloor), "coverage_floor");
  EXPECT_STREQ(error_code_name(ErrorCode::kCancelled), "cancelled");
}

TEST(Status, StatusErrorIsARuntimeErrorCarryingTheStatus) {
  try {
    throw StatusError(Status(ErrorCode::kSingularMatrix, "exact pole"));
  } catch (const std::runtime_error& e) {  // legacy catch sites keep working
    EXPECT_STREQ(e.what(), "singular_matrix: exact pole");
  }
  try {
    throw StatusError(Status(ErrorCode::kNoConvergence, "budget"));
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), ErrorCode::kNoConvergence);
  }
}

TEST(Expected, DefaultIsCancelledValueRoundTripsErrorThrows) {
  Expected<int> never_ran;
  EXPECT_FALSE(never_ran.is_ok());
  EXPECT_EQ(never_ran.status().code(), ErrorCode::kCancelled);

  Expected<int> ok = 42;
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_TRUE(ok.status().is_ok());

  Expected<int> bad = Status(ErrorCode::kNonFinite, "nan");
  EXPECT_THROW(bad.value(), StatusError);
}

class FaultInjectTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear(); }
  void TearDown() override { fault::clear(); }
};

TEST_F(FaultInjectTest, DisabledByDefault) {
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::should_fail(fault::Site::kSpluPivot, 123));
  EXPECT_FALSE(fault::should_fail(fault::Site::kPoolTask));
}

TEST_F(FaultInjectTest, ScopedFaultArmsAndRestores) {
  {
    fault::ScopedFault guard(fault::Site::kSpluPivot, 1.0, 7);
    EXPECT_TRUE(fault::enabled());
    EXPECT_TRUE(fault::should_fail(fault::Site::kSpluPivot, 1));
    // Other sites stay dark.
    EXPECT_FALSE(fault::should_fail(fault::Site::kPoolTask, 1));
  }
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::should_fail(fault::Site::kSpluPivot, 1));
}

TEST_F(FaultInjectTest, ZeroProbabilityNeverFires) {
  fault::ScopedFault guard(fault::Site::kSpluRefactor, 0.0, 3);
  for (std::uint64_t k = 0; k < 100; ++k)
    EXPECT_FALSE(fault::should_fail(fault::Site::kSpluRefactor, k));
}

TEST_F(FaultInjectTest, KeyedDecisionsMatchThePureDecideFunction) {
  constexpr double kP = 0.3;
  constexpr std::uint64_t kSeed = 99;
  fault::ScopedFault guard(fault::Site::kSpluPivot, kP, kSeed);
  int fired = 0;
  for (std::uint64_t k = 0; k < 500; ++k) {
    const bool hit = fault::should_fail(fault::Site::kSpluPivot, k);
    EXPECT_EQ(hit, fault::decide(kP, kSeed, fault::Site::kSpluPivot, k)) << k;
    fired += hit ? 1 : 0;
  }
  // Roughly p of the keys fire (hash uniformity, loose bounds).
  EXPECT_GT(fired, 100);
  EXPECT_LT(fired, 200);
  // Same (seed, site, key) → same decision, always.
  for (std::uint64_t k = 0; k < 20; ++k)
    EXPECT_EQ(fault::decide(kP, kSeed, fault::Site::kSpluPivot, k),
              fault::decide(kP, kSeed, fault::Site::kSpluPivot, k));
}

TEST_F(FaultInjectTest, DecisionsArePinnedPerSiteName) {
  // A site's decisions hash its name, not its place in the enum: these
  // masks (bit k = key k fires at p = 0.5, seed 23) may only change when
  // the hash itself does, never when a site is added, removed or moved.
  const std::pair<fault::Site, std::uint32_t> golden[] = {
      {fault::Site::kSpluPivot, 0xea5d7b77u},
      {fault::Site::kSpluRefactor, 0x41d75221u},
      {fault::Site::kPoolTask, 0x19b052ceu},
  };
  for (const auto& [site, mask] : golden)
    for (std::uint64_t k = 0; k < 32; ++k)
      EXPECT_EQ(fault::decide(0.5, 23, site, k), ((mask >> k) & 1u) != 0)
          << fault::site_name(site) << " key " << k;
}

TEST_F(FaultInjectTest, KeyScopeDrivesKeylessQueries) {
  constexpr double kP = 0.5;
  constexpr std::uint64_t kSeed = 11;
  // Find one key that fires and one that doesn't.
  std::uint64_t hot = 0, cold = 0;
  bool have_hot = false, have_cold = false;
  for (std::uint64_t k = 0; k < 64 && !(have_hot && have_cold); ++k) {
    if (fault::decide(kP, kSeed, fault::Site::kSpluRefactor, k)) {
      hot = k;
      have_hot = true;
    } else {
      cold = k;
      have_cold = true;
    }
  }
  ASSERT_TRUE(have_hot && have_cold);

  fault::ScopedFault guard(fault::Site::kSpluRefactor, kP, kSeed);
  {
    fault::KeyScope scope(hot);
    EXPECT_TRUE(fault::should_fail(fault::Site::kSpluRefactor));
  }
  {
    fault::KeyScope scope(cold);
    EXPECT_FALSE(fault::should_fail(fault::Site::kSpluRefactor));
    {  // nested scopes stack and restore
      fault::KeyScope inner(hot);
      EXPECT_TRUE(fault::should_fail(fault::Site::kSpluRefactor));
    }
    EXPECT_FALSE(fault::should_fail(fault::Site::kSpluRefactor));
  }
}

TEST_F(FaultInjectTest, ShiftKeyDistinguishesShifts) {
  const std::uint64_t a = fault::shift_key(0.0, 1.0);
  const std::uint64_t b = fault::shift_key(0.0, 2.0);
  const std::uint64_t c = fault::shift_key(1.0, 0.0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, fault::shift_key(0.0, 1.0));
}

TEST_F(FaultInjectTest, ConfigureParsesSpecsAndRejectsGarbage) {
  EXPECT_EQ(fault::configure("splu.pivot:p=0.25:seed=7,pool.task"), "");
  EXPECT_TRUE(fault::enabled());
  // pool.task defaults to p=1: every key fires.
  EXPECT_TRUE(fault::should_fail(fault::Site::kPoolTask, 5));
  EXPECT_EQ(fault::should_fail(fault::Site::kSpluPivot, 5),
            fault::decide(0.25, 7, fault::Site::kSpluPivot, 5));

  EXPECT_NE(fault::configure("not.a.site:p=1"), "");
  EXPECT_NE(fault::configure("splu.pivot:p=nope"), "");
  EXPECT_NE(fault::configure("splu.pivot:p=2.0"), "");
  // No solver reports non-convergence through a fault site.
  EXPECT_NE(fault::configure("svd.converge"), "");
  EXPECT_NE(fault::configure("eig.converge"), "");

  fault::clear();
  EXPECT_FALSE(fault::enabled());
}

TEST_F(FaultInjectTest, FiredInjectionsBumpTheCounter) {
  const std::int64_t before = obs::counter_value(obs::Counter::kFaultsInjected);
  fault::ScopedFault guard(fault::Site::kPoolTask, 1.0, 1);
  EXPECT_TRUE(fault::should_fail(fault::Site::kPoolTask, 42));
  EXPECT_TRUE(fault::should_fail(fault::Site::kPoolTask, 43));
  EXPECT_EQ(obs::counter_value(obs::Counter::kFaultsInjected), before + 2);
}

}  // namespace
}  // namespace pmtbr::util
