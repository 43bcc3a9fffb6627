// Thread-pool unit tests: coverage of the index range, exception
// propagation, empty ranges, nested usage, parallel_try_map's slots, and
// the PMTBR_NUM_THREADS resolution rules.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/faultinject.hpp"
#include "util/status.hpp"

namespace pmtbr::util {
namespace {

TEST(ThreadPool, EmptyAndReversedRangesAreNoops) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, 0, [&](index) { ++calls; });
  pool.parallel_for(5, 5, [&](index) { ++calls; });
  pool.parallel_for(7, 3, [&](index) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr index kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](index i) { ++hits[static_cast<std::size_t>(i)]; });
  for (index i = 0; i < kN; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
}

TEST(ThreadPool, NonZeroBeginIsRespected) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for(10, 20, [&](index i) { sum += i; });
  EXPECT_EQ(sum.load(), 145);  // 10 + 11 + ... + 19
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(0, 8, [&](index) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](index i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a failed job and accepts new work.
  std::atomic<int> calls{0};
  pool.parallel_for(0, 10, [&](index) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, NestedParallelForCompletesSerially) {
  ThreadPool pool(4);
  constexpr index kOuter = 8;
  constexpr index kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(0, kOuter, [&](index o) {
    // Nested calls must run inline instead of deadlocking on the queue.
    pool.parallel_for(0, kInner,
                      [&](index i) { ++hits[static_cast<std::size_t>(o * kInner + i)]; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SetGlobalThreadsControlsPoolSize) {
  set_global_threads(3);
  EXPECT_EQ(global_pool().size(), 3);
  set_global_threads(1);
  EXPECT_EQ(global_pool().size(), 1);
  set_global_threads(resolve_num_threads(nullptr));
}

TEST(ThreadPool, ResolveNumThreadsParsesEnvOverride) {
  EXPECT_EQ(resolve_num_threads("4"), 4);
  EXPECT_EQ(resolve_num_threads("1"), 1);
  const int hw = resolve_num_threads(nullptr);
  EXPECT_GE(hw, 1);
  // Garbage, non-positive, and absurd values fall back to hardware.
  EXPECT_EQ(resolve_num_threads("zero"), hw);
  EXPECT_EQ(resolve_num_threads("4x"), hw);
  EXPECT_EQ(resolve_num_threads("0"), hw);
  EXPECT_EQ(resolve_num_threads("-2"), hw);
  EXPECT_EQ(resolve_num_threads("99999"), hw);
  EXPECT_EQ(resolve_num_threads(""), hw);
}

TEST(ParallelTryMap, OneFailingTaskDoesNotPoisonSiblings) {
  const auto out = parallel_try_map<int>(100, [](index i) -> Expected<int> {
    if (i == 37) throw std::runtime_error("boom");
    if (i == 53) return Status(ErrorCode::kNonFinite, "bad sample");
    return static_cast<int>(i) * 2;
  });
  ASSERT_EQ(out.size(), 100u);
  for (index i = 0; i < 100; ++i) {
    const auto& slot = out[static_cast<std::size_t>(i)];
    if (i == 37) {
      ASSERT_FALSE(slot.is_ok());
      EXPECT_EQ(slot.status().code(), ErrorCode::kUnhandledException);
      EXPECT_EQ(slot.status().message(), "boom");
    } else if (i == 53) {
      ASSERT_FALSE(slot.is_ok());
      EXPECT_EQ(slot.status().code(), ErrorCode::kNonFinite);
    } else {
      ASSERT_TRUE(slot.is_ok()) << i;
      EXPECT_EQ(slot.value(), static_cast<int>(i) * 2);
    }
  }
}

TEST(ParallelTryMap, StatusErrorKeepsItsTaxonomyCode) {
  const auto out = parallel_try_map<int>(4, [](index i) -> Expected<int> {
    if (i == 2)
      throw StatusError(Status(ErrorCode::kSingularMatrix, "pole hit").with_detail(9, 1e-18));
    return 1;
  });
  ASSERT_FALSE(out[2].is_ok());
  EXPECT_EQ(out[2].status().code(), ErrorCode::kSingularMatrix);
  EXPECT_EQ(out[2].status().detail_index(), 9);
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3}})
    EXPECT_TRUE(out[k].is_ok());
}

TEST(ParallelTryMap, PoolTaskInjectionFailsOnlyCondemnedSlots) {
  fault::ScopedFault guard(fault::Site::kPoolTask, 0.5, 21);
  const auto out = parallel_try_map<int>(64, [](index i) -> Expected<int> {
    return static_cast<int>(i);
  });
  int injected = 0;
  for (index i = 0; i < 64; ++i) {
    const bool condemned = fault::decide(0.5, 21, fault::Site::kPoolTask,
                                         static_cast<std::uint64_t>(i));
    const auto& slot = out[static_cast<std::size_t>(i)];
    EXPECT_EQ(slot.is_ok(), !condemned) << i;
    if (!slot.is_ok()) {
      EXPECT_EQ(slot.status().code(), ErrorCode::kInjectedFault);
      ++injected;
    }
  }
  EXPECT_GT(injected, 0);
}

}  // namespace
}  // namespace pmtbr::util
