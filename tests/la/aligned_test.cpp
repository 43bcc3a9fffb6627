// la::AlignedVector keeps its storage on a cache line through every way a
// vector gets new storage: construction at any size (glibc places blocks
// above its mmap threshold at 16 mod 64), growth by resize and push_back,
// copy, move and swap.
#include <gtest/gtest.h>

#include <complex>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "la/aligned.hpp"

namespace pmtbr {
namespace {

using la::AlignedVector;
using la::is_cache_aligned;

constexpr std::size_t kMaxDoubles = std::size_t{1} << 20;

// 1 to 2²⁰ doubles: every power of two and its neighbours.
std::vector<std::size_t> sizes() {
  std::vector<std::size_t> out;
  for (std::size_t n = 1; n <= kMaxDoubles; n *= 2) {
    if (n > 2) out.push_back(n - 1);
    out.push_back(n);
    if (n < kMaxDoubles) out.push_back(n + 1);
  }
  return out;
}

AlignedVector<double> iota_vector(std::size_t n) {
  AlignedVector<double> v(n);
  std::iota(v.begin(), v.end(), 0.0);
  return v;
}

TEST(AlignedVector, EverySizeStartsACacheLine) {
  for (const std::size_t n : sizes()) {
    const AlignedVector<double> v(n, 1.0);
    EXPECT_TRUE(is_cache_aligned(v.data())) << n << " doubles";
    const AlignedVector<std::complex<double>> c(n);
    EXPECT_TRUE(is_cache_aligned(c.data())) << n << " complex";
  }
}

TEST(AlignedVector, ResizeKeepsTheCacheLineAndTheValues) {
  AlignedVector<double> v;
  for (const std::size_t n : sizes()) {
    const std::size_t old = v.size();
    v.resize(n, static_cast<double>(n));
    ASSERT_TRUE(is_cache_aligned(v.data())) << n;
    if (old > 0) {
      EXPECT_EQ(v[old - 1], static_cast<double>(old));
    }
  }
  v.resize(3);
  v.shrink_to_fit();
  EXPECT_TRUE(is_cache_aligned(v.data()));
}

TEST(AlignedVector, PushBackKeepsTheCacheLineAndTheValues) {
  AlignedVector<double> v;
  int moves = 0;
  for (std::size_t i = 0; i < kMaxDoubles; ++i) {
    const double* before = v.data();
    v.push_back(static_cast<double>(i));
    if (v.data() == before) continue;
    ++moves;
    ASSERT_TRUE(is_cache_aligned(v.data())) << "after " << i + 1 << " elements";
  }
  EXPECT_GT(moves, 10);
  for (std::size_t i = 0; i < kMaxDoubles; i += 4099) EXPECT_EQ(v[i], static_cast<double>(i));
}

TEST(AlignedVector, CopyMoveAndSwapKeepTheCacheLine) {
  // Below and above the 128 KiB mmap threshold.
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{4097},
                              std::size_t{1} << 15, (std::size_t{1} << 17) + 3}) {
    const AlignedVector<double> a = iota_vector(n);

    AlignedVector<double> copy(a);
    EXPECT_TRUE(is_cache_aligned(copy.data())) << n;
    EXPECT_EQ(copy, a);
    AlignedVector<double> assigned(5, 2.0);
    assigned = a;
    EXPECT_TRUE(is_cache_aligned(assigned.data())) << n;
    EXPECT_EQ(assigned, a);

    AlignedVector<double> moved(std::move(copy));
    EXPECT_TRUE(is_cache_aligned(moved.data())) << n;
    EXPECT_EQ(moved, a);
    AlignedVector<double> move_assigned(3, 1.0);
    move_assigned = std::move(assigned);
    EXPECT_TRUE(is_cache_aligned(move_assigned.data())) << n;
    EXPECT_EQ(move_assigned, a);

    AlignedVector<double> small(3, 4.0);
    std::swap(small, moved);
    EXPECT_TRUE(is_cache_aligned(small.data())) << n;
    EXPECT_TRUE(is_cache_aligned(moved.data())) << n;
    EXPECT_EQ(small, a);
    EXPECT_EQ(moved, AlignedVector<double>(3, 4.0));
    small.swap(move_assigned);
    EXPECT_TRUE(is_cache_aligned(small.data())) << n;
    EXPECT_TRUE(is_cache_aligned(move_assigned.data())) << n;
  }
}

TEST(AlignedVector, IsCacheAlignedSeesAnOffset) {
  const AlignedVector<double> v(16);
  EXPECT_TRUE(is_cache_aligned(v.data()));
  EXPECT_TRUE(is_cache_aligned(v.data() + 8));
  EXPECT_FALSE(is_cache_aligned(v.data() + 2));
}

}  // namespace
}  // namespace pmtbr
