// Unit tests for the caching substrate (docs/SERVING.md): content
// fingerprints, the PMTBR_CACHE_BYTES budget parser and the byte-bounded
// LRU.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "util/fingerprint.hpp"
#include "util/lru.hpp"

namespace pmtbr::util {
namespace {

TEST(Fingerprint, OrderAndSpanBoundarySensitivity) {
  FingerprintHasher ab, ba;
  ab.mix(1);
  ab.mix(2);
  ba.mix(2);
  ba.mix(1);
  EXPECT_NE(ab.digest(), ba.digest());  // position counter: order matters

  // Moving a boundary between two mixed spans changes the digest even
  // though the flattened element sequence is identical.
  FingerprintHasher split_21, split_12;
  split_21.mix_ints(std::vector<int>{1, 2});
  split_21.mix_ints(std::vector<int>{3});
  split_12.mix_ints(std::vector<int>{1});
  split_12.mix_ints(std::vector<int>{2, 3});
  EXPECT_NE(split_21.digest(), split_12.digest());

  FingerprintHasher empty, one_zero;
  one_zero.mix(0);
  EXPECT_NE(empty.digest(), one_zero.digest());
}

TEST(Fingerprint, DeterministicAndBitPatternExact) {
  FingerprintHasher a, b;
  for (FingerprintHasher* h : {&a, &b}) {
    h->mix_double(1.0 / 3.0);
    h->mix_i64(-7);
    h->mix_bool(true);
  }
  EXPECT_EQ(a.digest(), b.digest());

  // Doubles hash by bit pattern, so even +0.0 / -0.0 are distinct — a
  // fingerprint match implies bit-identical inputs.
  FingerprintHasher pos, neg;
  pos.mix_double(0.0);
  neg.mix_double(-0.0);
  EXPECT_NE(pos.digest(), neg.digest());
}

TEST(Fingerprint, HexIs32LowercaseDigits) {
  const Fingerprint f{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(f.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(Fingerprint{}.hex(), std::string(32, '0'));
}

// Saves/restores PMTBR_CACHE_BYTES so the budget tests cannot leak into
// other tests (or inherit CI's ambient value).
class CacheByteBudget : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("PMTBR_CACHE_BYTES");
    had_ = prev != nullptr;
    if (had_) saved_ = prev;
  }
  void TearDown() override {
    if (had_)
      setenv("PMTBR_CACHE_BYTES", saved_.c_str(), 1);
    else
      unsetenv("PMTBR_CACHE_BYTES");
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST_F(CacheByteBudget, ParsesPlainAndSuffixedValues) {
  unsetenv("PMTBR_CACHE_BYTES");
  EXPECT_EQ(cache_byte_budget(7), 7u);
  setenv("PMTBR_CACHE_BYTES", "4096", 1);
  EXPECT_EQ(cache_byte_budget(7), 4096u);
  setenv("PMTBR_CACHE_BYTES", "64k", 1);
  EXPECT_EQ(cache_byte_budget(7), std::size_t{64} << 10);
  setenv("PMTBR_CACHE_BYTES", "3M", 1);
  EXPECT_EQ(cache_byte_budget(7), std::size_t{3} << 20);
  setenv("PMTBR_CACHE_BYTES", "2g", 1);
  EXPECT_EQ(cache_byte_budget(7), std::size_t{2} << 30);
  setenv("PMTBR_CACHE_BYTES", "0", 1);
  EXPECT_EQ(cache_byte_budget(7), 0u);  // explicit disable
}

TEST_F(CacheByteBudget, MalformedValuesFallBack) {
  setenv("PMTBR_CACHE_BYTES", "12kb", 1);  // trailing junk
  EXPECT_EQ(cache_byte_budget(7), 7u);
  setenv("PMTBR_CACHE_BYTES", "-1", 1);
  EXPECT_EQ(cache_byte_budget(7), 7u);
  setenv("PMTBR_CACHE_BYTES", "", 1);
  EXPECT_EQ(cache_byte_budget(7), 7u);
  setenv("PMTBR_CACHE_BYTES", "99999999999999999999999", 1);  // overflow
  EXPECT_EQ(cache_byte_budget(7), 7u);
}

using IntCache = LruCache<int, int>;

TEST(LruCacheTest, DisabledCacheIgnoresPuts) {
  IntCache cache(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.put(1, 10, 8).inserted);
  EXPECT_FALSE(cache.get(1).has_value());
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedPastByteBudget) {
  IntCache cache(100);
  cache.put(1, 10, 40);
  cache.put(2, 20, 40);
  EXPECT_EQ(*cache.get(1), 10);  // 1 is now most recently used
  const EvictionReport ev = cache.put(3, 30, 40);
  EXPECT_TRUE(ev.inserted);
  EXPECT_EQ(ev.count, 1);
  EXPECT_EQ(ev.bytes, 40);
  EXPECT_FALSE(cache.get(2).has_value());  // 2 was LRU
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_TRUE(cache.get(3).has_value());

  const CacheStats st = cache.stats();
  EXPECT_EQ(st.entries, 2);
  EXPECT_EQ(st.bytes, 80);
  EXPECT_EQ(st.evictions, 1);
}

TEST(LruCacheTest, ReplacingAKeyReportsReleasedBytes) {
  IntCache cache(100);
  cache.put(1, 10, 60);
  const EvictionReport ev = cache.put(1, 11, 50);
  EXPECT_TRUE(ev.inserted);
  EXPECT_EQ(ev.count, 0);
  EXPECT_EQ(ev.replaced_bytes, 60);
  EXPECT_EQ(*cache.get(1), 11);
  EXPECT_EQ(cache.stats().bytes, 50);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(LruCacheTest, ClearKeepsMonotonicTotals) {
  IntCache cache(100);
  cache.put(1, 10, 10);
  (void)cache.get(1);
  (void)cache.get(2);
  cache.clear();
  const CacheStats st = cache.stats();
  EXPECT_EQ(st.entries, 0);
  EXPECT_EQ(st.bytes, 0);
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 1);
  EXPECT_FALSE(cache.get(1).has_value());
}

}  // namespace
}  // namespace pmtbr::util
