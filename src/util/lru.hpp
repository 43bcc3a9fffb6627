// Byte-bounded LRU cache — the synchronization substrate of the
// cross-job caching layer (docs/SERVING.md).
//
// LruCache is internally synchronized behind a capability-annotated
// util::Mutex, so the cache front-ends (serve/model_cache, sparse/
// factor_cache) expose lock-free-looking APIs without re-deriving the
// locking. Eviction is strict LRU. Values are expected to be cheap handles
// (shared_ptr to immutable data) — a get() returns a copy that stays valid
// after the entry is evicted.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace pmtbr::util {

/// Monotonic hit/miss/eviction totals plus resident-size gauges; the cache
/// front-ends mirror these into obs counters and the `cache` manifest
/// extra.
struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t entries = 0;  // gauge: resident entries
  std::int64_t bytes = 0;    // gauge: resident payload bytes
};

/// What one put() displaced, so callers can mirror eviction counters and
/// resident-bytes gauges without a second stats round-trip.
struct EvictionReport {
  std::int64_t count = 0;           // entries evicted under the budget
  std::int64_t bytes = 0;           // their payload bytes
  std::int64_t replaced_bytes = 0;  // bytes released by overwriting the same key
  bool inserted = false;
};

/// Byte budget from the environment: PMTBR_CACHE_BYTES accepts a
/// nonnegative integer with an optional k/m/g (KiB/MiB/GiB) suffix; 0
/// disables caching. Unset or malformed values yield `fallback`.
inline std::size_t cache_byte_budget(std::size_t fallback) noexcept {
  const char* env = std::getenv("PMTBR_CACHE_BYTES");
  if (env == nullptr || *env == '\0') return fallback;
  std::size_t value = 0;
  const char* p = env;
  if (*p < '0' || *p > '9') return fallback;
  for (; *p >= '0' && *p <= '9'; ++p) {
    const std::size_t digit = static_cast<std::size_t>(*p - '0');
    if (value > (~std::size_t{0} - digit) / 10) return fallback;  // overflow
    value = value * 10 + digit;
  }
  std::size_t scale = 1;
  if (*p == 'k' || *p == 'K')
    scale = std::size_t{1} << 10;
  else if (*p == 'm' || *p == 'M')
    scale = std::size_t{1} << 20;
  else if (*p == 'g' || *p == 'G')
    scale = std::size_t{1} << 30;
  if (scale > 1) ++p;
  if (*p != '\0') return fallback;  // trailing junk
  if (scale > 1 && value > (~std::size_t{0}) / scale) return fallback;
  return value * scale;
}

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  /// `max_bytes` = 0 disables the cache.
  explicit LruCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  bool enabled() const noexcept { return max_bytes_ > 0; }

  /// Returns a copy of the cached value and refreshes its recency, or
  /// nullopt on a miss. Every call counts as a hit or a miss.
  std::optional<Value> get(const Key& key) PMTBR_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    order_.splice(order_.begin(), order_, it->second);  // move to front
    return it->second->value;
  }

  /// Inserts or replaces `key`, charging `bytes` against the budget, then
  /// evicts least-recently-used entries until the cache fits its budget
  /// again. A disabled cache (max_bytes == 0) ignores the put.
  EvictionReport put(const Key& key, Value value, std::size_t bytes)
      PMTBR_EXCLUDES(mutex_) {
    EvictionReport report;
    if (!enabled()) return report;
    MutexLock lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      bytes_ -= it->second->bytes;
      report.replaced_bytes = static_cast<std::int64_t>(it->second->bytes);
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      bytes_ += bytes;
      order_.splice(order_.begin(), order_, it->second);
    } else {
      order_.push_front(Entry{key, std::move(value), bytes});
      map_.emplace(key, order_.begin());
      bytes_ += bytes;
    }
    report.inserted = true;
    evict_locked(report);
    stats_.entries = static_cast<std::int64_t>(map_.size());
    stats_.bytes = static_cast<std::int64_t>(bytes_);
    return report;
  }

  /// Drops every entry and the resident gauges; the monotonic totals
  /// survive so long-running stats stay meaningful.
  void clear() PMTBR_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    order_.clear();
    map_.clear();
    bytes_ = 0;
    stats_.entries = 0;
    stats_.bytes = 0;
  }

  CacheStats stats() const PMTBR_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return stats_;
  }

 private:
  struct Entry {
    Key key;
    Value value;
    std::size_t bytes = 0;
  };
  using Order = std::list<Entry>;

  void evict_locked(EvictionReport& report) PMTBR_REQUIRES(mutex_) {
    while (bytes_ > max_bytes_ && !order_.empty()) {
      const Entry& lru = order_.back();
      ++report.count;
      report.bytes += static_cast<std::int64_t>(lru.bytes);
      ++stats_.evictions;
      bytes_ -= lru.bytes;
      map_.erase(lru.key);
      order_.pop_back();
    }
  }

  const std::size_t max_bytes_;
  mutable Mutex mutex_;
  Order order_ PMTBR_GUARDED_BY(mutex_);  // front = most recently used
  std::unordered_map<Key, typename Order::iterator, Hash> map_ PMTBR_GUARDED_BY(mutex_);
  std::size_t bytes_ PMTBR_GUARDED_BY(mutex_) = 0;
  CacheStats stats_ PMTBR_GUARDED_BY(mutex_);
};

}  // namespace pmtbr::util
