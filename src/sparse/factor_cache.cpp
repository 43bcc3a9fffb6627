#include "sparse/factor_cache.hpp"

#include "util/obs/counters.hpp"

namespace pmtbr::sparse {

namespace {
constexpr std::size_t kDefaultFactorCacheBytes = std::size_t{256} << 20;  // 256 MiB
}  // namespace

FactorCache::FactorCache(std::size_t byte_budget) : lru_(byte_budget) {}

FactorCache& FactorCache::global() {
  static FactorCache cache(util::cache_byte_budget(kDefaultFactorCacheBytes));
  return cache;
}

std::shared_ptr<const la::MatC> FactorCache::lookup(const util::Fingerprint& key) {
  auto hit = lru_.get(key);
  if (hit.has_value()) {
    obs::counter_add(obs::Counter::kFactorCacheHit);
    return *hit;
  }
  obs::counter_add(obs::Counter::kFactorCacheMiss);
  return nullptr;
}

void FactorCache::insert(const util::Fingerprint& key, std::shared_ptr<const la::MatC> x) {
  const std::size_t bytes = x->size() * sizeof(la::cd);
  const util::EvictionReport ev = lru_.put(key, std::move(x), bytes);
  if (!ev.inserted) return;
  obs::counter_add(obs::Counter::kFactorCacheBytes,
                   static_cast<std::int64_t>(bytes) - ev.bytes - ev.replaced_bytes);
  if (ev.count > 0) obs::counter_add(obs::Counter::kFactorCacheEvict, ev.count);
}

void FactorCache::clear() {
  const util::CacheStats st = lru_.stats();
  lru_.clear();
  obs::counter_add(obs::Counter::kFactorCacheBytes, -st.bytes);
}

}  // namespace pmtbr::sparse
