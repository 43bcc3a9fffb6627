// Process-wide LRU of shifted *solves*, shared across jobs
// (docs/SERVING.md).
//
// The cache keeps X = (sE − A)⁻¹B itself, not the numeric factor that
// computed it — on a 40×40 RC mesh the LDLᵀ factor holds 13× the scalars
// of its solve — so every factor lives only for its own solve and a hit
// skips the factor and the solve. DescriptorSystem::try_solve_shifted,
// transfer and MPPROJ's samples use it. PMTBR's samples do not (they take
// try_solve_uncached): two jobs over one system reuse PMTBR's compressed
// span instead (serve/model_cache), which holds far fewer values than its
// solves.
//
// Keying: callers digest (system content fingerprint, shift) into one
// Fingerprint. B is part of the content fingerprint, so the right-hand side
// is never hashed. That is enough to keep cache hits bit-identical: a
// system's analysis, pivot order included, is a function of E and A alone
// (circuit/descriptor.hpp), so content-identical systems factor every shift
// identically.
//
// Values are shared_ptr<const la::MatC>: immutable after construction, so
// handing the same solve to concurrent readers is race-free, and a handle
// obtained before eviction stays valid.
//
// The byte budget comes from PMTBR_CACHE_BYTES (k/m/g suffixes; 0
// disables the cache) and defaults to 256 MiB. Callers must not consult
// the cache while fault injection is armed — injected factor failures are
// keyed per solve attempt, and serving cached solves would skip injection
// sites the robustness tests account for exactly.
#pragma once

#include <memory>

#include "la/matrix.hpp"
#include "util/fingerprint.hpp"
#include "util/lru.hpp"

namespace pmtbr::sparse {

class FactorCache {
 public:
  /// The process-wide instance (budget resolved from PMTBR_CACHE_BYTES at
  /// first use, default 256 MiB).
  static FactorCache& global();

  bool enabled() const { return lru_.enabled(); }

  /// Returns the cached solve or nullptr; bumps the factor_cache_hit/miss
  /// counters.
  std::shared_ptr<const la::MatC> lookup(const util::Fingerprint& key);

  /// Inserts `x` under `key` at rows·cols·sizeof(cd) bytes, evicting LRU
  /// entries past the byte budget; mirrors eviction and resident-bytes
  /// counters.
  void insert(const util::Fingerprint& key, std::shared_ptr<const la::MatC> x);

  util::CacheStats stats() const { return lru_.stats(); }

  /// Drops every cached solve (tests and benches isolating counter
  /// assertions from earlier work in the same process).
  void clear();

 private:
  explicit FactorCache(std::size_t byte_budget);

  util::LruCache<util::Fingerprint, std::shared_ptr<const la::MatC>, util::FingerprintHash> lru_;
};

}  // namespace pmtbr::sparse
