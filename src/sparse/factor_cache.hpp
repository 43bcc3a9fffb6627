// Process-wide LRU of *numeric* sparse LU factors, shared across jobs
// (docs/SERVING.md).
//
// The per-system symbolic cache (circuit/descriptor) already amortizes
// the elimination analysis across shifts of one DescriptorSystem
// instance; this cache extends the idea one level down and across
// instances: two jobs that factor the same pencil content at the same
// shift share the numeric factors themselves, no matter which
// DescriptorSystem object (or which service job) asked first.
//
// Keying: callers digest (system content fingerprint, symbolic-structure
// fingerprint, shift) into one Fingerprint. Including the symbolic
// fingerprint is what keeps cache hits bit-identical — numeric factors
// depend on the frozen pivot order, and two content-identical systems
// whose analyses were built at different representative shifts may carry
// different (each individually valid) pivot orders.
//
// Values are shared_ptr<const SparseLuC>: immutable after construction,
// so handing the same factorization to concurrent solvers is race-free,
// and a handle obtained before eviction stays valid.
//
// The byte budget comes from PMTBR_CACHE_BYTES (k/m/g suffixes; 0
// disables the cache) and defaults to 256 MiB. Callers must not consult
// the cache while fault injection is armed — injected factor failures are
// keyed per solve attempt, and serving cached factors would skip
// injection sites the robustness tests account for exactly.
#pragma once

#include <memory>

#include "sparse/splu.hpp"
#include "util/fingerprint.hpp"
#include "util/lru.hpp"

namespace pmtbr::sparse {

/// Estimated resident size of one cached factorization: the scalars it
/// stores, L, U and U's diagonal or L and D (the shared symbolic pattern is
/// not charged — it lives on regardless via the per-system cache).
std::size_t factor_cache_bytes(const SparseLuC& lu);

class FactorCache {
 public:
  /// The process-wide instance (budget resolved from PMTBR_CACHE_BYTES at
  /// first use, default 256 MiB).
  static FactorCache& global();

  bool enabled() const { return lru_.enabled(); }

  /// Returns the cached factorization or nullptr; bumps the
  /// factor_cache_hit/miss counters.
  std::shared_ptr<const SparseLuC> lookup(const util::Fingerprint& key);

  /// Inserts `lu` under `key`, evicting LRU entries past the byte budget;
  /// mirrors eviction and resident-bytes counters.
  void insert(const util::Fingerprint& key, std::shared_ptr<const SparseLuC> lu);

  util::CacheStats stats() const { return lru_.stats(); }

  /// Drops every cached factor (tests and benches isolating counter
  /// assertions from earlier work in the same process).
  void clear();

 private:
  explicit FactorCache(std::size_t byte_budget);

  util::LruCache<util::Fingerprint, std::shared_ptr<const SparseLuC>, util::FingerprintHash>
      lru_;
};

}  // namespace pmtbr::sparse
