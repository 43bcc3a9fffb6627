// Per-service memoization of completed reductions plus the job
// fingerprinting that keys it (docs/SERVING.md).
//
// A job's fingerprint digests everything that determines its PmtbrResult:
// the system's content fingerprint and the canonicalized options surface.
// Scheduling metadata (name, priority, deadline) and the cancel token are
// excluded — they affect *when* a job runs, never *what* it computes. A
// request carrying a custom weight_fn is uncacheable (std::function has
// no content identity) and reports nullopt.
//
// The cache stores shared_ptr<const PmtbrResult>: a hit deep-copies the
// result into the job, so cached and freshly computed results are
// bit-identical by construction (the stored value IS a completed job's
// result). The embedded SingleFlight gate lets the service coalesce N
// concurrent identical jobs into one reduction.
//
// The byte budget defaults to PMTBR_CACHE_BYTES (k/m/g suffixes) or
// 256 MiB; 0 disables the cache entirely.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "mor/pmtbr.hpp"
#include "serve/job.hpp"
#include "util/fingerprint.hpp"
#include "util/lru.hpp"

namespace pmtbr::serve {

/// Stable job key, or nullopt for uncacheable requests (custom weight_fn).
std::optional<util::Fingerprint> job_fingerprint(const JobRequest& req);

/// Estimated resident size of one cached result (model matrices, bases,
/// samples, spectra).
std::size_t result_bytes(const mor::PmtbrResult& result);

/// Default model-cache byte budget before the PMTBR_CACHE_BYTES override.
inline constexpr std::size_t kDefaultModelCacheBytes = std::size_t{256} << 20;

class ModelCache {
 public:
  using ResultPtr = std::shared_ptr<const mor::PmtbrResult>;
  using FlightGate = util::SingleFlight<util::Fingerprint, ResultPtr, util::FingerprintHash>;

  /// The byte budget is PMTBR_CACHE_BYTES (default 256 MiB).
  ModelCache();

  bool enabled() const { return lru_.enabled(); }

  /// Cached result or nullptr; bumps model_cache_hit/miss counters.
  ResultPtr lookup(const util::Fingerprint& key);

  /// Memoizes a completed result, evicting past the byte budget.
  void insert(const util::Fingerprint& key, ResultPtr result);

  /// Records `n` jobs served by joining an in-flight computation.
  void note_coalesced(std::int64_t n = 1);

  util::CacheStats stats() const { return lru_.stats(); }

  FlightGate& flights() { return flights_; }

 private:
  util::LruCache<util::Fingerprint, ResultPtr, util::FingerprintHash> lru_;
  FlightGate flights_;
};

/// ("cache", <json>) manifest extra: one object per cache layer with
/// hits/misses/evictions/coalesced/entries/bytes — validated by
/// tools/report_metrics.py.
std::pair<std::string, std::string> cache_extra(const util::CacheStats& model,
                                                const util::CacheStats& factor);

}  // namespace pmtbr::serve
