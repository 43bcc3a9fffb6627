// Per-service cache of sampled spans plus the job fingerprinting that keys
// it (docs/SERVING.md).
//
// A job's fingerprint digests everything that determines its PmtbrResult:
// the system's content fingerprint and the canonicalized options surface.
// Scheduling metadata (name, priority, deadline) and the cancel token are
// excluded — they affect *when* a job runs, never *what* it computes. A
// request carrying a custom weight_fn is uncacheable (std::function has
// no content identity) and reports nullopt.
//
// The cache keeps each job's mor::SampledSpan, not its result: every order
// of one sampling is a projection of one span, so its key is the job
// fingerprint with the order choice neutralized (span_fingerprint). A job
// that finds its span projects its own order (mor::project_span), which
// is bit for bit what a fresh reduction returns at that order.
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

/// The key of the job's span: job_fingerprint with fixed_order and
/// max_order neutralized, and truncation_tol too unless adaptive_excess > 0
/// lets it decide when sampling stops. Jobs that differ only in order
/// share it; nullopt exactly when job_fingerprint is.
std::optional<util::Fingerprint> span_fingerprint(const JobRequest& req);

/// Resident size of one cached span: the compressor's basis, U and σ
/// ((rank·n + rank² + rank) doubles), its samples and its failure list.
std::size_t span_bytes(const mor::SampledSpan& span);

/// Default span-cache byte budget before the PMTBR_CACHE_BYTES override.
inline constexpr std::size_t kDefaultModelCacheBytes = std::size_t{256} << 20;

class ModelCache {
 public:
  using SpanPtr = std::shared_ptr<const mor::SampledSpan>;

  /// The byte budget is PMTBR_CACHE_BYTES (default 256 MiB).
  ModelCache();

  bool enabled() const { return lru_.enabled(); }

  /// Cached span or nullptr; bumps model_cache_hit/miss counters.
  SpanPtr lookup(const util::Fingerprint& key);

  /// Keeps a sampled span, evicting past the byte budget.
  void insert(const util::Fingerprint& key, SpanPtr span);

  util::CacheStats stats() const { return lru_.stats(); }

 private:
  util::LruCache<util::Fingerprint, SpanPtr, util::FingerprintHash> lru_;
};

/// ("cache", <json>) manifest extra: one object per cache layer with
/// hits/misses/evictions/entries/bytes — validated by
/// tools/report_metrics.py.
std::pair<std::string, std::string> cache_extra(const util::CacheStats& model,
                                                const util::CacheStats& factor);

}  // namespace pmtbr::serve
