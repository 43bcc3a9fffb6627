#include "serve/model_cache.hpp"

#include <sstream>

#include "util/obs/counters.hpp"
#include "util/obs/json.hpp"

namespace pmtbr::serve {

namespace {

// Values the order choice never takes, standing in for it in span keys.
constexpr index kNoOrder = -1;
constexpr double kNoTolerance = -1.0;

void mix_options(util::FingerprintHasher& h, const mor::PmtbrOptions& opts, bool with_order) {
  // Without the order, truncation_tol still counts while it decides when
  // adaptive sampling stops.
  const bool tol_samples = opts.adaptive_excess > 0;
  h.mix(opts.bands.size());
  for (const mor::Band& band : opts.bands) {
    h.mix_double(band.f_lo);
    h.mix_double(band.f_hi);
  }
  h.mix_i64(static_cast<std::int64_t>(opts.num_samples));
  h.mix_i64(static_cast<std::int64_t>(opts.scheme));
  h.mix_i64(static_cast<std::int64_t>(with_order ? opts.fixed_order : kNoOrder));
  h.mix_double(with_order || tol_samples ? opts.truncation_tol : kNoTolerance);
  h.mix_i64(static_cast<std::int64_t>(with_order ? opts.max_order : kNoOrder));
  h.mix_double(opts.adaptive_excess);
  h.mix_i64(static_cast<std::int64_t>(opts.min_samples));
  h.mix_i64(static_cast<std::int64_t>(opts.compressor));
}

std::optional<util::Fingerprint> fingerprint(const JobRequest& req, bool with_order) {
  // A std::function weight has no content identity: two textually equal
  // lambdas are distinct values, so memoizing across them would be wrong.
  if (req.options.weight_fn) return std::nullopt;
  util::FingerprintHasher h;
  const util::Fingerprint system = req.system.content_fingerprint();
  h.mix(system.hi);
  h.mix(system.lo);
  h.mix_i64(static_cast<std::int64_t>(req.method));
  mix_options(h, req.options, with_order);
  if (req.method == Method::kPmtbrAdaptive) {
    h.mix_double(req.adaptive.band.f_lo);
    h.mix_double(req.adaptive.band.f_hi);
    h.mix_i64(static_cast<std::int64_t>(req.adaptive.initial_samples));
    h.mix_i64(static_cast<std::int64_t>(req.adaptive.max_samples));
    h.mix_double(req.adaptive.novelty_tol);
  }
  return h.digest();
}

}  // namespace

std::optional<util::Fingerprint> job_fingerprint(const JobRequest& req) {
  return fingerprint(req, true);
}

std::optional<util::Fingerprint> span_fingerprint(const JobRequest& req) {
  return fingerprint(req, false);
}

std::size_t span_bytes(const mor::SampledSpan& span) {
  return span.compressor.resident_bytes() +
         span.samples_used.size() * sizeof(mor::FrequencySample) +
         span.degradation.failures.size() * sizeof(mor::SampleFailure);
}

ModelCache::ModelCache() : lru_(util::cache_byte_budget(kDefaultModelCacheBytes)) {}

ModelCache::SpanPtr ModelCache::lookup(const util::Fingerprint& key) {
  auto hit = lru_.get(key);
  if (hit.has_value()) {
    obs::counter_add(obs::Counter::kModelCacheHit);
    return *hit;
  }
  obs::counter_add(obs::Counter::kModelCacheMiss);
  return nullptr;
}

void ModelCache::insert(const util::Fingerprint& key, SpanPtr span) {
  const std::size_t bytes = span_bytes(*span);
  const util::EvictionReport ev = lru_.put(key, std::move(span), bytes);
  if (!ev.inserted) return;
  obs::counter_add(obs::Counter::kModelCacheBytes,
                   static_cast<std::int64_t>(bytes) - ev.bytes - ev.replaced_bytes);
  if (ev.count > 0) obs::counter_add(obs::Counter::kModelCacheEvict, ev.count);
}

namespace {

void write_layer(obs::JsonWriter& w, const util::CacheStats& st) {
  w.begin_object();
  w.key("hits");
  w.value(st.hits);
  w.key("misses");
  w.value(st.misses);
  w.key("evictions");
  w.value(st.evictions);
  w.key("entries");
  w.value(st.entries);
  w.key("bytes");
  w.value(st.bytes);
  w.end_object();
}

}  // namespace

std::pair<std::string, std::string> cache_extra(const util::CacheStats& model,
                                                const util::CacheStats& factor) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("model");
  write_layer(w, model);
  w.key("factor");
  write_layer(w, factor);
  w.end_object();
  return {"cache", os.str()};
}

}  // namespace pmtbr::serve
