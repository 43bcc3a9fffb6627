#include "util/faultinject.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <mutex>

#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/obs/counters.hpp"

namespace pmtbr::util::fault {

namespace {

struct SiteConfig {
  std::atomic<bool> armed{false};
  // Written only while holding g_config_mutex (or single-threaded test
  // setup); read racily on the query path — acceptable for a test-only
  // feature whose decisions are validated under fixed configs.
  double probability = 1.0;
  std::uint64_t seed = 0;
  std::atomic<std::uint64_t> calls{0};
};

SiteConfig g_sites[kNumSites];
std::atomic<bool> g_any_armed{false};
std::once_flag g_env_once;
util::Mutex g_config_mutex;

void recount_armed_locked() {
  int n = 0;
  for (auto& s : g_sites)
    if (s.armed.load(std::memory_order_relaxed)) ++n;
  g_any_armed.store(n > 0, std::memory_order_release);
}

// splitmix64 — the standard 64-bit finalizer; good avalanche, no state.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FNV-1a over a site's stable name. Decisions key on the spelling
// PMTBR_FAULTS uses rather than the Site's position in the enum, so adding,
// removing or reordering a site leaves every other site's decisions alone.
std::uint64_t name_hash(const char* name) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (; *name != '\0'; ++name) {
    h ^= static_cast<unsigned char>(*name);
    h *= 0x100000001b3ULL;
  }
  return h;
}

thread_local std::uint64_t tl_key = 0;
thread_local bool tl_has_key = false;

Site parse_site(const std::string& name, bool& ok) {
  ok = true;
  for (int i = 0; i < kNumSites; ++i)
    if (name == site_name(static_cast<Site>(i))) return static_cast<Site>(i);
  ok = false;
  return Site::kCount;
}

std::string configure_impl(const std::string& spec);

void configure_from_env() {
  const char* env = std::getenv("PMTBR_FAULTS");
  if (env == nullptr || *env == '\0') return;
  const std::string err = configure_impl(env);
  // A malformed spec in the environment must not be silently ignored —
  // the whole point is reproducible fault runs. Fail loudly.
  PMTBR_REQUIRE(err.empty(), "invalid PMTBR_FAULTS: " + err);
}

// Every explicit reconfiguration (configure/clear/ScopedFault) must consume
// the env once-flag first: otherwise a lazily deferred PMTBR_FAULTS parse —
// triggered by the first should_fail() — would re-arm sites *behind* an
// explicit configuration that already ran.
void ingest_env() { std::call_once(g_env_once, configure_from_env); }

std::string configure_impl(const std::string& spec) {
  util::MutexLock lock(g_config_mutex);
  for (auto& s : g_sites) s.armed.store(false, std::memory_order_relaxed);

  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    // site[:p=<float>][:seed=<u64>]
    std::size_t colon = entry.find(':');
    const std::string name = entry.substr(0, colon);
    bool ok = false;
    const Site site = parse_site(name, ok);
    if (!ok) return "unknown site '" + name + "'";
    double p = 1.0;
    std::uint64_t seed = 0;
    while (colon != std::string::npos) {
      const std::size_t next = entry.find(':', colon + 1);
      const std::string field =
          entry.substr(colon + 1, (next == std::string::npos ? entry.size() : next) - colon - 1);
      colon = next;
      if (field.rfind("p=", 0) == 0) {
        char* parse_end = nullptr;
        p = std::strtod(field.c_str() + 2, &parse_end);
        if (parse_end == field.c_str() + 2 || *parse_end != '\0' || p < 0.0 || p > 1.0)
          return "bad probability in '" + entry + "'";
      } else if (field.rfind("seed=", 0) == 0) {
        char* parse_end = nullptr;
        seed = std::strtoull(field.c_str() + 5, &parse_end, 10);
        if (parse_end == field.c_str() + 5 || *parse_end != '\0')
          return "bad seed in '" + entry + "'";
      } else {
        return "unknown field '" + field + "' in '" + entry + "'";
      }
    }
    auto& cfg = g_sites[static_cast<int>(site)];
    cfg.probability = p;
    cfg.seed = seed;
    cfg.armed.store(true, std::memory_order_relaxed);
  }
  recount_armed_locked();
  return {};
}

}  // namespace

const char* site_name(Site s) noexcept {
  switch (s) {
    case Site::kSpluPivot: return "splu.pivot";
    case Site::kSpluRefactor: return "splu.refactor";
    case Site::kPoolTask: return "pool.task";
    case Site::kCount: break;
  }
  return "unknown";
}

bool enabled() noexcept {
  std::call_once(g_env_once, configure_from_env);
  return g_any_armed.load(std::memory_order_acquire);
}

bool decide(double probability, std::uint64_t seed, Site site, std::uint64_t key) noexcept {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  const std::uint64_t h = mix(seed ^ mix(name_hash(site_name(site))) ^ mix(key));
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < probability;
}

std::uint64_t shift_key(double re, double im) noexcept {
  return mix(std::bit_cast<std::uint64_t>(re)) ^ std::bit_cast<std::uint64_t>(im);
}

bool should_fail(Site site, std::uint64_t key) noexcept {
  if (!enabled()) return false;
  auto& cfg = g_sites[static_cast<int>(site)];
  if (!cfg.armed.load(std::memory_order_relaxed)) return false;
  if (!decide(cfg.probability, cfg.seed, site, key)) return false;
  obs::counter_add(obs::Counter::kFaultsInjected);
  return true;
}

bool should_fail(Site site) noexcept {
  if (!enabled()) return false;
  auto& cfg = g_sites[static_cast<int>(site)];
  if (!cfg.armed.load(std::memory_order_relaxed)) return false;
  const std::uint64_t key =
      tl_has_key ? tl_key : cfg.calls.fetch_add(1, std::memory_order_relaxed);
  if (!decide(cfg.probability, cfg.seed, site, key)) return false;
  obs::counter_add(obs::Counter::kFaultsInjected);
  return true;
}

KeyScope::KeyScope(std::uint64_t key) noexcept : prev_(tl_key), had_prev_(tl_has_key) {
  tl_key = key;
  tl_has_key = true;
}

KeyScope::~KeyScope() {
  tl_key = prev_;
  tl_has_key = had_prev_;
}

ScopedFault::ScopedFault(Site site, double probability, std::uint64_t seed) noexcept
    : site_(site) {
  ingest_env();
  util::MutexLock lock(g_config_mutex);
  auto& cfg = g_sites[static_cast<int>(site)];
  prev_armed_ = cfg.armed.load(std::memory_order_relaxed);
  prev_p_ = cfg.probability;
  prev_seed_ = cfg.seed;
  cfg.probability = probability;
  cfg.seed = seed;
  cfg.armed.store(true, std::memory_order_relaxed);
  recount_armed_locked();
}

ScopedFault::~ScopedFault() {
  util::MutexLock lock(g_config_mutex);
  auto& cfg = g_sites[static_cast<int>(site_)];
  cfg.probability = prev_p_;
  cfg.seed = prev_seed_;
  cfg.armed.store(prev_armed_, std::memory_order_relaxed);
  recount_armed_locked();
}

std::string configure(const std::string& spec) {
  ingest_env();
  return configure_impl(spec);
}

void clear() {
  ingest_env();
  util::MutexLock lock(g_config_mutex);
  for (auto& s : g_sites) s.armed.store(false, std::memory_order_relaxed);
  recount_armed_locked();
}

}  // namespace pmtbr::util::fault
