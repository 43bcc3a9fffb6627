// Deterministic fault injection for the sampling pipeline (docs/ROBUSTNESS.md).
//
// Each injection point in the library is a named Site. A site that is not
// armed costs one relaxed atomic load (a global "anything armed?" flag), so
// production runs pay nothing. Arming happens two ways:
//
//  - environment: PMTBR_FAULTS="splu.pivot:p=0.05:seed=7,pool.task:p=1"
//    parsed once on first query (comma-separated sites; p in [0,1],
//    seed any u64; both optional — p defaults to 1, seed to 0);
//  - programmatic: util::fault::ScopedFault guard(Site::kSpluPivot, 0.25, 7)
//    arms a site for the guard's lifetime and restores the previous config
//    on destruction (tests; not safe concurrently with other guards on the
//    same site).
//
// Decisions are deterministic and thread-schedule independent whenever the
// query carries a key: fire iff hash(seed, site name, key) < p. The sampling
// pipeline keys every solve by the originating quadrature shift
// (KeyScope), so "which samples fail" is a pure function of (seed, p,
// sample set) — identical across thread counts and reruns, and computable
// in advance by tests via decide(). Keyless queries fall back to a
// per-site call counter (still reproducible serially, but scheduling-
// dependent under the pool).
//
// Every fired injection bumps obs::Counter::kFaultsInjected so degraded
// runs are visible in manifests.
#pragma once

#include <cstdint>
#include <string>

namespace pmtbr::util::fault {

/// Injection points wired into the library. site_name() gives the stable
/// spelling used by PMTBR_FAULTS.
enum class Site : int {
  kSpluPivot = 0,   // "splu.pivot"    full-factor pivot selection fails
  kSpluRefactor,    // "splu.refactor" frozen-pattern replay rejected
  kPoolTask,        // "pool.task"     parallel_try_map task fails before running
  kCount            // sentinel; keep last
};

inline constexpr int kNumSites = static_cast<int>(Site::kCount);

const char* site_name(Site s) noexcept;

/// Fast guard: true when any site is armed (env or scoped). Injection
/// points call this first so the disabled path is a single relaxed load.
bool enabled() noexcept;

/// Should the injection point at `site` fire for `key`? Deterministic in
/// (site config, key). Fires the kFaultsInjected counter when true.
bool should_fail(Site site, std::uint64_t key) noexcept;

/// Keyless variant: uses the thread-local key installed by KeyScope when
/// present, else a per-site call counter.
bool should_fail(Site site) noexcept;

/// Pure decision function (no counters, no global state): would a site
/// armed with (probability, seed) fire for `key`? Exposed so tests can
/// predict exactly which samples an injection sweep will hit.
bool decide(double probability, std::uint64_t seed, Site site, std::uint64_t key) noexcept;

/// Stable key for a complex shift s = re + j*im — the sampling pipeline
/// keys every solve attempt of a sample by the sample's ORIGINAL shift, so
/// retries of a failing sample see the same decision (a sample the
/// injector condemns stays condemned; recovery paths are tested against
/// genuine singularities instead).
std::uint64_t shift_key(double re, double im) noexcept;

/// Installs a thread-local fault key for the current scope; nested scopes
/// stack. Pool workers inherit nothing — key the query explicitly when it
/// crosses threads.
class KeyScope {
 public:
  explicit KeyScope(std::uint64_t key) noexcept;
  ~KeyScope();
  KeyScope(const KeyScope&) = delete;
  KeyScope& operator=(const KeyScope&) = delete;

 private:
  std::uint64_t prev_;
  bool had_prev_;
};

/// Arms `site` with (probability, seed) for this guard's lifetime and
/// restores the previous configuration (including "unarmed") afterwards.
class ScopedFault {
 public:
  ScopedFault(Site site, double probability, std::uint64_t seed = 0) noexcept;
  ~ScopedFault();
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  Site site_;
  bool prev_armed_;
  double prev_p_;
  std::uint64_t prev_seed_;
};

/// Parses a PMTBR_FAULTS spec and arms the named sites (clearing all sites
/// first). Returns an empty string on success, else a diagnostic; unknown
/// sites and malformed fields are errors. Exposed for tests — normal use
/// is automatic via the environment on first query.
std::string configure(const std::string& spec);

/// Disarms every site (tests).
void clear();

}  // namespace pmtbr::util::fault
