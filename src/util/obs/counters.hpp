// Process-wide monotonic counters for solver-level observability.
//
// Counters are always on: each increment is a single relaxed atomic
// fetch_add on a cache line nobody spins on, so hot paths (one add per
// factorization / per matmul call, never per element) pay nanoseconds.
// They answer the questions MOR pipelines fail silently on: how many full
// factorizations vs. numeric replays a run performed, whether the symbolic
// cache actually hit, how many sample columns the compressor kept, and how
// much work the thread pool did versus sat idle.
//
// Snapshots are linearizable enough for diagnostics (each counter is read
// atomically; cross-counter skew is bounded by in-flight work) and feed the
// run manifest (manifest.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pmtbr::obs {

enum class Counter : int {
  // sparse LU (src/sparse/splu.cpp)
  kSparseLuFullFactor,     // full Gilbert–Peierls factorizations (incl. symbolic builds)
  kSparseLuRefactor,       // numeric-only replays that succeeded
  kSparseLuRefactorReject, // replays rejected for a degenerate frozen pivot
  kSparseLuFactorEntries,  // nnz(L+U) summed over successful full factors and refactors
  kSparseLdltLaneGroups,   // lane groups factored by the batched LDLᵀ entry point
  kSparseLdltLanes,        // matrices in those groups (lanes per group = lanes / groups)
  // shifted-pencil cache (src/circuit/descriptor.cpp)
  kSymbolicCacheMiss,      // symbolic analyses built, one per system
  kShiftedSolve,           // DescriptorSystem::solve_shifted calls, cache hits included
  // dense kernels (src/la)
  kGemmFlops,              // 2*m*k*n per matmul call (estimate)
  kGemmCalls,              // blocked-GEMM invocations (matmul/matmul_into/matmul_at)
  kGemmBytes,              // sizeof(T)*(m*k + k*n + m*n) per call (traffic lower bound)
  kQrFactorizations,
  kTsqrFactorizations,     // no longer incremented; reads 0
  kQrFlops,                // 4*m*n*min(m,n) per factorization (R and thin Q, estimate)
  kSvdCalls,
  kSvdSweeps,              // one-sided Jacobi sweeps actually performed
  kSvdFlops,               // ~6*m*n(n-1)/2 per sweep (estimate)
  // thread pool (src/util/thread_pool.cpp)
  kPoolParallelFor,        // parallel_for calls that fanned out to the pool
  kPoolInlineFor,          // parallel_for calls that ran inline (small/nested/1-thread)
  kPoolTasksExecuted,      // helper tasks drained by worker threads
  kPoolChunksCaller,       // dynamic chunks claimed by the calling thread
  kPoolChunksWorker,       // dynamic chunks claimed ("stolen") by pool workers
  kPoolIdleNanos,          // total worker wall-time spent blocked on the queue
  // sampling / compression (src/mor)
  kPmtbrSamples,           // frequency samples absorbed into the basis
  kPmtbrAdaptiveStops,     // early stops via the samples >= excess*order rule
  kAdaptiveBisections,     // interval bisections in pmtbr_adaptive
  kCompressorColumnsKept,  // columns that extended the orthonormal basis
  kCompressorColumnsDropped, // columns dropped as numerically dependent
  // AC verification layer (src/signal/ac.cpp)
  kAcSweepPoints,
  // fault injection + graceful degradation (util/faultinject, mor/pmtbr,
  // signal/ac — see docs/ROBUSTNESS.md)
  kFaultsInjected,          // deterministic injections that actually fired
  kPmtbrSampleRetries,      // shifted-solve retries at perturbed shifts
  kPmtbrSamplesDropped,     // samples abandoned after retries + regularization
  kPmtbrSamplesRegularized, // samples rescued by the diagonal-regularization fallback
  kPmtbrWeightReweights,    // windows whose surviving samples absorbed dropped weight
  kAcPointRetries,          // AC sweep points retried at a perturbed frequency
  kAcPointsDropped,         // AC sweep points dropped from the response
  // batched reduction service (src/serve — see docs/SERVING.md)
  kServeJobsSubmitted,      // submit() calls, admitted or rejected
  kServeJobsRejected,       // submissions refused with kOverloaded (backpressure)
  kServeJobsCompleted,      // jobs that produced a reduction
  kServeJobsFailed,         // jobs that ran and failed (coverage floor, ...)
  kServeJobsCancelled,      // jobs cancelled before or during execution
  kServeJobsExpired,        // jobs past their deadline (queued or mid-run)
  kServeQueueNanos,         // total admission-to-start (or -terminal) wait
  kServeRunNanos,           // total execution wall time across jobs
  // cross-job caching layer (serve/model_cache, sparse/factor_cache —
  // see docs/SERVING.md). The *_bytes entries are resident-size gauges
  // (incremented on insert, decremented on evict), not monotonic totals.
  kModelCacheHit,           // jobs that found their sampled span in the LRU (reorders too)
  kModelCacheMiss,          // span lookups that found nothing; each one samples its span
  kModelCacheEvict,         // sampled spans evicted under the byte budget
  kModelCacheBytes,         // resident span bytes (gauge)
  kFactorCacheHit,          // solves of B served from the shared solve LRU (never a PMTBR sample)
  kFactorCacheMiss,         // solve-cache lookups that found nothing
  kFactorCacheEvict,        // cached solves evicted under the byte budget
  kFactorCacheBytes,        // resident solve payload bytes, rows·cols·16 each (gauge)

  kCount  // sentinel; keep last
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);

namespace detail {
// Zero-initialized at static initialization; no constructor ordering hazard.
extern std::array<std::atomic<std::int64_t>, kNumCounters> g_counters;
}  // namespace detail

/// Stable snake_case name used as the manifest JSON key.
const char* counter_name(Counter c) noexcept;

inline void counter_add(Counter c, std::int64_t delta = 1) noexcept {
  detail::g_counters[static_cast<std::size_t>(c)].fetch_add(delta, std::memory_order_relaxed);
}

inline std::int64_t counter_value(Counter c) noexcept {
  return detail::g_counters[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
}

/// Resets every counter to zero (tests and per-run deltas; racing increments
/// from in-flight work land after the reset, which is the desired meaning).
void reset_counters() noexcept;

/// (name, value) for every counter, in enum order.
std::vector<std::pair<std::string, std::int64_t>> counters_snapshot();

}  // namespace pmtbr::obs
