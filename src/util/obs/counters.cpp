#include "util/obs/counters.hpp"

namespace pmtbr::obs {

namespace detail {
std::array<std::atomic<std::int64_t>, kNumCounters> g_counters{};
}  // namespace detail

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kSparseLuFullFactor: return "sparse_lu_full_factor";
    case Counter::kSparseLuRefactor: return "sparse_lu_refactor";
    case Counter::kSparseLuRefactorReject: return "sparse_lu_refactor_reject";
    case Counter::kSparseLuFactorEntries: return "sparse_lu_factor_entries";
    case Counter::kSparseLdltLaneGroups: return "sparse_ldlt_lane_groups";
    case Counter::kSparseLdltLanes: return "sparse_ldlt_lanes";
    case Counter::kSymbolicCacheMiss: return "symbolic_cache_miss";
    case Counter::kShiftedSolve: return "shifted_solve";
    case Counter::kGemmFlops: return "gemm_flops";
    case Counter::kGemmCalls: return "gemm_calls";
    case Counter::kGemmBytes: return "gemm_bytes";
    case Counter::kQrFactorizations: return "qr_factorizations";
    case Counter::kTsqrFactorizations: return "tsqr_factorizations";
    case Counter::kQrFlops: return "qr_flops";
    case Counter::kSvdCalls: return "svd_calls";
    case Counter::kSvdSweeps: return "svd_sweeps";
    case Counter::kSvdFlops: return "svd_flops";
    case Counter::kPoolParallelFor: return "pool_parallel_for";
    case Counter::kPoolInlineFor: return "pool_inline_for";
    case Counter::kPoolTasksExecuted: return "pool_tasks_executed";
    case Counter::kPoolChunksCaller: return "pool_chunks_caller";
    case Counter::kPoolChunksWorker: return "pool_chunks_worker";
    case Counter::kPoolIdleNanos: return "pool_idle_nanos";
    case Counter::kPmtbrSamples: return "pmtbr_samples";
    case Counter::kPmtbrAdaptiveStops: return "pmtbr_adaptive_stops";
    case Counter::kAdaptiveBisections: return "adaptive_bisections";
    case Counter::kCompressorColumnsKept: return "compressor_columns_kept";
    case Counter::kCompressorColumnsDropped: return "compressor_columns_dropped";
    case Counter::kAcSweepPoints: return "ac_sweep_points";
    case Counter::kFaultsInjected: return "faults_injected";
    case Counter::kPmtbrSampleRetries: return "pmtbr_sample_retries";
    case Counter::kPmtbrSamplesDropped: return "pmtbr_samples_dropped";
    case Counter::kPmtbrSamplesRegularized: return "pmtbr_samples_regularized";
    case Counter::kPmtbrWeightReweights: return "pmtbr_weight_reweights";
    case Counter::kAcPointRetries: return "ac_point_retries";
    case Counter::kAcPointsDropped: return "ac_points_dropped";
    case Counter::kServeJobsSubmitted: return "serve_jobs_submitted";
    case Counter::kServeJobsRejected: return "serve_jobs_rejected";
    case Counter::kServeJobsCompleted: return "serve_jobs_completed";
    case Counter::kServeJobsFailed: return "serve_jobs_failed";
    case Counter::kServeJobsCancelled: return "serve_jobs_cancelled";
    case Counter::kServeJobsExpired: return "serve_jobs_expired";
    case Counter::kServeQueueNanos: return "serve_queue_nanos";
    case Counter::kServeRunNanos: return "serve_run_nanos";
    case Counter::kModelCacheHit: return "model_cache_hit";
    case Counter::kModelCacheMiss: return "model_cache_miss";
    case Counter::kModelCacheEvict: return "model_cache_evict";
    case Counter::kModelCacheBytes: return "model_cache_bytes";
    case Counter::kFactorCacheHit: return "factor_cache_hit";
    case Counter::kFactorCacheMiss: return "factor_cache_miss";
    case Counter::kFactorCacheEvict: return "factor_cache_evict";
    case Counter::kFactorCacheBytes: return "factor_cache_bytes";
    case Counter::kCount: break;
  }
  return "unknown";
}

void reset_counters() noexcept {
  for (auto& c : detail::g_counters) c.store(0, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, std::int64_t>> counters_snapshot() {
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(kNumCounters);
  for (int i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    out.emplace_back(counter_name(c), counter_value(c));
  }
  return out;
}

}  // namespace pmtbr::obs
