// ReductionService — the batched, multi-tenant reduction service core
// (docs/SERVING.md).
//
// Accepts concurrent JobRequests behind a bounded admission queue
// (backpressure: submit() returns kOverloaded when full), schedules them by
// (priority desc, deadline asc, submission order) onto a fixed set of
// runner threads, and executes each job through the fault-tolerant sampling
// pipeline with a per-job CancelToken threaded into the mor loops. Within-
// job parallelism rides the shared util::global_pool(), so one service
// instance saturates the machine without oversubscribing it: runners block
// in pmtbr while the pool's workers do the solves.
//
// Lifecycle guarantees:
//  - every admitted job reaches exactly one terminal JobOutcome (no lost
//    jobs), observable via wait()/drain();
//  - cancel() is cooperative: a queued job finalizes immediately, a running
//    job winds down at its next sampling checkpoint;
//  - deadlines are enforced at dequeue (kExpired without running) and
//    mid-run (the token's armed deadline surfaces kDeadlineExceeded, which
//    the service maps to kExpired);
//  - a failing job (coverage floor, bad options, poisoned netlist) is an
//    ordinary kFailed result — it never takes down the batch or the service;
//  - destruction cancels everything outstanding and joins the runners.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/job.hpp"
#include "util/annotations.hpp"
#include "util/fingerprint.hpp"
#include "util/lru.hpp"
#include "util/mutex.hpp"

namespace pmtbr::serve {

class ModelCache;

using JobId = std::uint64_t;

struct ServiceOptions {
  /// Dedicated runner threads, each executing one job at a time. Keep small:
  /// per-job parallelism comes from the shared thread pool, and runners
  /// beyond ~2-4 only add pool contention.
  int runners = 2;
  /// Bounded admission queue: submissions beyond this many queued (not yet
  /// started) jobs are rejected with kOverloaded.
  index max_queue = 64;
};

/// Monotonic service totals. The outcome fields partition every terminal
/// job, so after drain():
///   submitted == completed + failed + cancelled + expired + rejected.
/// (`submitted` counts every submit() call, including rejected ones;
/// rejected submissions are terminal immediately.)
struct ServiceStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t expired = 0;
  std::int64_t rejected = 0;
  /// Completed jobs that projected a span from the cache instead of
  /// sampling it; a job at another order of a kept sampling counts too. Always a subset of `completed` —
  /// the partition identity is unchanged.
  std::int64_t cache_hits = 0;
  std::int64_t queued = 0;   // gauge: admitted, not yet started
  std::int64_t running = 0;  // gauge: currently executing
  double queue_seconds = 0.0;  // total admission-to-start (or -terminal) wait
  double run_seconds = 0.0;    // total execution wall time
};

/// ("serve", <json>) manifest extra — the service section of
/// pmtbr-manifest/1 (validated by tools/report_metrics.py).
std::pair<std::string, std::string> serve_extra(const ServiceStats& stats);

class ReductionService {
 public:
  explicit ReductionService(ServiceOptions opts = {});
  ~ReductionService() PMTBR_EXCLUDES(mutex_);

  ReductionService(const ReductionService&) = delete;
  ReductionService& operator=(const ReductionService&) = delete;

  /// Admits a job or rejects it: kOverloaded when the queue is full,
  /// kCancelled when the service is shutting down.
  util::Expected<JobId> submit(JobRequest req) PMTBR_EXCLUDES(mutex_);

  /// Requests cooperative cancellation. Returns true if the job exists and
  /// had not finished; a running job stops at its next sampling checkpoint
  /// (so a true return does not guarantee a kCancelled outcome).
  bool cancel(JobId id) PMTBR_EXCLUDES(mutex_);

  /// Blocks until the job is terminal and returns its result. The id must
  /// come from a successful submit() on this service.
  JobResult wait(JobId id) PMTBR_EXCLUDES(mutex_);

  /// Waits for every admitted job; results ordered by JobId.
  std::vector<std::pair<JobId, JobResult>> drain() PMTBR_EXCLUDES(mutex_);

  ServiceStats stats() const PMTBR_EXCLUDES(mutex_);

  /// Hit/miss/eviction totals of this service's span cache (the "model"
  /// layer; zeros when the cache is disabled) — feeds cache_extra() and the
  /// bench artifact.
  util::CacheStats model_cache_stats() const;

 private:
  enum class JobState { kQueued, kRunning, kDone };

  // All mutable Job fields are guarded by the service-wide mutex_ while the
  // job is kQueued/kDone; while kRunning, `req`/`result` are owned
  // exclusively by the executing runner (published back under mutex_ at
  // finalize). The token's internals are atomic and lock-free.
  struct Job {
    JobId id = 0;
    JobRequest req;
    util::CancelToken token = util::CancelToken::make();
    std::chrono::steady_clock::time_point submitted_at;
    std::chrono::steady_clock::time_point deadline_at;  // valid iff has_deadline
    bool has_deadline = false;
    JobState state = JobState::kQueued;
    JobResult result;
    // Span key (span_fingerprint), computed once at submission (immutable
    // afterwards; cacheable is false for weight_fn jobs or a cache-less
    // service).
    bool cacheable = false;
    util::Fingerprint cache_key;
  };

  /// Removes and returns the best queued job: highest priority, then
  /// earliest deadline, then lowest id. Deterministic for a fixed queue.
  std::shared_ptr<Job> pop_best_locked() PMTBR_REQUIRES(mutex_);

  /// Records the terminal state: result fields, stats, obs counters, and
  /// the done notification.
  void finalize_locked(Job& job, JobOutcome outcome, util::Status status,
                       std::chrono::steady_clock::time_point now)
      PMTBR_REQUIRES(mutex_);

  void runner_loop() PMTBR_EXCLUDES(mutex_);

  /// Runs the job's reduction through the span cache: a hit, or a fresh
  /// sampling that is then kept; either way the job projects its own
  /// order. Returns true when the span came from the cache. Throws util::StatusError
  /// exactly like a direct reduction would.
  bool execute_job(Job& job) PMTBR_EXCLUDES(mutex_);

  ServiceOptions opts_;
  std::unique_ptr<ModelCache> cache_;  // null when disabled
  mutable util::Mutex mutex_;
  util::ConditionVariable work_cv_;  // queue gained work, or stop
  util::ConditionVariable done_cv_;  // some job reached a terminal state
  JobId next_id_ PMTBR_GUARDED_BY(mutex_) = 1;
  std::uint64_t next_start_seq_ PMTBR_GUARDED_BY(mutex_) = 1;
  bool stop_ PMTBR_GUARDED_BY(mutex_) = false;
  std::map<JobId, std::shared_ptr<Job>> jobs_ PMTBR_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<Job>> queue_ PMTBR_GUARDED_BY(mutex_);
  ServiceStats stats_ PMTBR_GUARDED_BY(mutex_);
  std::vector<std::thread> runners_;
};

}  // namespace pmtbr::serve
