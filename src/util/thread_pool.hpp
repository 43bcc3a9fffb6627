// Shared fixed-size thread pool plus parallel_for / parallel_try_map
// helpers — the execution layer behind the parallel sampling pipeline.
//
// Design constraints (see docs/PERFORMANCE.md):
//  - Deterministic results: parallel_for chunks an index range dynamically,
//    but every index runs exactly the same computation it would serially and
//    parallel_try_map stores results by index, so outputs are
//    order-independent.
//  - Nested-safe: a parallel_for issued from inside a pool worker runs
//    inline (serially) on that worker instead of deadlocking on the queue.
//  - Exception-safe: the first exception thrown by any chunk is captured,
//    remaining chunks are abandoned, and the exception is rethrown on the
//    calling thread once all workers have quiesced.
//
// Pool size resolution: PMTBR_NUM_THREADS (positive integer) wins, else
// std::thread::hardware_concurrency(), clamped to >= 1. A size of 1 means
// "no worker threads": every parallel_for runs inline on the caller.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/cancel.hpp"
#include "util/faultinject.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"

namespace pmtbr::util {

using index = std::ptrdiff_t;

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers; the calling thread participates in every
  /// parallel_for, so `threads` is the total parallelism.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [begin, end), blocking until all complete.
  /// Empty or single-element ranges, a pool of size 1, and nested calls all
  /// run inline on the caller. Must not be called with mutex_ held (the
  /// pool acquires it to enqueue helper tasks).
  void parallel_for(index begin, index end, const std::function<void(index)>& fn)
      PMTBR_EXCLUDES(mutex_);

 private:
  void worker_loop() PMTBR_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  ConditionVariable cv_;
  std::queue<std::function<void()>> tasks_ PMTBR_GUARDED_BY(mutex_);
  bool stop_ PMTBR_GUARDED_BY(mutex_) = false;
};

/// The process-wide pool, created on first use with resolve_num_threads().
ThreadPool& global_pool();

/// Replaces the global pool with one of `threads` total parallelism.
/// Intended for benches and tests sweeping thread counts; must not be called
/// while parallel work is in flight.
void set_global_threads(int threads);

/// PMTBR_NUM_THREADS env override -> hardware_concurrency -> 1.
/// `env_value` is the raw environment string (nullptr = unset); exposed for
/// testing the parsing rules.
int resolve_num_threads(const char* env_value);

/// Convenience: parallel_for over the global pool.
inline void parallel_for(index begin, index end, const std::function<void(index)>& fn) {
  global_pool().parallel_for(begin, end, fn);
}

/// Fault-isolating map over [0, n) on the global pool: each task's outcome
/// lands in its own Expected slot at its own index, so the output is
/// identical to the serial map regardless of scheduling and one failing
/// task cannot poison its siblings — every index still runs (contrast with
/// parallel_for's abort-on-first-exception semantics, kept for the legacy
/// all-or-nothing path).
///
/// fn may return R or Expected<R>. A StatusError escaping fn becomes that
/// task's Status; any other exception becomes kUnhandledException. The
/// Site::kPoolTask injection point can condemn a task before fn runs
/// (keyed by the task index).
///
/// `cancel` (optional) makes the map cooperatively cancellable: a task that
/// has not started when the token fires is skipped entirely, leaving its
/// default slot (kCancelled, "task never ran"). Tasks already inside fn run
/// to completion — cancellation never corrupts a partial solve. Callers are
/// expected to re-check the token after the map returns and abandon the
/// batch (mor::pmtbr does; see docs/SERVING.md).
template <typename R, typename F>
std::vector<Expected<R>> parallel_try_map(index n, F&& fn,
                                          const CancelToken& cancel = {}) {
  std::vector<Expected<R>> out(static_cast<std::size_t>(n));
  global_pool().parallel_for(0, n, [&](index i) {
    auto& slot = out[static_cast<std::size_t>(i)];
    if (cancel.cancelled()) return;  // slot keeps its default kCancelled
    if (fault::should_fail(fault::Site::kPoolTask, static_cast<std::uint64_t>(i))) {
      slot = Status(ErrorCode::kInjectedFault, "pool.task fault injected");
      return;
    }
    try {
      slot = fn(i);
    } catch (const StatusError& e) {
      slot = e.status();
    } catch (const std::exception& e) {
      slot = Status(ErrorCode::kUnhandledException, e.what());
    }
  });
  return out;
}

}  // namespace pmtbr::util
