#include "serve/service.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "serve/model_cache.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/logging.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/json.hpp"
#include "util/obs/trace.hpp"

namespace pmtbr::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(to - from).count();
}

std::int64_t nanos_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}

obs::Counter outcome_counter(JobOutcome o) {
  switch (o) {
    case JobOutcome::kCompleted: return obs::Counter::kServeJobsCompleted;
    case JobOutcome::kFailed: return obs::Counter::kServeJobsFailed;
    case JobOutcome::kCancelled: return obs::Counter::kServeJobsCancelled;
    case JobOutcome::kExpired: return obs::Counter::kServeJobsExpired;
    case JobOutcome::kCount: break;
  }
  return obs::Counter::kServeJobsFailed;
}

}  // namespace

std::pair<std::string, std::string> serve_extra(const ServiceStats& stats) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("submitted");
  w.value(stats.submitted);
  w.key("completed");
  w.value(stats.completed);
  w.key("failed");
  w.value(stats.failed);
  w.key("cancelled");
  w.value(stats.cancelled);
  w.key("expired");
  w.value(stats.expired);
  w.key("rejected");
  w.value(stats.rejected);
  w.key("cache_hits");
  w.value(stats.cache_hits);
  w.key("queue_seconds");
  w.value(stats.queue_seconds);
  w.key("run_seconds");
  w.value(stats.run_seconds);
  w.end_object();
  return {"serve", os.str()};
}

ReductionService::ReductionService(ServiceOptions opts) : opts_(opts) {
  PMTBR_REQUIRE(opts_.runners >= 1, "service needs at least one runner thread");
  PMTBR_REQUIRE(opts_.max_queue >= 1, "admission queue must hold at least one job");
  auto cache = std::make_unique<ModelCache>();
  // A byte budget resolving to 0 (PMTBR_CACHE_BYTES=0) disables caching.
  if (cache->enabled()) cache_ = std::move(cache);
  runners_.reserve(static_cast<std::size_t>(opts_.runners));
  for (int t = 0; t < opts_.runners; ++t)
    runners_.emplace_back([this] { runner_loop(); });
}

ReductionService::~ReductionService() {
  {
    const auto now = Clock::now();
    util::MutexLock lock(mutex_);
    stop_ = true;
    // Queued jobs finalize as cancelled here; running jobs get a cancel
    // request and wind down at their next sampling checkpoint, after which
    // their runner finalizes them normally.
    for (auto& job : queue_) {
      --stats_.queued;
      finalize_locked(*job, JobOutcome::kCancelled,
                      util::Status(util::ErrorCode::kCancelled, "service shut down"), now);
    }
    queue_.clear();
    for (auto& [id, job] : jobs_)
      if (job->state == JobState::kRunning) job->token.request_cancel();
  }
  work_cv_.notify_all();
  for (auto& t : runners_) t.join();
}

util::Expected<JobId> ReductionService::submit(JobRequest req) {
  const auto now = Clock::now();
  auto job = std::make_shared<Job>();
  job->req = std::move(req);
  job->submitted_at = now;
  if (job->req.deadline.count() > 0) {
    job->has_deadline = true;
    job->deadline_at = now + job->req.deadline;
  }
  // Fingerprint on the submitter thread, outside the service lock — it
  // walks the system matrices once (then memoized inside the descriptor).
  if (cache_ != nullptr) {
    if (const auto key = span_fingerprint(job->req)) {
      job->cacheable = true;
      job->cache_key = *key;
    }
  }

  util::MutexLock lock(mutex_);
  ++stats_.submitted;
  obs::counter_add(obs::Counter::kServeJobsSubmitted);
  if (stop_) {
    ++stats_.rejected;
    obs::counter_add(obs::Counter::kServeJobsRejected);
    return util::Status(util::ErrorCode::kCancelled, "service shutting down");
  }
  if (static_cast<index>(queue_.size()) >= opts_.max_queue) {
    ++stats_.rejected;
    obs::counter_add(obs::Counter::kServeJobsRejected);
    return util::Status(util::ErrorCode::kOverloaded, "admission queue full")
        .with_detail(static_cast<std::ptrdiff_t>(queue_.size()),
                     static_cast<double>(opts_.max_queue));
  }
  const JobId id = next_id_++;
  job->id = id;
  jobs_.emplace(id, job);
  queue_.push_back(std::move(job));
  ++stats_.queued;
  work_cv_.notify_one();
  return id;
}

bool ReductionService::cancel(JobId id) {
  const auto now = Clock::now();
  util::MutexLock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (job.state == JobState::kDone) return false;
  job.token.request_cancel();
  if (job.state == JobState::kQueued) {
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [&](const std::shared_ptr<Job>& q) { return q->id == id; }),
                 queue_.end());
    --stats_.queued;
    finalize_locked(job, JobOutcome::kCancelled,
                    util::Status(util::ErrorCode::kCancelled, "cancelled while queued"), now);
  }
  return true;
}

JobResult ReductionService::wait(JobId id) {
  util::UniqueLock lock(mutex_);
  const auto it = jobs_.find(id);
  PMTBR_REQUIRE(it != jobs_.end(), "wait() on unknown job id");
  const std::shared_ptr<Job> job = it->second;
  while (job->state != JobState::kDone) done_cv_.wait(lock);
  return job->result;
}

std::vector<std::pair<JobId, JobResult>> ReductionService::drain() {
  std::vector<JobId> ids;
  {
    util::MutexLock lock(mutex_);
    ids.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) ids.push_back(id);
  }
  std::vector<std::pair<JobId, JobResult>> out;
  out.reserve(ids.size());
  for (const JobId id : ids) out.emplace_back(id, wait(id));
  return out;
}

ServiceStats ReductionService::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

util::CacheStats ReductionService::model_cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : util::CacheStats{};
}

std::shared_ptr<ReductionService::Job> ReductionService::pop_best_locked() {
  PMTBR_DEBUG_ASSERT(!queue_.empty(), "pop on empty queue");
  auto best = queue_.begin();
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
    const Job& a = **it;
    const Job& b = **best;
    if (static_cast<int>(a.req.priority) != static_cast<int>(b.req.priority)) {
      if (static_cast<int>(a.req.priority) > static_cast<int>(b.req.priority)) best = it;
      continue;
    }
    // Same priority: earliest deadline first (none sorts last), then
    // submission order via the monotonically assigned id.
    if (a.has_deadline != b.has_deadline) {
      if (a.has_deadline) best = it;
      continue;
    }
    if (a.has_deadline && a.deadline_at != b.deadline_at) {
      if (a.deadline_at < b.deadline_at) best = it;
      continue;
    }
    if (a.id < b.id) best = it;
  }
  std::shared_ptr<Job> job = std::move(*best);
  queue_.erase(best);
  return job;
}

void ReductionService::finalize_locked(Job& job, JobOutcome outcome, util::Status status,
                                       Clock::time_point now) {
  JobResult& r = job.result;
  r.outcome = outcome;
  r.status = std::move(status);
  if (r.start_sequence == 0) {
    // Never started: the whole lifetime was queue wait.
    r.queue_seconds = seconds_between(job.submitted_at, now);
    obs::counter_add(obs::Counter::kServeQueueNanos, nanos_between(job.submitted_at, now));
  }
  job.state = JobState::kDone;
  switch (outcome) {
    case JobOutcome::kCompleted: ++stats_.completed; break;
    case JobOutcome::kFailed: ++stats_.failed; break;
    case JobOutcome::kCancelled: ++stats_.cancelled; break;
    case JobOutcome::kExpired: ++stats_.expired; break;
    case JobOutcome::kCount: break;
  }
  stats_.queue_seconds += r.queue_seconds;
  stats_.run_seconds += r.run_seconds;
  obs::counter_add(outcome_counter(outcome));
  if (outcome != JobOutcome::kCompleted)
    log_debug("serve: job ", job.id, " (", job.req.name, ") -> ", job_outcome_name(outcome),
              " (", r.status.to_string(), ")");
  done_cv_.notify_all();
}

void ReductionService::runner_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      util::UniqueLock lock(mutex_);
      while (job == nullptr) {
        while (!stop_ && queue_.empty()) work_cv_.wait(lock);
        if (queue_.empty()) return;  // stopping and drained
        job = pop_best_locked();
        --stats_.queued;
        const auto now = Clock::now();
        if (job->has_deadline && now >= job->deadline_at) {
          finalize_locked(*job, JobOutcome::kExpired,
                          util::Status(util::ErrorCode::kDeadlineExceeded,
                                       "deadline expired while queued"),
                          now);
          job.reset();
          continue;
        }
        job->state = JobState::kRunning;
        ++stats_.running;
        job->result.start_sequence = next_start_seq_++;
        job->result.queue_seconds = seconds_between(job->submitted_at, now);
        obs::counter_add(obs::Counter::kServeQueueNanos,
                         nanos_between(job->submitted_at, now));
        if (job->has_deadline) job->token.set_deadline(job->deadline_at);
      }
    }

    // Execute outside the lock: the runner owns req/result exclusively
    // while kRunning. Within-job parallelism fans out on the global pool.
    const auto started = Clock::now();
    JobOutcome outcome = JobOutcome::kFailed;
    util::Status status;
    bool from_cache = false;
    {
      PMTBR_TRACE_SCOPE("serve.job");
      try {
        from_cache = execute_job(*job);
        outcome = JobOutcome::kCompleted;
        status = util::Status::ok();
      } catch (const util::StatusError& e) {
        status = e.status();
        // The token distinguishes an explicit cancel from a deadline; any
        // other StatusError (coverage floor, ...) is an ordinary failure.
        outcome = status.code() == util::ErrorCode::kCancelled ? JobOutcome::kCancelled
                  : status.code() == util::ErrorCode::kDeadlineExceeded
                      ? JobOutcome::kExpired
                      : JobOutcome::kFailed;
      } catch (const std::invalid_argument& e) {
        // A precondition the reduction rejects up front: a malformed spec.
        status = util::Status(util::ErrorCode::kInvalidInput, e.what());
        outcome = JobOutcome::kFailed;
      } catch (const std::exception& e) {
        status = util::Status(util::ErrorCode::kUnhandledException, e.what());
        outcome = JobOutcome::kFailed;
      }
    }
    const auto finished = Clock::now();
    job->result.run_seconds = seconds_between(started, finished);
    obs::counter_add(obs::Counter::kServeRunNanos, nanos_between(started, finished));

    util::MutexLock lock(mutex_);
    --stats_.running;
    if (from_cache && outcome == JobOutcome::kCompleted) ++stats_.cache_hits;
    finalize_locked(*job, outcome, std::move(status), finished);
  }
}

bool ReductionService::execute_job(Job& job) {
  mor::PmtbrOptions options = job.req.options;
  options.cancel = job.token;
  const bool adaptive = job.req.method == Method::kPmtbrAdaptive;
  // Fault injection bypasses the cache wholesale: robustness tests assert
  // exact degradation sets, and a kept span would short-circuit the
  // injected failures they expect.
  if (cache_ == nullptr || !job.cacheable || util::fault::enabled()) {
    job.result.reduction = adaptive ? mor::pmtbr_adaptive(job.req.system, job.req.adaptive, options)
                                    : mor::pmtbr(job.req.system, options);
    return false;
  }
  // Every job projects its own order from the span, whoever sampled it. A
  // span served from the cache still honors this job's own cancel/deadline,
  // so the outcome partition is indistinguishable from a fresh run's.
  ModelCache::SpanPtr span = cache_->lookup(job.cache_key);
  const bool hit = span != nullptr;
  if (hit) {
    job.token.throw_if_cancelled();
  } else {
    // A job that throws while sampling inserts nothing. Concurrent jobs of
    // one span each sample it and insert equal spans; the last put stays.
    span = std::make_shared<const mor::SampledSpan>(
        adaptive ? mor::pmtbr_adaptive_span(job.req.system, job.req.adaptive, options)
                 : mor::pmtbr_span(job.req.system, options));
    cache_->insert(job.cache_key, span);
  }
  job.result.reduction = mor::project_span(job.req.system, *span, options);
  return hit;
}

}  // namespace pmtbr::serve
