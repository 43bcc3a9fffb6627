// ReductionService contract tests (docs/SERVING.md): admission and
// backpressure, deterministic scheduling order, deadline enforcement at
// dequeue and mid-run, cooperative cancellation of queued and running jobs,
// netlist job construction, and the stats partition invariant.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "circuit/generators.hpp"
#include "mor/pmtbr.hpp"
#include "serve/service.hpp"
#include "util/faultinject.hpp"

namespace pmtbr::serve {
namespace {

using util::ErrorCode;

// Small system + few samples: a job that completes in a few milliseconds.
JobRequest quick_job(const std::string& name, Priority prio = Priority::kNormal) {
  JobRequest req;
  req.name = name;
  req.system = circuit::make_rc_line({.segments = 20});
  req.options.num_samples = 8;
  req.priority = prio;
  return req;
}

// Large mesh + many samples: a job that runs long enough to act as a
// deterministic "runner occupier" while the test manipulates the queue.
JobRequest blocker_job(const std::string& name = "blocker") {
  JobRequest req;
  req.name = name;
  req.system = circuit::make_rc_mesh({.rows = 18, .cols = 18});
  req.options.num_samples = 400;
  req.priority = Priority::kHigh;  // runs before anything queued behind it
  return req;
}

void spin_until_running(const ReductionService& svc, std::int64_t count = 1) {
  while (svc.stats().running < count) std::this_thread::yield();
}

TEST(ReductionService, SubmitWaitMatchesDirectPmtbr) {
  const DescriptorSystem sys = circuit::make_rc_line({.segments = 40});
  mor::PmtbrOptions opts;
  opts.num_samples = 20;
  const mor::PmtbrResult direct = mor::pmtbr(sys, opts);

  ReductionService svc({.runners = 2, .max_queue = 8});
  JobRequest req;
  req.name = "match";
  req.system = sys;
  req.options = opts;
  auto id = svc.submit(std::move(req));
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();
  const JobResult res = svc.wait(id.value());

  ASSERT_EQ(res.outcome, JobOutcome::kCompleted) << res.status.to_string();
  EXPECT_TRUE(res.status.is_ok());
  EXPECT_GT(res.start_sequence, 0u);
  EXPECT_GE(res.run_seconds, 0.0);
  // The pipeline is deterministic across thread counts and scheduling, so
  // the service-run reduction is bit-identical to the direct call.
  ASSERT_EQ(res.reduction.model.system.a().rows(), direct.model.system.a().rows());
  ASSERT_EQ(res.reduction.model.singular_values.size(),
            direct.model.singular_values.size());
  for (std::size_t i = 0; i < direct.model.singular_values.size(); ++i)
    EXPECT_DOUBLE_EQ(res.reduction.model.singular_values[i],
                     direct.model.singular_values[i]);
}

TEST(ReductionService, AdaptiveMethodRuns) {
  ReductionService svc({.runners = 1, .max_queue = 4});
  JobRequest req;
  req.name = "adaptive";
  req.system = circuit::make_rc_line({.segments = 30});
  req.method = Method::kPmtbrAdaptive;
  req.adaptive = {.initial_samples = 4, .max_samples = 24};
  auto id = svc.submit(std::move(req));
  ASSERT_TRUE(id.is_ok());
  const JobResult res = svc.wait(id.value());
  ASSERT_EQ(res.outcome, JobOutcome::kCompleted) << res.status.to_string();
  EXPECT_GT(res.reduction.model.system.a().rows(), 0);
}

TEST(ReductionService, BackpressureRejectsWithOverloaded) {
  ReductionService svc({.runners = 1, .max_queue = 2});
  auto blocker = svc.submit(blocker_job());
  ASSERT_TRUE(blocker.is_ok());
  spin_until_running(svc);  // queue is now empty, runner busy

  auto q1 = svc.submit(quick_job("q1"));
  auto q2 = svc.submit(quick_job("q2"));
  ASSERT_TRUE(q1.is_ok());
  ASSERT_TRUE(q2.is_ok());

  auto overflow = svc.submit(quick_job("overflow"));
  ASSERT_FALSE(overflow.is_ok());
  EXPECT_EQ(overflow.status().code(), ErrorCode::kOverloaded);
  EXPECT_EQ(svc.stats().rejected, 1);

  // Unblock and drain; the rejected submission must appear in the partition.
  svc.cancel(blocker.value());
  const auto results = svc.drain();
  EXPECT_EQ(results.size(), 3u);  // blocker + q1 + q2; overflow never admitted
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 4);
  EXPECT_EQ(st.submitted,
            st.completed + st.failed + st.cancelled + st.expired + st.rejected);
}

TEST(ReductionService, SchedulesByPriorityThenSubmission) {
  ReductionService svc({.runners = 1, .max_queue = 8});
  auto blocker = svc.submit(blocker_job());
  ASSERT_TRUE(blocker.is_ok());
  spin_until_running(svc);

  auto low = svc.submit(quick_job("low", Priority::kLow));
  auto high = svc.submit(quick_job("high", Priority::kHigh));
  auto normal = svc.submit(quick_job("normal", Priority::kNormal));
  ASSERT_TRUE(low.is_ok());
  ASSERT_TRUE(high.is_ok());
  ASSERT_TRUE(normal.is_ok());

  svc.cancel(blocker.value());
  const JobResult r_low = svc.wait(low.value());
  const JobResult r_high = svc.wait(high.value());
  const JobResult r_normal = svc.wait(normal.value());
  ASSERT_EQ(r_low.outcome, JobOutcome::kCompleted);
  ASSERT_EQ(r_high.outcome, JobOutcome::kCompleted);
  ASSERT_EQ(r_normal.outcome, JobOutcome::kCompleted);
  // Despite submission order low, high, normal the runner starts them in
  // priority order.
  EXPECT_LT(r_high.start_sequence, r_normal.start_sequence);
  EXPECT_LT(r_normal.start_sequence, r_low.start_sequence);
}

TEST(ReductionService, EarlierDeadlineBreaksPriorityTie) {
  ReductionService svc({.runners = 1, .max_queue = 8});
  auto blocker = svc.submit(blocker_job());
  ASSERT_TRUE(blocker.is_ok());
  spin_until_running(svc);

  JobRequest late = quick_job("late");
  late.deadline = std::chrono::minutes(10);
  JobRequest none = quick_job("none");  // no deadline sorts last
  JobRequest soon = quick_job("soon");
  soon.deadline = std::chrono::minutes(1);
  auto id_none = svc.submit(std::move(none));
  auto id_late = svc.submit(std::move(late));
  auto id_soon = svc.submit(std::move(soon));
  ASSERT_TRUE(id_none.is_ok());
  ASSERT_TRUE(id_late.is_ok());
  ASSERT_TRUE(id_soon.is_ok());

  svc.cancel(blocker.value());
  const JobResult r_none = svc.wait(id_none.value());
  const JobResult r_late = svc.wait(id_late.value());
  const JobResult r_soon = svc.wait(id_soon.value());
  ASSERT_EQ(r_soon.outcome, JobOutcome::kCompleted);
  EXPECT_LT(r_soon.start_sequence, r_late.start_sequence);
  EXPECT_LT(r_late.start_sequence, r_none.start_sequence);
}

TEST(ReductionService, DeadlineExpiresWhileQueued) {
  ReductionService svc({.runners = 1, .max_queue = 8});
  auto blocker = svc.submit(blocker_job());
  ASSERT_TRUE(blocker.is_ok());
  spin_until_running(svc);

  JobRequest doomed = quick_job("doomed");
  doomed.deadline = std::chrono::nanoseconds(1);  // expires immediately
  auto id = svc.submit(std::move(doomed));
  ASSERT_TRUE(id.is_ok());
  svc.cancel(blocker.value());

  const JobResult res = svc.wait(id.value());
  EXPECT_EQ(res.outcome, JobOutcome::kExpired);
  EXPECT_EQ(res.status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(res.start_sequence, 0u);  // never started
  EXPECT_EQ(res.run_seconds, 0.0);
  EXPECT_GT(res.queue_seconds, 0.0);
}

TEST(ReductionService, DeadlineExpiresMidRun) {
  ReductionService svc({.runners = 1, .max_queue = 4});
  JobRequest req = quick_job("deadline-mid-run");
  req.deadline = std::chrono::milliseconds(60);  // starts, then trips mid-run
  // The run evaluates weight_fn before its first cancellation checkpoint.
  // Holding the first call past the deadline makes the trip independent of
  // how fast the sample solves are.
  req.options.weight_fn = [held = false](double) mutable {
    if (!held) std::this_thread::sleep_for(std::chrono::milliseconds(120));
    held = true;
    return 1.0;
  };
  auto id = svc.submit(std::move(req));
  ASSERT_TRUE(id.is_ok());
  const JobResult res = svc.wait(id.value());
  EXPECT_EQ(res.outcome, JobOutcome::kExpired);
  EXPECT_EQ(res.status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_GT(res.start_sequence, 0u);  // it did start
}

TEST(ReductionService, CancelQueuedJobNeverRuns) {
  ReductionService svc({.runners = 1, .max_queue = 8});
  auto blocker = svc.submit(blocker_job());
  ASSERT_TRUE(blocker.is_ok());
  spin_until_running(svc);

  auto id = svc.submit(quick_job("queued"));
  ASSERT_TRUE(id.is_ok());
  EXPECT_TRUE(svc.cancel(id.value()));
  const JobResult res = svc.wait(id.value());
  EXPECT_EQ(res.outcome, JobOutcome::kCancelled);
  EXPECT_EQ(res.status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(res.start_sequence, 0u);
  EXPECT_EQ(res.run_seconds, 0.0);
  EXPECT_FALSE(svc.cancel(id.value()));  // already terminal
  svc.cancel(blocker.value());
  svc.drain();
}

TEST(ReductionService, CancelRunningJobStopsCooperatively) {
  ReductionService svc({.runners = 1, .max_queue = 4});
  auto id = svc.submit(blocker_job("cancel-running"));
  ASSERT_TRUE(id.is_ok());
  spin_until_running(svc);
  EXPECT_TRUE(svc.cancel(id.value()));
  const JobResult res = svc.wait(id.value());
  EXPECT_EQ(res.outcome, JobOutcome::kCancelled);
  EXPECT_EQ(res.status.code(), ErrorCode::kCancelled);
  EXPECT_GT(res.start_sequence, 0u);  // it did start
  EXPECT_GT(res.run_seconds, 0.0);
}

TEST(ReductionService, CancelUnknownIdReturnsFalse) {
  ReductionService svc({.runners = 1, .max_queue = 4});
  EXPECT_FALSE(svc.cancel(12345));
}

TEST(ReductionService, FailingJobIsOrdinaryFailedResult) {
  // Arm every solve to fail, the regularized rescue included: coverage
  // hits zero, the run throws kCoverageFloor, and the service records
  // kFailed without disturbing anything else.
  util::fault::ScopedFault replays(util::fault::Site::kSpluRefactor, 1.0, 7);
  util::fault::ScopedFault guard(util::fault::Site::kSpluPivot, 1.0, 7);
  ReductionService svc({.runners = 1, .max_queue = 4});
  auto id = svc.submit(quick_job("doomed"));
  ASSERT_TRUE(id.is_ok());
  const JobResult res = svc.wait(id.value());
  EXPECT_EQ(res.outcome, JobOutcome::kFailed);
  EXPECT_EQ(res.status.code(), ErrorCode::kCoverageFloor);

  // The service stays healthy: the next job completes.
  util::fault::clear();
  auto ok = svc.submit(quick_job("healthy"));
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(svc.wait(ok.value()).outcome, JobOutcome::kCompleted);
}

TEST(ReductionService, JobFromNetlistRoundTrips) {
  const std::string text =
      "* two-segment RC line\n"
      "R1 in mid 100\n"
      "R2 mid out 100\n"
      "C1 mid 0 1p\n"
      "C2 out 0 1p\n"
      ".port in\n"
      ".end\n";
  auto req = job_from_netlist(text, {}, "rc2");
  ASSERT_TRUE(req.is_ok()) << req.status().to_string();
  EXPECT_EQ(req.value().name, "rc2");
  EXPECT_EQ(req.value().system.num_inputs(), 1);

  ReductionService svc({.runners = 1, .max_queue = 2});
  auto id = svc.submit(std::move(req).value());
  ASSERT_TRUE(id.is_ok());
  EXPECT_EQ(svc.wait(id.value()).outcome, JobOutcome::kCompleted);
}

TEST(ReductionService, MalformedNetlistIsInvalidInput) {
  auto bad = job_from_netlist("R1 in out not_a_number\n.port in\n");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidInput);

  auto portless = job_from_netlist("R1 in 0 100\nC1 in 0 1p\n");
  ASSERT_FALSE(portless.is_ok());
  EXPECT_EQ(portless.status().code(), ErrorCode::kInvalidInput);
}

TEST(ReductionService, RejectedPreconditionIsInvalidInput) {
  // A job spec the reduction rejects up front (a reversed adaptive band)
  // fails as kInvalidInput, not as an unhandled exception.
  ReductionService svc({.runners = 1, .max_queue = 4});
  JobRequest req = quick_job("reversed band");
  req.method = Method::kPmtbrAdaptive;
  req.adaptive.band = {1e9, 0.0};
  auto id = svc.submit(std::move(req));
  ASSERT_TRUE(id.is_ok());
  const JobResult res = svc.wait(id.value());
  EXPECT_EQ(res.outcome, JobOutcome::kFailed);
  EXPECT_EQ(res.status.code(), ErrorCode::kInvalidInput);

  auto ok = svc.submit(quick_job("healthy"));
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(svc.wait(ok.value()).outcome, JobOutcome::kCompleted);
}

TEST(ReductionService, StatsPartitionAndServeExtra) {
  ReductionService svc({.runners = 2, .max_queue = 8});
  std::vector<JobId> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = svc.submit(quick_job("p" + std::to_string(i)));
    ASSERT_TRUE(id.is_ok());
    ids.push_back(id.value());
  }
  const auto results = svc.drain();
  EXPECT_EQ(results.size(), ids.size());
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 6);
  EXPECT_EQ(st.completed, 6);
  EXPECT_EQ(st.queued, 0);
  EXPECT_EQ(st.running, 0);
  EXPECT_EQ(st.submitted,
            st.completed + st.failed + st.cancelled + st.expired + st.rejected);
  EXPECT_GE(st.run_seconds, 0.0);

  const auto [key, json] = serve_extra(st);
  EXPECT_EQ(key, "serve");
  EXPECT_NE(json.find("\"submitted\""), std::string::npos);
  EXPECT_NE(json.find("\"completed\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_seconds\""), std::string::npos);
}

TEST(ReductionService, DestructorCancelsOutstandingJobs) {
  // Scope-exit with a running blocker and queued work behind it: the
  // destructor must cancel everything and join without hanging.
  ReductionService svc({.runners = 1, .max_queue = 8});
  auto blocker = svc.submit(blocker_job("shutdown"));
  ASSERT_TRUE(blocker.is_ok());
  spin_until_running(svc);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(svc.submit(quick_job("q")).is_ok());
}

TEST(ReductionService, InvalidOptionsAreRejected) {
  EXPECT_THROW(ReductionService({.runners = 0}), std::invalid_argument);
  EXPECT_THROW(ReductionService({.runners = 1, .max_queue = 0}), std::invalid_argument);
}

TEST(ReductionService, WaitOnUnknownIdThrows) {
  ReductionService svc({.runners = 1, .max_queue = 2});
  EXPECT_THROW(svc.wait(999), std::invalid_argument);
}

}  // namespace
}  // namespace pmtbr::serve
