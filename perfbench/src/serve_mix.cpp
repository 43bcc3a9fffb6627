// serve_mix: a closed loop through serve::ReductionService. One thread keeps
// kThreads jobs outstanding against as many runners, submitting the next job
// as soon as it collects the oldest one, and times each job from submit() to
// the return of wait().
//
// The run is a sequence of rounds over one job stream, generated before the
// first round. Each round gets a fresh service and a cleared factor cache,
// so every round does the same work and the memory held by the service (it
// keeps every job) and by the caches stays the same however fast the library
// runs.
#include <algorithm>
#include <deque>
#include <iostream>
#include <map>
#include <optional>

#include "inputs.hpp"
#include "mor/error.hpp"
#include "serve/model_cache.hpp"
#include "serve/service.hpp"
#include "sparse/factor_cache.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace mor = pmtbr::mor;
namespace serve = pmtbr::serve;
namespace util = pmtbr::util;

constexpr index kPassJobs = 400;
constexpr index kWarmupJobs = 100;
constexpr index kCheckStride = 50;     // one model_rel_err check per this many jobs
constexpr index kOverheadSamples = 8;  // direct calls per traced pass
constexpr index kCheckedStream = 400;  // stream prefix covered by the input checks
constexpr std::uint64_t kWarmupPass = 1u << 20;  // warm-up streams never meet measured ones
// model_rel_err comes from one untimed pass over a fixed job mix whose
// element values alone follow the seed, so the metric does not swing with
// the seed's job mix. Every checked model of the seeded passes must still
// stay below kMaxSeededErr.
constexpr std::uint64_t kReferenceSeed = 0x5eed;
constexpr index kReferenceJobs = 100;
constexpr double kMaxSeededErr = 0.5;

struct JobRecord {
  JobClass cls = JobClass::kFresh;
  double latency = 0.0;
  double cpu = 0.0;  // process CPU from submit() to the return of wait()
  double submit = 0.0;
  double queue = 0.0;
  double run = 0.0;
};

struct Pass {
  double wall = 0.0;
  std::vector<JobRecord> jobs;
  Counters counters;
  serve::ServiceStats stats;
};

// Runs `specs` through a fresh service; checks outcomes, the stats
// partition and that every copy of a job reproduces the first result for it
// bit for bit. Keeps the reduced models of `checked` jobs in `models`.
Pass run_pass(const std::vector<JobSpec>& specs, Report& rep, bool record,
              const std::vector<bool>& checked, std::map<index, mor::DenseSystem>& models,
              std::vector<util::Fingerprint>& digests) {
  std::vector<serve::JobRequest> reqs;
  reqs.reserve(specs.size());
  for (const JobSpec& s : specs) reqs.push_back(build_job(s));
  pmtbr::sparse::FactorCache::global().clear();
  digests.assign(specs.size(), {});

  Pass pass;
  pass.jobs.resize(specs.size());  // indexed like `specs`
  serve::ReductionService svc({.runners = kThreads, .max_queue = 64});
  struct InFlight {
    serve::JobId id;
    std::size_t j;
    Clock::time_point submitted;
    double cpu0;
    double submit_s;
  };
  std::deque<InFlight> inflight;
  std::size_t next = 0;
  const auto submit = [&] {
    const std::size_t j = next++;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    auto id = svc.submit(std::move(reqs[j]));
    const double submit_s = record ? seconds_between(t0, Clock::now()) : 0.0;
    if (id.is_ok()) {
      inflight.push_back({id.value(), j, t0, cpu0, submit_s});
    } else {
      ++rep.failed;
      rep.violation("job rejected: " + id.status().to_string());
    }
  };

  const Counters c0 = Counters::now();
  const auto t0 = Clock::now();
  while (next < specs.size() && inflight.size() < static_cast<std::size_t>(kThreads)) submit();
  while (!inflight.empty()) {
    const InFlight f = inflight.front();
    inflight.pop_front();
    serve::JobResult r = svc.wait(f.id);
    const auto done = Clock::now();
    const double cpu = process_cpu_seconds() - f.cpu0;
    if (next < specs.size()) submit();
    const JobSpec& spec = specs[f.j];
    ++rep.attempted;
    pass.jobs[f.j] = {spec.cls, seconds_between(f.submitted, done), cpu, f.submit_s,
                      r.queue_seconds, r.run_seconds};
    if (r.outcome != serve::JobOutcome::kCompleted) {
      ++rep.failed;
      rep.violation(std::string("job ") + job_class_name(spec.cls) + " ended " +
                    serve::job_outcome_name(r.outcome) + ": " + r.status.to_string());
      continue;
    }
    digests[f.j] = result_digest(r.reduction);
    const auto key = static_cast<std::size_t>(spec.key);
    if (key != f.j && digests[f.j] != digests[key]) {
      ++rep.failed;
      rep.violation(std::string(job_class_name(spec.cls)) +
                    " result differs from the first result for the same job");
    }
    if (checked[f.j]) models.emplace(static_cast<index>(f.j), std::move(r.reduction.model.system));
  }
  pass.wall = seconds_between(t0, Clock::now());
  pass.counters = Counters::now().since(c0);
  pass.stats = svc.stats();
  const auto& st = pass.stats;
  if (st.submitted != st.completed + st.failed + st.cancelled + st.expired + st.rejected)
    rep.violation("service stats do not partition the submitted jobs");
  return pass;
}

std::vector<bool> checked_jobs(const std::vector<JobSpec>& specs) {
  std::vector<bool> checked(specs.size(), false);
  for (std::size_t b = 0; b < specs.size(); b += kCheckStride) {
    for (std::size_t j = b; j < std::min(specs.size(), b + kCheckStride); ++j) {
      if (specs[j].key == static_cast<index>(j)) {
        checked[j] = true;
        break;
      }
    }
  }
  return checked;
}

// One field of every job record, optionally of one class only.
template <typename F>
std::vector<double> collect(const std::vector<Pass>& passes, F&& field,
                            std::optional<JobClass> cls = std::nullopt) {
  std::vector<double> out;
  for (const Pass& p : passes)
    for (const JobRecord& j : p.jobs)
      if (!cls || j.cls == *cls) out.push_back(field(j));
  return out;
}

double latency_of(const JobRecord& j) { return j.latency; }

double model_error(const JobSpec& spec, const mor::DenseSystem& model) {
  static const std::vector<double> check_hz = serve_check_hz();
  return mor::compare_on_grid(build_system(spec.system), model, check_hz).max_rel;
}

}  // namespace

void check_serve_inputs(std::uint64_t seed, Report& rep) {
  const auto a = serve_stream(seed, 0, kCheckedStream);
  if (a != serve_stream(seed, 0, kCheckedStream))
    rep.violation("serve_mix: job stream is not a function of the seed");
  std::vector<util::Fingerprint> sys_fp, job_fp;
  for (const JobSpec& s : a) {
    const serve::JobRequest r1 = build_job(s), r2 = build_job(s);
    sys_fp.push_back(r1.system.content_fingerprint());
    job_fp.push_back(*serve::job_fingerprint(r1));
    if (r2.system.content_fingerprint() != sys_fp.back() ||
        *serve::job_fingerprint(r2) != job_fp.back())
      rep.violation("serve_mix: regenerated system has another fingerprint");
  }
  for (std::size_t j = 0; j < a.size(); ++j) {
    const auto src = static_cast<std::size_t>(a[j].source);
    const auto key = static_cast<std::size_t>(a[j].key);
    if (sys_fp[j] != sys_fp[src] || job_fp[j] != job_fp[key])
      rep.violation("serve_mix: a derived job does not match its source's fingerprint");
    for (std::size_t i = 0; i < j; ++i) {
      if (a[j].cls == JobClass::kFresh && sys_fp[i] == sys_fp[j])
        rep.violation("serve_mix: two fresh jobs share a fingerprint");
      if (key == j && job_fp[i] == job_fp[j])
        rep.violation("serve_mix: a new job repeats an earlier job's fingerprint");
    }
  }
}

void run_serve_mix(const RunConfig& cfg, Report& rep) {
  std::vector<util::Fingerprint> digests;
  // Warm-up and reference passes: their failures count, their jobs do not.
  const auto untimed_pass = [&](const std::vector<JobSpec>& specs, const std::string& label,
                                const std::vector<bool>& checked,
                                std::map<index, mor::DenseSystem>& models) {
    Report scratch;
    run_pass(specs, scratch, false, checked, models, digests);
    rep.failed += scratch.failed;
    for (const auto& v : scratch.violations()) rep.violation(label + ": " + v);
  };

  // Every round runs the same job stream on a fresh service with a cleared
  // factor cache, so every round does the same work; a job's latency and CPU
  // time are its best over the rounds, which leaves out the slow stretches a
  // shared host goes through. With one job outstanding, the process CPU time
  // from submit() to wait() is that job's.
  const auto specs = serve_stream(cfg.seed, 0, kPassJobs);
  const auto checked = checked_jobs(specs);
  const std::vector<bool> unchecked(specs.size(), false);

  // Set-up: pool, stream generation and checks, service construction and a
  // warm-up pass (the first pass in a process runs well below steady state).
  // The run is kSetupReps stretches of equal measured time, each opened by a
  // timed set-up, so setup_s samples the whole run.
  std::vector<double> setups;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    util::set_global_threads(kThreads);
    check_serve_inputs(cfg.seed, rep);
    const auto warm = serve_stream(cfg.seed, kWarmupPass + setups.size(), kWarmupJobs);
    std::map<index, mor::DenseSystem> unused;
    untimed_pass(warm, "warm-up", std::vector<bool>(warm.size()), unused);
    setups.push_back(seconds_between(t0, Clock::now()));
  };

  // In the traced run, even rounds record per-job detail and odd rounds do
  // not; the latency difference between them is the tracing overhead.
  std::vector<Pass> passes, plain;
  std::vector<util::Fingerprint> first;
  std::vector<double> best(specs.size(), 1e300), best_cpu(specs.size(), 1e300);
  double measured = 0.0;
  std::vector<double> overhead;
  for (int p = 0; measured < cfg.seconds || p < kMinRounds; ++p) {
    if (setups.size() < kSetupReps &&
        measured >= cfg.seconds * static_cast<double>(setups.size()) / kSetupReps)
      set_up();
    const bool record = cfg.trace && p % 2 == 0;
    std::map<index, mor::DenseSystem> models;
    Pass pass =
        run_pass(specs, rep, record, p == 0 ? checked : unchecked, models, digests);
    measured += pass.wall;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      best[j] = std::min(best[j], pass.jobs[j].latency);
      best_cpu[j] = std::min(best_cpu[j], pass.jobs[j].cpu);
    }

    if (p == 0) {
      first = digests;
    } else if (digests != first) {
      ++rep.failed;
      rep.violation("round " + std::to_string(p) + " gave other models than round 0");
    }
    for (const auto& [j, model] : models) {
      const double err = model_error(specs[static_cast<std::size_t>(j)], model);
      if (!(err < kMaxSeededErr))
        rep.violation("job " + std::to_string(j) + " has model_rel_err " + std::to_string(err));
    }
    if (record) {
      // Service overhead: the same fresh job as one direct library call on
      // a cold factor cache, which must also match the served model.
      const auto stride = static_cast<std::size_t>(kPassJobs / kOverheadSamples);
      for (std::size_t j = 0; j < specs.size(); j += stride) {
        while (j < specs.size() && specs[j].cls != JobClass::kFresh) ++j;
        if (j >= specs.size()) break;
        pmtbr::sparse::FactorCache::global().clear();
        const auto t0 = Clock::now();
        const mor::PmtbrResult direct = run_direct(specs[j]);
        overhead.push_back(pass.jobs[j].run - seconds_between(t0, Clock::now()));
        if (result_digest(direct) != digests[j]) {
          ++rep.failed;
          rep.violation("served fresh job differs from the direct library call");
        }
      }
    }
    (record || !cfg.trace ? passes : plain).push_back(std::move(pass));
  }
  auto reference = serve_stream(kReferenceSeed, 0, kReferenceJobs);
  for (JobSpec& spec : reference)
    spec.system.value_seed = derive_seed(cfg.seed, 5, spec.system.value_seed);
  std::map<index, mor::DenseSystem> ref_models;
  untimed_pass(reference, "reference pass", std::vector<bool>(reference.size(), true),
               ref_models);
  double worst_err = 0.0;
  for (const auto& [j, model] : ref_models)
    worst_err = std::max(worst_err, model_error(reference[static_cast<std::size_t>(j)], model));
  pmtbr::sparse::FactorCache::global().clear();

  const Tail tail = tail_latency(best);
  std::cout << "serve_mix: " << specs.size() << " jobs x " << passes.size() + plain.size()
            << " rounds, latency tail is p" << tail.pct * 100 << " with " << tail.beyond
            << " jobs beyond it\n";
  double completed = 0.0, hits = 0.0;
  Counters counters;
  for (const Pass& p : passes) {
    completed += static_cast<double>(p.stats.completed);
    hits += static_cast<double>(p.stats.cache_hits);
    counters += p.counters;
  }

  if (!cfg.trace) {
    const auto jobs = static_cast<double>(specs.size());
    double sum_best = 0.0, sum_cpu = 0.0;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      sum_best += best[j];
      sum_cpu += best_cpu[j];
    }
    rep.set("setup_s", median(setups), "s");
    rep.set("latency_s_p50", median(best), "s");
    rep.set("latency_s_tail", tail.value, "s");
    rep.set("throughput_per_s", jobs / sum_best, "1/s");
    rep.set("cpu_s_per_op", sum_cpu / jobs, "s");
    rep.set("peak_rss_mb", peak_rss_mb(), "MiB");
    rep.set("model_rel_err", worst_err, "ratio");
    return;
  }

  const std::vector<double> lat = collect(passes, latency_of);
  const auto p50 = [&](auto field) { return median(collect(passes, field)); };
  rep.set("serve.submit_s_p50", p50([](const JobRecord& j) { return j.submit; }), "s");
  rep.set("serve.queue_s_p50", p50([](const JobRecord& j) { return j.queue; }), "s");
  rep.set("serve.run_s_p50", p50([](const JobRecord& j) { return j.run; }), "s");
  rep.set("serve.handoff_s_p50", p50([](const JobRecord& j) { return j.latency - j.queue - j.run; }),
          "s");
  rep.set("serve.overhead_s_p50", median(overhead), "s");
  for (const JobClass c : {JobClass::kFresh, JobClass::kReorder, JobClass::kRepeat})
    rep.set(std::string("serve.latency_s_p50.") + job_class_name(c),
            median(collect(passes, latency_of, c)), "s");
  rep.set("serve.model_cache.hit_ratio", hits / std::max(completed, 1.0), "ratio");
  report_counters(rep, counters, completed);
  rep.set("trace.overhead_s", median(lat) - median(collect(plain, latency_of)), "s");
}

}  // namespace perfbench
