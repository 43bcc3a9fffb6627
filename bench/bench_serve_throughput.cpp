// Serving-layer throughput bench: a fixed batch of generator-built
// reduction jobs pushed through ReductionService at several runner counts.
// Each sweep point repeats its cold batch until it has run at least
// kMinPointSeconds and reports jobs/sec, p50/p99 queue/run latency, and its
// process CPU seconds and utilization (CPU seconds per wall second).
//
// Artifacts: bench_out/BENCH_serve_throughput.json carries the standard
// timing records (one per runner count the host gave its CPUs, timing one
// batch) plus a "serve" array (one entry per runner count) with the
// repetitions, utilization, latency percentiles, the outcome partition and,
// unless the point is underutilized, jobs_per_second; and a
// "repeated_workload" object with the cold, reorder and warm waves;
// MANIFEST_serve_throughput.json carries the serve_extra() section from the
// last sweep. Both are validated by tools/report_metrics.py in CI.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "circuit/generators.hpp"
#include "serve/model_cache.hpp"
#include "serve/service.hpp"
#include "sparse/factor_cache.hpp"
#include "util/obs/counters.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace pmtbr;
using la::index;

constexpr int kBatch = 40;

serve::JobRequest make_job(Rng& rng, int i) {
  serve::JobRequest req;
  req.name = "bench-" + std::to_string(i);
  req.system = circuit::make_rc_line(
      {.segments = static_cast<index>(rng.uniform_int(30, 90))});
  req.options.num_samples = static_cast<index>(rng.uniform_int(12, 32));
  req.priority = static_cast<serve::Priority>(rng.uniform_int(0, 2));
  return req;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

// A sweep point runs its batch again until it has run this long, so that a
// utilization figure means something (one batch takes about 10 ms).
constexpr double kMinPointSeconds = 1.0;
// A point whose utilization falls below this many CPUs per runner did not
// get the CPUs it asked for from the host; its throughput is withheld.
constexpr double kMinUtilizationPerRunner = 0.75;

struct SweepPoint {
  int runners = 0;
  int repetitions = 0;
  int jobs = 0;  // over every repetition
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double utilization = 0.0;
  bool underutilized = false;
  double jobs_per_second = 0.0;
  double queue_p50 = 0.0, queue_p99 = 0.0;
  double run_p50 = 0.0, run_p99 = 0.0;
  serve::ServiceStats stats;  // outcomes summed over every repetition
};

SweepPoint run_sweep(int runners) {
  SweepPoint pt;
  pt.runners = runners;
  std::vector<double> queue_lat, run_lat;
  const double cpu_before = bench::process_cpu_seconds();
  WallTimer timer;
  do {
    // Every repetition rebuilds the batch (the rng stream is a pure function
    // of the seed) and gets a fresh service (fresh span cache) and a cold
    // solve cache, so every repetition and runner count does the same work.
    sparse::FactorCache::global().clear();
    Rng rng(7);
    serve::ReductionService svc({.runners = runners, .max_queue = kBatch});
    for (int i = 0; i < kBatch; ++i)
      if (svc.submit(make_job(rng, i)).is_ok()) ++pt.jobs;
    for (const auto& [id, res] : svc.drain()) {
      queue_lat.push_back(res.queue_seconds);
      run_lat.push_back(res.run_seconds);
    }
    const serve::ServiceStats st = svc.stats();
    pt.stats.completed += st.completed;
    pt.stats.failed += st.failed;
    pt.stats.cancelled += st.cancelled;
    pt.stats.expired += st.expired;
    pt.stats.rejected += st.rejected;
    ++pt.repetitions;
  } while (timer.seconds() < kMinPointSeconds);
  pt.wall_seconds = timer.seconds();
  pt.cpu_seconds = bench::process_cpu_seconds() - cpu_before;
  pt.utilization = pt.cpu_seconds / pt.wall_seconds;
  pt.underutilized = pt.utilization < kMinUtilizationPerRunner * runners;
  pt.jobs_per_second = static_cast<double>(pt.jobs) / pt.wall_seconds;
  pt.queue_p50 = percentile(queue_lat, 0.50);
  pt.queue_p99 = percentile(queue_lat, 0.99);
  pt.run_p50 = percentile(run_lat, 0.50);
  pt.run_p99 = percentile(run_lat, 0.99);
  return pt;
}

// Warm-vs-cold phase for the cross-job caching layer (docs/SERVING.md):
// one service reduces a wave of distinct jobs cold, then the same systems
// at another fixed order (the reorder wave), then the identical cold wave
// again several times. Reorder and warm jobs find their sampled span in the
// cache and only project their order, so both should beat cold jobs/sec by
// a wide margin.
struct RepeatedWorkload {
  int jobs_per_wave = 0;
  int warm_waves = 0;
  double cold_wall_seconds = 0.0;
  double warm_wall_seconds = 0.0;
  double reorder_wall_seconds = 0.0;
  double cold_jobs_per_second = 0.0;
  double warm_jobs_per_second = 0.0;
  double reorder_jobs_per_second = 0.0;
  std::int64_t reorder_cache_hits = 0;
  serve::ServiceStats stats;
  util::CacheStats model;
  util::CacheStats factor;
};

RepeatedWorkload run_repeated_workload() {
  constexpr int kWave = 12;
  constexpr int kWarmWaves = 3;
  constexpr index kReorder = 4;  // the cold wave's order comes from truncation_tol
  sparse::FactorCache::global().clear();
  serve::ReductionService svc({.runners = 4, .max_queue = kWave});

  // Deterministic, index-distinct jobs: every wave resubmits the same
  // systems and sampling, so every wave after the first finds its spans in
  // the cache populated by the first.
  const auto wave = [&svc](index fixed_order) {
    WallTimer timer;
    std::vector<serve::JobId> ids;
    ids.reserve(kWave);
    for (int i = 0; i < kWave; ++i) {
      serve::JobRequest req;
      req.name = "repeat-" + std::to_string(i);
      req.system = circuit::make_rc_line({.segments = static_cast<index>(40 + 5 * i)});
      req.options.num_samples = 16;
      req.options.fixed_order = fixed_order;
      auto id = svc.submit(std::move(req));
      if (id.is_ok()) ids.push_back(id.value());
    }
    for (const auto id : ids) (void)svc.wait(id);
    return timer.seconds();
  };

  RepeatedWorkload rep;
  rep.jobs_per_wave = kWave;
  rep.warm_waves = kWarmWaves;
  const index cold_order = mor::PmtbrOptions{}.fixed_order;
  rep.cold_wall_seconds = wave(cold_order);
  const std::int64_t hits_before = svc.stats().cache_hits;
  rep.reorder_wall_seconds = wave(kReorder);
  rep.reorder_cache_hits = svc.stats().cache_hits - hits_before;
  for (int w = 0; w < kWarmWaves; ++w) rep.warm_wall_seconds += wave(cold_order);
  rep.cold_jobs_per_second =
      rep.cold_wall_seconds > 0 ? kWave / rep.cold_wall_seconds : 0.0;
  rep.warm_jobs_per_second =
      rep.warm_wall_seconds > 0 ? kWarmWaves * kWave / rep.warm_wall_seconds : 0.0;
  rep.reorder_jobs_per_second =
      rep.reorder_wall_seconds > 0 ? kWave / rep.reorder_wall_seconds : 0.0;
  rep.stats = svc.stats();
  rep.model = svc.model_cache_stats();
  rep.factor = sparse::FactorCache::global().stats();
  return rep;
}

std::string write_artifact(const std::vector<SweepPoint>& sweep,
                           const RepeatedWorkload& rep) {
  std::vector<bench::TimingRecord> records;
  for (const auto& pt : sweep)
    if (!pt.underutilized)
      records.push_back({.label = "serve_runners=" + std::to_string(pt.runners),
                         .wall_seconds = pt.wall_seconds / pt.repetitions,
                         .n = kBatch,
                         .threads = pt.runners});
  return bench::write_timing_json("serve_throughput", records, [&](obs::JsonWriter& w) {
    w.key("serve");
    w.begin_array();
    for (const auto& pt : sweep) {
      w.begin_object();
      w.key("runners");
      w.value(pt.runners);
      w.key("repetitions");
      w.value(pt.repetitions);
      w.key("jobs");
      w.value(pt.jobs);
      w.key("wall_seconds");
      w.value(pt.wall_seconds);
      w.key("process_cpu_seconds");
      w.value(pt.cpu_seconds);
      w.key("utilization");
      w.value(pt.utilization);
      w.key("underutilized");
      w.value(pt.underutilized);
      if (!pt.underutilized) {
        w.key("jobs_per_second");
        w.value(pt.jobs_per_second);
      }
      w.key("queue_seconds");
      w.begin_object();
      w.key("p50");
      w.value(pt.queue_p50);
      w.key("p99");
      w.value(pt.queue_p99);
      w.end_object();
      w.key("run_seconds");
      w.begin_object();
      w.key("p50");
      w.value(pt.run_p50);
      w.key("p99");
      w.value(pt.run_p99);
      w.end_object();
      w.key("outcomes");
      w.begin_object();
      w.key("completed");
      w.value(pt.stats.completed);
      w.key("failed");
      w.value(pt.stats.failed);
      w.key("cancelled");
      w.value(pt.stats.cancelled);
      w.key("expired");
      w.value(pt.stats.expired);
      w.key("rejected");
      w.value(pt.stats.rejected);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.key("repeated_workload");
    w.begin_object();
    w.key("jobs_per_wave");
    w.value(rep.jobs_per_wave);
    w.key("warm_waves");
    w.value(rep.warm_waves);
    w.key("cold");
    w.begin_object();
    w.key("wall_seconds");
    w.value(rep.cold_wall_seconds);
    w.key("jobs_per_second");
    w.value(rep.cold_jobs_per_second);
    w.end_object();
    w.key("warm");
    w.begin_object();
    w.key("wall_seconds");
    w.value(rep.warm_wall_seconds);
    w.key("jobs_per_second");
    w.value(rep.warm_jobs_per_second);
    w.end_object();
    w.key("reorder");
    w.begin_object();
    w.key("wall_seconds");
    w.value(rep.reorder_wall_seconds);
    w.key("jobs_per_second");
    w.value(rep.reorder_jobs_per_second);
    w.key("cache_hits");
    w.value(rep.reorder_cache_hits);
    w.end_object();
    w.key("cache_hits");
    w.value(rep.stats.cache_hits);
    w.end_object();
  });
}

}  // namespace

int main() {
  bench::banner("serve_throughput",
                "batched reduction service: jobs/sec and latency percentiles "
                "vs. runner count");
  obs::reset_counters();

  std::vector<SweepPoint> sweep;
  std::cout << "runners,repetitions,jobs,wall_seconds,cpu_seconds,utilization,jobs_per_sec,"
               "queue_p50,queue_p99,run_p50,run_p99,completed\n";
  for (const int runners : {1, 2, 4}) {
    const SweepPoint pt = run_sweep(runners);
    sweep.push_back(pt);
    std::cout << pt.runners << "," << pt.repetitions << "," << pt.jobs << ","
              << pt.wall_seconds << "," << pt.cpu_seconds << "," << pt.utilization << ","
              << (pt.underutilized ? std::string("underutilized")
                                   : std::to_string(pt.jobs_per_second))
              << "," << pt.queue_p50 << "," << pt.queue_p99 << "," << pt.run_p50 << ","
              << pt.run_p99 << "," << pt.stats.completed << "\n";
  }

  const RepeatedWorkload rep = run_repeated_workload();
  std::cout << "repeated_workload: cold " << rep.cold_jobs_per_second
            << " jobs/sec, reorder " << rep.reorder_jobs_per_second << " jobs/sec ("
            << rep.reorder_cache_hits << " hits), warm " << rep.warm_jobs_per_second
            << " jobs/sec, " << rep.stats.cache_hits << " cache hits\n";

  const std::string artifact = write_artifact(sweep, rep);
  if (!artifact.empty()) bench::note("timing artifact: " + artifact);
  bench::write_run_manifest("serve_throughput",
                            {serve::serve_extra(rep.stats),
                             serve::cache_extra(rep.model, rep.factor)});
  return 0;
}
