// mesh_adaptive and mesh_solve: one mor::pmtbr call at a time on seeded RC
// meshes, the pool at kThreads threads.
//
// The untraced run times whole mor::pmtbr calls. The traced run times each
// request twice: once as mor::pmtbr (untraced) and once as a replay of
// pmtbr_with_samples through the same public calls in the same order, each
// call timed from here. The replay's model must be bit-identical to the
// library's, or the per-layer numbers would describe a different program.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "inputs.hpp"
#include "la/ops.hpp"
#include "mor/compressor.hpp"
#include "mor/error.hpp"
#include "mor/pmtbr.hpp"
#include "sparse/factor_cache.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace la = pmtbr::la;
namespace mor = pmtbr::mor;
namespace util = pmtbr::util;
using pmtbr::DescriptorSystem;

constexpr std::size_t kCheckedRequests = 4;  // model_rel_err sample per run

// Same weighting as pmtbr_with_samples: Parseval's 1/2π folded in, and a
// +jω sample carries its conjugate pair (realified columns, twice the weight).
la::MatD weight_block(const la::MatC& z, const mor::FrequencySample& fs) {
  if (std::abs(fs.s.imag()) == 0.0) {
    la::MatD block = la::real_part(z);
    block *= std::sqrt(fs.weight / (2.0 * std::numbers::pi));
    return block;
  }
  la::MatD block = la::realify_columns(z);
  block *= std::sqrt(fs.weight / std::numbers::pi);
  return block;
}

struct ReplayLayers {
  Layer prepare;  // circuit: try_prepare_shifted
  Layer solve;    // circuit: the sample fan-out (shifted solves + weighting)
  Layer add;      // mor: IncrementalCompressor::add_columns
  Layer order;    // mor: order_for_tolerance (per sample and final choice)
  Layer basis;    // mor: IncrementalCompressor::basis
  Layer project;  // mor: project_congruence
  Layer sv;       // mor: IncrementalCompressor::singular_values
  Layer total;    // the whole replay
  double realify_thread = 0.0;  // weighted realified block, summed over tasks
  double rank = 0.0;
  double columns = 0.0;
};

// pmtbr_with_samples through public calls. Workloads are chosen so no
// sample fails: the replay has no degradation ladder and throws instead.
mor::PmtbrResult replay_pmtbr(const DescriptorSystem& sys, const mor::PmtbrOptions& opts,
                              ReplayLayers& L) {
  struct Sample {
    la::MatD block;
    double realify_s = 0.0;
  };
  return timed(L.total, [&] {
    const auto samples = mor::sample_bands(opts.bands, opts.num_samples, opts.scheme);
    mor::IncrementalCompressor comp(sys.n(), 1e-13, opts.compressor);
    mor::PmtbrResult out;
    timed(L.prepare, [&] {
      for (const auto& fs : samples)
        if (sys.try_prepare_shifted(fs.s).is_ok()) return;
      throw std::runtime_error("replay: no sample shift yields a factorable pencil");
    });

    const bool adaptive = opts.adaptive_excess > 0;
    const auto total = static_cast<index>(samples.size());
    const index window =
        adaptive ? std::max<index>(index{1}, 2 * util::global_pool().size()) : total;
    bool stopped = false;
    for (index base = 0; base < total && !stopped; base += window) {
      const index count = std::min<index>(window, total - base);
      auto outcomes = timed(L.solve, [&] {
        return util::parallel_try_map<Sample>(count, [&](index i) -> util::Expected<Sample> {
          const auto& fs = samples[static_cast<std::size_t>(base + i)];
          auto z = sys.try_solve_shifted(fs.s, la::to_complex(sys.b()));
          if (!z.is_ok()) return z.status();
          const auto t0 = Clock::now();
          Sample s{weight_block(z.value(), fs)};
          s.realify_s = seconds_between(t0, Clock::now());
          return s;
        });
      });
      for (index k = 0; k < count; ++k) {
        const auto& slot = outcomes[static_cast<std::size_t>(k)];
        if (!slot.is_ok())
          throw std::runtime_error("replay: sample solve failed: " + slot.status().to_string());
        L.realify_thread += slot.value().realify_s;
        timed(L.add, [&] { return comp.add_columns(slot.value().block); });
        out.samples_used.push_back(samples[static_cast<std::size_t>(base + k)]);
        const auto used = static_cast<index>(out.samples_used.size());
        if (adaptive && used >= opts.min_samples) {
          const index est =
              timed(L.order, [&] { return comp.order_for_tolerance(opts.truncation_tol); });
          if (static_cast<double>(used) >= opts.adaptive_excess * static_cast<double>(est)) {
            stopped = true;
            break;
          }
        }
      }
    }

    index order = opts.fixed_order > 0
                      ? std::min<index>(opts.fixed_order, comp.rank())
                      : timed(L.order, [&] { return comp.order_for_tolerance(opts.truncation_tol); });
    if (opts.max_order > 0) order = std::min(order, opts.max_order);
    order = std::max<index>(order, 1);
    const la::MatD v = timed(L.basis, [&] { return comp.basis(order); });
    out.model.v = v;
    out.model.w = v;
    out.model.system = timed(L.project, [&] { return mor::project_congruence(sys, v); });
    out.model.singular_values = timed(L.sv, [&] { return comp.singular_values(); });
    for (const double s : out.model.singular_values) out.hankel_estimates.push_back(s * s);
    L.rank += static_cast<double>(comp.rank());
    L.columns += static_cast<double>(comp.columns_absorbed());
    return out;
  });
}

// max ‖H−Hr‖/‖H‖ over up to kCheckedRequests evenly spaced requests.
double model_error(const MeshWorkload& w,
                   const std::vector<std::pair<SystemSpec, mor::DenseSystem>>& done) {
  double worst = 0.0;
  const std::size_t stride = (done.size() + kCheckedRequests - 1) / kCheckedRequests;
  for (std::size_t i = 0; i < done.size(); i += stride) {
    const DescriptorSystem full = build_system(done[i].first);
    worst = std::max(worst, mor::compare_on_grid(full, done[i].second, w.check_hz).max_rel);
  }
  pmtbr::sparse::FactorCache::global().clear();
  return worst;
}

}  // namespace

void check_mesh_inputs(bool adaptive, std::uint64_t seed, Report& rep) {
  const MeshWorkload w = mesh_workload(adaptive);
  std::vector<util::Fingerprint> seen;
  for (std::int64_t i = 0; i < 3; ++i) {
    const SystemSpec spec = mesh_request(w, seed, i);
    const util::Fingerprint a = build_system(spec).content_fingerprint();
    if (!(spec == mesh_request(w, seed, i)) || build_system(spec).content_fingerprint() != a)
      rep.violation(std::string(w.name) + ": request stream is not a function of the seed");
    if (std::find(seen.begin(), seen.end(), a) != seen.end())
      rep.violation(std::string(w.name) + ": two fresh requests share a fingerprint");
    seen.push_back(a);
  }
}

void run_mesh(const RunConfig& cfg, bool adaptive, Report& rep) {
  const MeshWorkload w = mesh_workload(adaptive);
  auto& factor_cache = pmtbr::sparse::FactorCache::global();

  // A fixed set of requests, timed once per round until the time is up.
  // Every call gets a freshly built system and a cleared factor cache, so
  // each starts cold; a request's time is its best over the rounds, which
  // leaves out the slow stretches a shared host goes through.
  const auto requests = static_cast<std::size_t>(w.requests);
  std::vector<SystemSpec> specs;
  for (index i = 0; i < w.requests; ++i) specs.push_back(mesh_request(w, cfg.seed, i));

  // Set-up: pool, input generation and checks, and a warm-up round on other
  // requests (the first reductions in a process pay for page faults and
  // pool start-up). The run is kSetupReps stretches of equal measured time,
  // each opened by a timed set-up, so setup_s samples the whole run.
  std::vector<double> setups;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    util::set_global_threads(kThreads);
    factor_cache.clear();
    check_mesh_inputs(adaptive, cfg.seed, rep);
    const auto first = static_cast<std::int64_t>(setups.size()) * w.requests;
    for (std::int64_t i = first; i < first + w.requests; ++i)
      (void)mor::pmtbr(build_system(mesh_request(w, cfg.seed, -1 - i)), w.options);
    factor_cache.clear();
    setups.push_back(seconds_between(t0, Clock::now()));
  };

  std::vector<std::pair<SystemSpec, mor::DenseSystem>> done;
  std::vector<util::Fingerprint> digests(requests);
  std::vector<double> best(requests, 1e300), best_cpu(requests, 1e300);
  std::vector<double> latency, traced_latency;
  double measured = 0.0;
  int rounds = 0;
  ReplayLayers L;
  Counters counters;
  for (; rounds < kMinRounds || measured < cfg.seconds; ++rounds) {
    if (setups.size() < kSetupReps &&
        measured >= cfg.seconds * static_cast<double>(setups.size()) / kSetupReps)
      set_up();
    for (std::size_t i = 0; i < requests; ++i) {
      const DescriptorSystem sys = build_system(specs[i]);
      ++rep.attempted;
      try {
        factor_cache.clear();
        const double c0 = process_cpu_seconds();
        const auto t0 = Clock::now();
        mor::PmtbrResult res = mor::pmtbr(sys, w.options);
        const double dt = seconds_between(t0, Clock::now());
        best_cpu[i] = std::min(best_cpu[i], process_cpu_seconds() - c0);
        best[i] = std::min(best[i], dt);
        latency.push_back(dt);
        measured += dt;
        const util::Fingerprint digest = result_digest(res);
        if (rounds == 0) {
          digests[i] = digest;
          done.emplace_back(specs[i], std::move(res.model.system));
        } else if (digest != digests[i]) {
          ++rep.failed;
          rep.violation("request " + std::to_string(i) + " gave another model in round " +
                        std::to_string(rounds));
        }
        if (cfg.trace) {
          // The replay runs on a regenerated system and a cleared factor
          // cache, so it starts as cold as the call it replays.
          factor_cache.clear();
          const DescriptorSystem again = build_system(specs[i]);
          const Counters before = Counters::now();
          const double replay_before = L.total.wall;
          const mor::PmtbrResult replayed = replay_pmtbr(again, w.options, L);
          counters += Counters::now().since(before);
          traced_latency.push_back(L.total.wall - replay_before);
          measured += traced_latency.back();
          if (result_digest(replayed) != digest) {
            ++rep.failed;
            rep.violation("replay model differs from mor::pmtbr on request " + std::to_string(i));
          }
        }
      } catch (const std::exception& e) {
        ++rep.failed;
        rep.violation("request " + std::to_string(i) + " failed: " + e.what());
      }
    }
  }

  const double err = model_error(w, done);
  if (!(err < 1.0)) rep.violation("model_rel_err " + std::to_string(err) + " is not below 1");
  const double n = static_cast<double>(latency.size());
  const Tail tail = tail_latency(best);
  std::cout << w.name << ": " << requests << " requests x " << rounds
            << " rounds, latency tail is p" << tail.pct * 100 << " with " << tail.beyond
            << " requests beyond it\n";

  if (!cfg.trace) {
    double sum_best = 0.0, sum_cpu = 0.0;
    for (std::size_t i = 0; i < requests; ++i) {
      sum_best += best[i];
      sum_cpu += best_cpu[i];
    }
    rep.set("setup_s", median(setups), "s");
    rep.set("latency_s_p50", median(best), "s");
    rep.set("latency_s_tail", tail.value, "s");
    rep.set("throughput_per_s", static_cast<double>(requests) / sum_best, "1/s");
    rep.set("cpu_s_per_op", sum_cpu / static_cast<double>(requests), "s");
    rep.set("peak_rss_mb", peak_rss_mb(), "MiB");
    rep.set("model_rel_err", err, "ratio");
    return;
  }

  const double t = std::max(n, 1.0);
  const double wall = L.total.wall;
  const double attributed = L.prepare.wall + L.solve.wall + L.add.wall + L.order.wall +
                            L.basis.wall + L.project.wall + L.sv.wall;
  rep.set("circuit.prepare_s", L.prepare.wall / t, "s");
  rep.set("circuit.solve_s", L.solve.wall / t, "s");
  rep.set("circuit.solve_cpu_s", L.solve.cpu / t, "s");
  rep.set("circuit.solve_share", L.solve.wall / wall, "ratio");
  rep.set("la.realify_thread_s", L.realify_thread / t, "s");
  rep.set("mor.compressor.add_s", L.add.wall / t, "s");
  rep.set("mor.compressor.add_cpu_s", L.add.cpu / t, "s");
  rep.set("mor.compressor.rank", L.rank / t, "count");
  rep.set("mor.compressor.columns", L.columns / t, "count");
  rep.set("mor.order.order_for_tolerance_s", L.order.wall / t, "s");
  rep.set("mor.order.order_for_tolerance_cpu_s", L.order.cpu / t, "s");
  rep.set("mor.order.calls", static_cast<double>(L.order.calls) / t, "count");
  rep.set("mor.compressor.basis_s", L.basis.wall / t, "s");
  rep.set("mor.compressor.singular_values_s", L.sv.wall / t, "s");
  rep.set("mor.project_s", L.project.wall / t, "s");
  rep.set("mor.replay_s", wall / t, "s");
  rep.set("mor.replay_cpu_s", L.total.cpu / t, "s");
  rep.set("mor.unattributed_s", (wall - attributed) / t, "s");
  rep.set("mor.order_svd_share", (L.order.wall + L.basis.wall + L.sv.wall) / wall, "ratio");
  report_counters(rep, counters, n);
  rep.set("trace.overhead_s", median(traced_latency) - median(latency), "s");
}

}  // namespace perfbench
