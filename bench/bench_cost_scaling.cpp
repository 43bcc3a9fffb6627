// Sec. III-C reproduction (the paper's cost comparison): wall-clock scaling
// of TBR (O(n^3)), PRIMA, and PMTBR on RC lines of growing size, via
// google-benchmark. The JSON records also time adaptive order control at
// the mesh_adaptive shape and on a stream that stops early, phase by
// phase, the shifted refactor + solve
// under each fill-reducing ordering, the symmetric pencil's LDLᵀ one shift
// at a time and in lane groups, and the orderings themselves.
//
// Paper shape: TBR's cubic cost limits it to small/medium problems; PRIMA
// and PMTBR scale with the sparse-solve cost (PMTBR pays one factorization
// per sample but needs smaller models).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "circuit/generators.hpp"
#include "la/ops.hpp"
#include "mor/pmtbr.hpp"
#include "mor/prima.hpp"
#include "mor/tbr.hpp"
#include "sparse/amd.hpp"
#include "sparse/factor_cache.hpp"
#include "sparse/rcm.hpp"
#include "sparse/splu.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace pmtbr;

DescriptorSystem line(la::index n_states) {
  circuit::RcLineParams p;
  p.segments = n_states - 1;
  return circuit::make_rc_line(p);
}

void BM_Tbr(benchmark::State& state) {
  const auto sys = line(state.range(0));
  mor::TbrOptions opts;
  opts.fixed_order = 10;
  for (auto _ : state) benchmark::DoNotOptimize(mor::tbr(sys, opts).model.system.n());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Tbr)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Complexity()->Unit(benchmark::kMillisecond);

void BM_Prima(benchmark::State& state) {
  const auto sys = line(state.range(0));
  mor::PrimaOptions opts;
  opts.num_moments = 10;
  for (auto _ : state) benchmark::DoNotOptimize(mor::prima(sys, opts).model.system.n());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Prima)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Arg(800)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

// The solve cache is emptied outside the timed region, so every iteration
// pays its samples' factorizations, as BM_Prima pays its own.
void BM_Pmtbr(benchmark::State& state) {
  const auto sys = line(state.range(0));
  mor::PmtbrOptions opts;
  opts.bands = {mor::Band{0.0, 1e10}};
  opts.num_samples = 10;
  opts.fixed_order = 10;
  for (auto _ : state) {
    state.PauseTiming();
    sparse::FactorCache::global().clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(mor::pmtbr(sys, opts).model.system.n());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Pmtbr)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Arg(800)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

// The sparse-solve primitive underlying every PMTBR sample: one refactor
// and solve per iteration. The solve cache is emptied outside the timed
// region, so no iteration is served the previous one's X.
void BM_ShiftedSolve(benchmark::State& state) {
  const auto sys = line(state.range(0));
  const la::MatC b = la::to_complex(sys.b());
  for (auto _ : state) {
    state.PauseTiming();
    sparse::FactorCache::global().clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(sys.solve_shifted(la::cd(0.0, 1e9), b).rows());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ShiftedSolve)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

// Total trace seconds across every scope path ending in `suffix` —
// aggregates worker-thread chains (which start fresh at the scope) and
// caller chains (nested under "pmtbr") alike.
double phase_seconds(const std::vector<obs::ScopeStat>& snap, const std::string& suffix) {
  double total = 0.0;
  for (const auto& s : snap) {
    if (s.path.size() < suffix.size()) continue;
    if (s.path.compare(s.path.size() - suffix.size(), suffix.size(), suffix) == 0)
      total += s.seconds;
  }
  return total;
}

// Thread-count sweep for the parallel sampling engine, plus a
// symbolic-reuse measurement, recorded as machine-readable JSON
// (bench_out/BENCH_cost_scaling.json) for CI timing diffs. Each pmtbr run
// also emits per-phase records (sampling vs. compression vs. projection)
// aggregated from the trace scopes, so regressions can be attributed to a
// phase instead of showing up only as an end-to-end delta.
std::vector<bench::TimingRecord> run_parallel_sweep() {
  std::vector<bench::TimingRecord> records;

  circuit::RcMeshParams mp;
  mp.rows = 30;
  mp.cols = 30;
  mp.num_ports = 4;
  const auto mesh = circuit::make_rc_mesh(mp);

  mor::PmtbrOptions opts;
  opts.bands = {mor::Band{1e5, 1e11}};
  opts.num_samples = 50;
  opts.fixed_order = 20;

  const int hw = util::resolve_num_threads(nullptr);
  std::vector<int> sweep{1, 2, 4};
  if (std::find(sweep.begin(), sweep.end(), hw) == sweep.end()) sweep.push_back(hw);
  const bool trace_was_enabled = obs::trace_enabled();
  obs::set_trace_enabled(true);
  for (const int threads : sweep) {
    util::set_global_threads(threads);
    // Cold caches for every run: a copy would share the mesh's analysis,
    // and the solve cache would serve the previous run's samples.
    const auto fresh = circuit::make_rc_mesh(mp);
    sparse::FactorCache::global().clear();
    obs::reset_trace();
    WallTimer timer;
    const auto result = mor::pmtbr(fresh, opts);
    const double secs = timer.seconds();
    const long samples = static_cast<long>(result.samples_used.size());
    const std::string base = "pmtbr_threads=" + std::to_string(threads);
    records.push_back({base, secs, mesh.n(), samples, threads});
    // Phase attribution from the trace table. Sampling is measured across
    // worker threads, so with T threads it can exceed the wall-clock share.
    const auto snap = obs::trace_snapshot();
    // Sampling is each sample's ladder plus the lane groups that solved the
    // first attempts.
    const double sampling =
        phase_seconds(snap, "pmtbr.sample_block") + phase_seconds(snap, "pmtbr.sample_lanes");
    const double compression = phase_seconds(snap, "compressor.add_columns");
    const double projection = phase_seconds(snap, "pmtbr.project");
    records.push_back({base + "_phase=sampling", sampling, mesh.n(), samples, threads});
    records.push_back({base + "_phase=compression", compression, mesh.n(), samples, threads});
    records.push_back({base + "_phase=projection", projection, mesh.n(), samples, threads});
    bench::note("pmtbr n=" + std::to_string(mesh.n()) + " samples=50 threads=" +
                std::to_string(threads) + ": " + std::to_string(secs) + " s (sampling=" +
                std::to_string(sampling) + " compression=" + std::to_string(compression) +
                " projection=" + std::to_string(projection) + ")");
  }
  obs::set_trace_enabled(trace_was_enabled);
  util::set_global_threads(util::resolve_num_threads(nullptr));

  // Symbolic reuse: solve the same pencil pattern at many shifts, once with
  // a full factorization per shift and once reusing one symbolic analysis.
  {
    circuit::RcLineParams lp;
    lp.segments = 4000;
    const auto sys = circuit::make_rc_line(lp);
    std::vector<la::cd> shifts;
    for (int k = 0; k < 20; ++k) shifts.emplace_back(0.0, 1e6 * std::pow(10.0, 0.25 * k));
    const la::MatC b = la::to_complex(sys.b());

    WallTimer cold;
    for (const la::cd s : shifts) {
      const sparse::SparseLuC lu(sparse::shifted_pencil(s, sys.e(), sys.a()), sys.ordering());
      benchmark::DoNotOptimize(lu.solve(b).rows());
    }
    const double cold_secs = cold.seconds();

    const sparse::SymbolicLuC symbolic(sparse::shifted_pencil(shifts.front(), sys.e(), sys.a()),
                                       sys.ordering());
    WallTimer warm;
    for (const la::cd s : shifts) {
      const auto lu =
          sparse::SparseLuC::refactor(symbolic, sparse::shifted_pencil(s, sys.e(), sys.a()));
      benchmark::DoNotOptimize(lu->solve(b).rows());
    }
    const double warm_secs = warm.seconds();

    records.push_back({"shifted_solves_full_factor", cold_secs, sys.n(),
                       static_cast<long>(shifts.size()), 1});
    records.push_back({"shifted_solves_symbolic_reuse", warm_secs, sys.n(),
                       static_cast<long>(shifts.size()), 1});
    bench::note("20-shift solve n=" + std::to_string(sys.n()) + ": full=" +
                std::to_string(cold_secs) + " s, symbolic-reuse=" + std::to_string(warm_secs) +
                " s (" + std::to_string(cold_secs / warm_secs) + "x)");
  }
  return records;
}

// Adaptive order control on a 20×20 two-port RC mesh, 1e5–1e11 Hz, excess
// 2, tol 1e-6, at one thread on a fresh mesh and an empty solve cache, best
// of five runs, at two sample counts: mesh_adaptive's 20 (the run never
// stops early) and an 80-sample stream that stops at sample 64 with order
// 32. Besides the phases of the sweep above it records the order checks:
// every R fold outside pmtbr.project (compressor.settle or
// compressor.scratch_fold), against the fold the span commits there.
// Sampling includes the pencil's analysis, which sizes the adaptive
// batches before the first solve; the note gives the solves discarded past
// the stop (pmtbr_samples_discarded).
std::vector<bench::TimingRecord> run_adaptive_record(la::index num_samples,
                                                     const std::string& base) {
  circuit::RcMeshParams mp;
  mp.rows = 20;
  mp.cols = 20;
  mp.num_ports = 2;
  mor::PmtbrOptions opts;
  opts.bands = {mor::Band{1e5, 1e11}};
  opts.num_samples = num_samples;
  opts.adaptive_excess = 2.0;
  opts.truncation_tol = 1e-6;

  const auto order_seconds = [](const std::vector<obs::ScopeStat>& snap) {
    double total = 0.0;
    for (const auto& s : snap)
      if ((s.path.ends_with("compressor.settle") || s.path.ends_with("compressor.scratch_fold")) &&
          s.path.find("pmtbr.project") == std::string::npos)
        total += s.seconds;
    return total;
  };
  // The ordering and the analysis where no sample scope holds them.
  const auto analysis_seconds = [](const std::vector<obs::ScopeStat>& snap) {
    double total = 0.0;
    for (const auto& s : snap)
      if ((s.path.ends_with("descriptor.ordering") || s.path.ends_with("splu.analyze")) &&
          s.path.find("pmtbr.sample_") == std::string::npos)
        total += s.seconds;
    return total;
  };
  util::set_global_threads(1);
  const bool trace_was_enabled = obs::trace_enabled();
  obs::set_trace_enabled(true);
  double best = 0.0;
  la::index n = 0;
  long samples = 0;
  std::int64_t discarded = 0;
  std::vector<obs::ScopeStat> snap;
  for (int run = 0; run < 5; ++run) {
    const auto fresh = circuit::make_rc_mesh(mp);
    sparse::FactorCache::global().clear();
    obs::reset_trace();
    const std::int64_t discarded_before =
        obs::counter_value(obs::Counter::kPmtbrSamplesDiscarded);
    WallTimer timer;
    const auto result = mor::pmtbr(fresh, opts);
    const double secs = timer.seconds();
    if (run > 0 && secs >= best) continue;
    best = secs;
    n = fresh.n();
    samples = static_cast<long>(result.samples_used.size());
    discarded = obs::counter_value(obs::Counter::kPmtbrSamplesDiscarded) - discarded_before;
    snap = obs::trace_snapshot();
  }
  obs::set_trace_enabled(trace_was_enabled);
  util::set_global_threads(util::resolve_num_threads(nullptr));

  const double sampling = phase_seconds(snap, "pmtbr.sample_block") +
                          phase_seconds(snap, "pmtbr.sample_lanes") + analysis_seconds(snap);
  const double compression = phase_seconds(snap, "compressor.add_columns");
  const double order = order_seconds(snap);
  const double projection = phase_seconds(snap, "pmtbr.project");
  std::vector<bench::TimingRecord> records{
      {base, best, n, samples, 1},
      {base + "_phase=sampling", sampling, n, samples, 1},
      {base + "_phase=compression", compression, n, samples, 1},
      {base + "_phase=order", order, n, samples, 1},
      {base + "_phase=projection", projection, n, samples, 1}};
  bench::note("pmtbr adaptive 20x20 mesh, 2 ports, " + std::to_string(samples) + " of " +
              std::to_string(num_samples) + " samples (" + std::to_string(discarded) +
              " solves discarded), 1 thread: " + std::to_string(best) + " s (sampling=" +
              std::to_string(sampling) + " compression=" + std::to_string(compression) +
              " order=" + std::to_string(order) + " projection=" + std::to_string(projection) +
              ")");
  return records;
}

std::vector<la::cd> refactor_shifts() {
  std::vector<la::cd> shifts;
  for (int k = 0; k < 20; ++k) shifts.emplace_back(0.0, 1e6 * std::pow(10.0, 0.25 * k));
  return shifts;
}

// 20 shifted numeric factors + solves against `symbolic`. A factor rejected
// for a degenerate pivot falls back to a full LU, as DescriptorSystem does.
void refactor_and_solve(const DescriptorSystem& sys, const std::vector<la::index>& perm,
                        const sparse::SymbolicLuC& symbolic) {
  const la::MatC b = la::to_complex(sys.b());
  for (const la::cd s : refactor_shifts()) {
    const sparse::CsrC pencil = sparse::shifted_pencil(s, sys.e(), sys.a());
    auto lu = sparse::SparseLuC::refactor(symbolic, pencil);
    if (!lu.is_ok()) lu = sparse::SparseLuC::factor(pencil, perm);
    benchmark::DoNotOptimize(lu.value().solve(b).rows());
  }
}

// Best of three timed passes of the LU replay: 20 refactor + solve steps
// against one LU analysis frozen at the first shift.
double refactor_solve_seconds(const DescriptorSystem& sys, const std::vector<la::index>& perm) {
  const sparse::SymbolicLuC symbolic(
      sparse::shifted_pencil(refactor_shifts().front(), sys.e(), sys.a()), perm);
  return bench::best_seconds(3, [&] { refactor_and_solve(sys, perm, symbolic); });
}

// Best of three timed passes of what a symmetric pencil costs: the
// pattern-only LDLᵀ analysis plus 20 LDLᵀ factors + solves.
double ldlt_solve_seconds(const DescriptorSystem& sys, const std::vector<la::index>& perm) {
  return bench::best_seconds(3, [&] {
    const auto symbolic = sparse::SymbolicLuC::symmetric(
        sparse::shifted_pencil(refactor_shifts().front(), sys.e(), sys.a()), perm);
    refactor_and_solve(sys, perm, symbolic);
  });
}

// The same as ldlt_solve_seconds through the lane-batched entry point: the
// analysis, then the 20 shifts factored and solved in lane groups (8 + 8 +
// 4), a rejected lane falling back to a full LU as DescriptorSystem does.
double ldlt_lanes_solve_seconds(const DescriptorSystem& sys, const std::vector<la::index>& perm) {
  const std::vector<la::cd> shifts = refactor_shifts();
  const la::MatC b = la::to_complex(sys.b());
  return bench::best_seconds(3, [&] {
    const auto symbolic = sparse::SymbolicLuC::symmetric(
        sparse::shifted_pencil(shifts.front(), sys.e(), sys.a()), perm);
    const sparse::ShiftedPencil pencil(sys.e(), sys.a());
    const auto xs = sparse::solve_lanes(symbolic, pencil, shifts, b);
    for (std::size_t k = 0; k < xs.size(); ++k) {
      if (xs[k].is_ok()) {
        benchmark::DoNotOptimize(xs[k].value().rows());
        continue;
      }
      const auto lu =
          sparse::SparseLuC::factor(sparse::shifted_pencil(shifts[k], sys.e(), sys.a()), perm);
      benchmark::DoNotOptimize(lu.value().solve(b).rows());
    }
  });
}

// Both sides of DescriptorSystem::ordering()'s rule: the RC mesh (symmetric
// pencil, AMD) and the RLC connectors (RCM; the default 18 pins × 6
// sections and 32 × 12, where AMD fills far more), each under RCM, under
// AMD and under the selected ordering, plus the cost of each ordering
// itself per mesh size.
std::vector<bench::TimingRecord> run_ordering_records() {
  std::vector<bench::TimingRecord> records;
  const auto pattern = [](const DescriptorSystem& sys) {
    return sparse::combine(1.0, sys.e(), 1.0, sys.a());
  };
  const auto mesh = [](la::index k) {
    circuit::RcMeshParams mp;
    mp.rows = k;
    mp.cols = k;
    mp.num_ports = 1;
    return circuit::make_rc_mesh(mp);
  };

  circuit::ConnectorParams wide;
  wide.pins = 32;
  wide.sections = 12;
  const std::vector<std::pair<std::string, DescriptorSystem>> systems{
      {"mesh40", mesh(40)},
      {"connector", circuit::make_connector()},
      {"connector32x12", circuit::make_connector(wide)}};
  for (const auto& [name, sys] : systems) {
    const auto rcm = sparse::rcm_ordering(pattern(sys));
    const double rcm_secs = refactor_solve_seconds(sys, rcm);
    const double amd_secs = refactor_solve_seconds(sys, sparse::amd_ordering(pattern(sys)));
    const double selected_secs = refactor_solve_seconds(sys, sys.ordering());
    records.push_back({"refactor_solve_" + name + "_rcm", rcm_secs, sys.n(), 20, 1});
    records.push_back({"refactor_solve_" + name + "_amd", amd_secs, sys.n(), 20, 1});
    records.push_back({"refactor_solve_" + name + "_selected", selected_secs, sys.n(), 20, 1});
    bench::note("20-shift refactor+solve " + name + " n=" + std::to_string(sys.n()) +
                ": rcm=" + std::to_string(rcm_secs) + " s, amd=" + std::to_string(amd_secs) +
                " s, selected (" + (sys.ordering() == rcm ? "rcm" : "amd") +
                ")=" + std::to_string(selected_secs) + " s");
  }
  // The RC mesh's pencil is symmetric: its LDLᵀ under AMD, analysis
  // included, one shift at a time and in lane groups, at the benchmark's
  // 40×40 and at 100×100.
  const auto ldlt_records = [&](const std::string& name, const DescriptorSystem& sys) {
    const double ldlt_secs = ldlt_solve_seconds(sys, sys.ordering());
    const double lanes_secs = ldlt_lanes_solve_seconds(sys, sys.ordering());
    records.push_back({"refactor_solve_" + name + "_ldlt", ldlt_secs, sys.n(), 20, 1});
    records.push_back({"refactor_solve_" + name + "_ldlt_lanes", lanes_secs, sys.n(), 20, 1});
    bench::note("20-shift LDLT analysis+factor+solve " + name + " n=" + std::to_string(sys.n()) +
                ": one shift at a time " + std::to_string(ldlt_secs) + " s, lane groups " +
                std::to_string(lanes_secs) + " s (" + std::to_string(ldlt_secs / lanes_secs) +
                "x)");
  };
  ldlt_records("mesh40", systems.front().second);
  ldlt_records("mesh100", mesh(100));

  for (const la::index k : {14, 40, 100}) {
    const sparse::CsrD p = pattern(mesh(k));
    const std::string size = std::to_string(k) + "x" + std::to_string(k);
    const double rcm_secs = bench::best_seconds(20, [&] {
      benchmark::DoNotOptimize(sparse::rcm_ordering(p).data());
    });
    const double amd_secs = bench::best_seconds(20, [&] {
      benchmark::DoNotOptimize(sparse::amd_ordering(p).data());
    });
    records.push_back({"ordering_rcm_" + size, rcm_secs, p.rows(), 0, 1});
    records.push_back({"ordering_amd_" + size, amd_secs, p.rows(), 0, 1});
    bench::note("ordering " + size + " mesh: rcm=" + std::to_string(rcm_secs * 1e3) +
                " ms, amd=" + std::to_string(amd_secs * 1e3) + " ms");
  }
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  pmtbr::bench::banner("cost_scaling",
                       "TBR/PRIMA/PMTBR wall-clock scaling + thread sweep + symbolic reuse "
                       "+ fill-reducing orderings");
  auto records = run_parallel_sweep();
  for (auto& r : run_adaptive_record(20, "pmtbr_adaptive_mesh20x2")) records.push_back(std::move(r));
  for (auto& r : run_adaptive_record(80, "pmtbr_adaptive_mesh20x2_stream80"))
    records.push_back(std::move(r));
  for (auto& r : run_ordering_records()) records.push_back(std::move(r));
  const std::string json = pmtbr::bench::write_timing_json("cost_scaling", records);
  if (!json.empty()) pmtbr::bench::note("timing JSON: " + json);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  pmtbr::bench::write_run_manifest("cost_scaling");
  return 0;
}
