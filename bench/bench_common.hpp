// Shared plumbing for the figure-regeneration benches: banner, CSV output
// mirrored to bench/out/, and small formatting helpers.
//
// Every bench binary prints the series of one paper figure as CSV rows so
// EXPERIMENTS.md can quote them directly.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "util/csv.hpp"
#include "util/obs/json.hpp"
#include "util/obs/manifest.hpp"
#include "util/timer.hpp"

namespace pmtbr::bench {

/// Creates bench/out (relative to the current working directory) and
/// returns the CSV path for this bench, or "" if the directory cannot be
/// created (output then goes to stdout only).
inline std::string out_path(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  if (ec) return {};
  return "bench_out/" + name + ".csv";
}

inline void banner(const std::string& experiment, const std::string& description) {
  std::cout << "# ================================================================\n"
            << "# " << experiment << "\n"
            << "# " << description << "\n"
            << "# ================================================================\n";
}

inline void note(const std::string& text) { std::cout << "# " << text << "\n"; }

/// Best-of-`reps` wall time of `fn` after one untimed warmup run.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Started before main(), so the run's wall time spans what its CPU time
/// spans.
inline const WallTimer run_timer;

/// CPU seconds this process has used so far, user plus system, summed over
/// its threads (getrusage, as the run manifest reads it).
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

/// One machine-readable timing measurement. `label` distinguishes runs of
/// the same bench (e.g. "pmtbr_threads=4"); `n` is the state count and
/// `samples` the number of frequency samples (0 when not applicable).
struct TimingRecord {
  std::string label;
  double wall_seconds = 0.0;
  long n = 0;
  long samples = 0;
  int threads = 1;
  double gflops = 0.0;  // achieved GFLOP/s, 0 when the record has no flop count
};

/// Writes bench_out/BENCH_<name>.json with the given records and the run's
/// process CPU seconds and utilization (CPU seconds per wall second so far),
/// so CI and scripts can diff timings without parsing human-oriented
/// stdout. `extra` writes the bench's own top-level keys after those.
/// Returns the path written, or "" on failure (the bench still ran; only
/// the artifact is missing). Serialization goes through obs::JsonWriter —
/// the same locale-independent, escaped emitter the run manifest uses.
inline std::string write_timing_json(const std::string& name,
                                     const std::vector<TimingRecord>& records,
                                     const std::function<void(obs::JsonWriter&)>& extra = {}) {
  const double wall = run_timer.seconds();
  const double cpu = process_cpu_seconds();
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  if (ec) return {};
  const std::string path = "bench_out/BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) return {};
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("bench");
  w.value(name);
  w.key("records");
  w.begin_array();
  for (const auto& r : records) {
    w.begin_object();
    w.key("label");
    w.value(r.label);
    w.key("wall_seconds");
    w.value(r.wall_seconds);
    w.key("n");
    w.value(static_cast<std::int64_t>(r.n));
    w.key("samples");
    w.value(static_cast<std::int64_t>(r.samples));
    w.key("threads");
    w.value(static_cast<std::int64_t>(r.threads));
    w.key("gflops");
    w.value(r.gflops);
    w.end_object();
  }
  w.end_array();
  w.key("process_cpu_seconds");
  w.value(cpu);
  w.key("utilization");
  w.value(wall > 0 ? cpu / wall : 0.0);
  if (extra) extra(w);
  w.end_object();
  w.done();
  return path;
}

/// Writes bench_out/MANIFEST_<name>.json — the per-run observability
/// manifest (counters, trace timings, build identity) every bench emits
/// next to its CSV. Returns the path, or "" on failure.
inline std::string write_run_manifest(const std::string& name,
                                      const obs::ManifestExtras& extra = {}) {
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  if (ec) return {};
  const std::string path = "bench_out/MANIFEST_" + name + ".json";
  if (!obs::write_manifest(path, name, extra)) return {};
  std::cout << "# manifest: " << path << "\n";
  return path;
}

}  // namespace pmtbr::bench
