// The three benchmark workloads. Each fills a Report with its end-to-end
// metrics (untraced run) or its per-layer metrics (traced run) and records
// every failed correctness check in it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Pool size, serve runners and jobs outstanding. The run is pinned to one
/// CPU as well: on a shared host, threads that wait on each other's CPUs
/// time the neighbours rather than the library.
inline constexpr int kThreads = 1;

/// Set-up repetitions per run, spread over it; setup_s is their median.
inline constexpr std::size_t kSetupReps = 7;

/// Rounds per run at the least, however short --seconds is.
inline constexpr int kMinRounds = 2;

void run_mesh(const RunConfig& cfg, bool adaptive, Report& rep);
void run_serve_mix(const RunConfig& cfg, Report& rep);

/// Input checks: one seed always yields the same request stream and system
/// fingerprints, and no two fresh requests share a fingerprint.
void check_mesh_inputs(bool adaptive, std::uint64_t seed, Report& rep);
void check_serve_inputs(std::uint64_t seed, Report& rep);

}  // namespace perfbench
