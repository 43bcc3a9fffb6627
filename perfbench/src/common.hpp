// Shared plumbing for the benchmark harness: clocks, process resource usage,
// percentiles, library counter deltas and the metric report whose JSON form
// is the run's last line of output.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/obs/counters.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds consumed by every thread of this process (user + system).
double process_cpu_seconds();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Restricts this process, and every thread it starts afterwards, to the
/// `count` highest-numbered CPUs it may run on; leaves the affinity as it is
/// when it cannot be read or set.
void pin_to_cpus(int count);

/// Linearly interpolated percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// The highest of p99, p90, p75 and p50 that has at least ten samples
/// beyond it (p50 when the sample is smaller than that).
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  std::int64_t beyond = 0;
};
Tail tail_latency(const std::vector<double>& v);

/// Wall and process-CPU time spent inside one layer's calls.
struct Layer {
  double wall = 0.0;
  double cpu = 0.0;
  std::int64_t calls = 0;
};

/// Times one call into a layer. The benchmark drives one request at a time,
/// so the process CPU delta is the call's thread time summed over workers.
template <typename F>
decltype(auto) timed(Layer& layer, F&& fn) {
  struct Scope {
    Layer& l;
    Clock::time_point t0 = Clock::now();
    double c0 = process_cpu_seconds();
    ~Scope() {
      l.cpu += process_cpu_seconds() - c0;
      l.wall += seconds_between(t0, Clock::now());
      ++l.calls;
    }
  } scope{layer};
  return fn();
}

/// Snapshot of the library's process-wide counters; `since` gives deltas.
struct Counters {
  std::array<std::int64_t, pmtbr::obs::kNumCounters> v{};
  static Counters now();
  Counters since(const Counters& earlier) const;
  Counters& operator+=(const Counters& d);
  double operator[](pmtbr::obs::Counter c) const {
    return static_cast<double>(v[static_cast<std::size_t>(c)]);
  }
};

class Report;

/// Per-request sparse, compressor, dense-kernel and pool counts from the
/// counter deltas `d` accumulated over `requests` requests.
void report_counters(Report& rep, const Counters& d, double requests);

/// Metrics of one run plus the outcome of its correctness checks.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Records a failed check; the run then reports correct=false and exits 1.
  void violation(const std::string& what);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;  // failed, rejected or wrong requests

  bool correct() const { return violations_.empty() && failed == 0; }
  const std::vector<std::string>& violations() const { return violations_; }

  /// Keeps exactly the metrics of `keep`, in its order: a name the workload
  /// did not measure (a serve metric on a mesh workload, say) reads 0.
  struct Spec {
    const char* name;
    const char* unit;
  };
  void restrict_to(const std::vector<Spec>& keep);

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string json_line() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> violations_;
};

}  // namespace perfbench
