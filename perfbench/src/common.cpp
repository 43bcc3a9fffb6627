#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void pin_to_cpus(int count) {
  cpu_set_t have, keep;
  CPU_ZERO(&keep);
  if (sched_getaffinity(0, sizeof(have), &have) != 0) return;
  int kept = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && kept < count; --cpu) {
    if (CPU_ISSET(cpu, &have)) {
      CPU_SET(cpu, &keep);
      ++kept;
    }
  }
  if (kept > 0) sched_setaffinity(0, sizeof(keep), &keep);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

Tail tail_latency(const std::vector<double>& v) {
  const auto n = static_cast<double>(v.size());
  for (const double p : {0.99, 0.90, 0.75}) {
    const auto beyond = static_cast<std::int64_t>(std::floor(n * (1.0 - p) + 1e-9));
    if (beyond >= 10) return {percentile(v, p), p, beyond};
  }
  return {percentile(v, 0.5), 0.5, static_cast<std::int64_t>(std::floor(n * 0.5))};
}

Counters Counters::now() {
  Counters c;
  for (int i = 0; i < pmtbr::obs::kNumCounters; ++i)
    c.v[static_cast<std::size_t>(i)] = pmtbr::obs::counter_value(static_cast<pmtbr::obs::Counter>(i));
  return c;
}

Counters Counters::since(const Counters& earlier) const {
  Counters d;
  for (std::size_t i = 0; i < v.size(); ++i) d.v[i] = v[i] - earlier.v[i];
  return d;
}

Counters& Counters::operator+=(const Counters& d) {
  for (std::size_t i = 0; i < v.size(); ++i) v[i] += d.v[i];
  return *this;
}

void report_counters(Report& rep, const Counters& d, double requests) {
  using pmtbr::obs::Counter;
  const double n = std::max(requests, 1.0);
  const auto per = [&](const char* name, Counter c, const char* unit) {
    rep.set(name, d[c] / n, unit);
  };
  per("sparse.full_factors", Counter::kSparseLuFullFactor, "count");
  per("sparse.refactors", Counter::kSparseLuRefactor, "count");
  per("sparse.refactor_rejects", Counter::kSparseLuRefactorReject, "count");
  const double lookups = d[Counter::kFactorCacheHit] + d[Counter::kFactorCacheMiss];
  rep.set("sparse.factor_cache.hit_ratio",
          lookups > 0 ? d[Counter::kFactorCacheHit] / lookups : 0.0, "ratio");
  per("mor.compressor.kept", Counter::kCompressorColumnsKept, "count");
  per("mor.compressor.dropped", Counter::kCompressorColumnsDropped, "count");
  per("la.svd_calls", Counter::kSvdCalls, "count");
  per("la.svd_sweeps", Counter::kSvdSweeps, "count");
  per("la.svd_flops", Counter::kSvdFlops, "flop");
  per("la.gemm_flops", Counter::kGemmFlops, "flop");
  per("la.qr_flops", Counter::kQrFlops, "flop");
  per("la.tsqr_factorizations", Counter::kTsqrFactorizations, "count");
  per("util.pool.inline_for", Counter::kPoolInlineFor, "count");
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::violation(const std::string& what) { violations_.push_back(what); }

void Report::restrict_to(const std::vector<Spec>& keep) {
  std::vector<Metric> out;
  out.reserve(keep.size());
  for (const Spec& s : keep) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Metric& m) { return m.name == s.name; });
    out.push_back({s.name, it != metrics_.end() ? it->value : 0.0, s.unit});
  }
  metrics_ = std::move(out);
}

namespace {

// Shortest round-trip decimal form, so every measured digit survives.
std::string number(double x) {
  if (!std::isfinite(x)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Report::json_line() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + number(m.value) + ", \"unit\": " + quoted(m.unit) +
           "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
