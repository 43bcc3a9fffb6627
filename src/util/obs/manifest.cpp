#include "util/obs/manifest.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "util/obs/counters.hpp"
#include "util/obs/json.hpp"
#include "util/obs/trace.hpp"
#include "util/thread_pool.hpp"

#ifndef PMTBR_GIT_DESCRIBE
#define PMTBR_GIT_DESCRIBE "unknown"
#endif
#ifndef PMTBR_BUILD_TYPE
#define PMTBR_BUILD_TYPE "unknown"
#endif

namespace pmtbr::obs {

namespace {

void env_entry(JsonWriter& w, const char* name) {
  w.key(name);
  const char* v = std::getenv(name);
  if (v == nullptr) {
    w.null();
  } else {
    w.value(std::string_view(v));
  }
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

// Peak resident set of this process image in MiB, from VmHWM in
// /proc/self/status; NaN (written as null) where that is unavailable. Not
// ru_maxrss: Linux carries into it the peak of the image replaced at exec,
// so a bench started from a Python launcher would read the launcher's RSS.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return std::nan("");
}

// The process' own resource usage so far: where its system time and page
// faults went, which no trace scope or counter sees.
void process_entry(JsonWriter& w) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  w.key("process");
  w.begin_object();
  w.key("user_cpu_s");
  w.value(seconds(ru.ru_utime));
  w.key("sys_cpu_s");
  w.value(seconds(ru.ru_stime));
  w.key("minor_faults");
  w.value(static_cast<std::int64_t>(ru.ru_minflt));
  w.key("max_rss_mb");
  w.value(peak_rss_mb());
  w.end_object();
}

}  // namespace

std::string manifest_json(const std::string& name, const ManifestExtras& extra) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("schema");
  w.value("pmtbr-manifest/1");
  w.key("run");
  w.value(name);
  w.key("git_describe");
  w.value(PMTBR_GIT_DESCRIBE);
  w.key("build_type");
  w.value(PMTBR_BUILD_TYPE);
  w.key("threads");
  w.value(static_cast<std::int64_t>(util::global_pool().size()));
  w.key("env");
  w.begin_object();
  env_entry(w, "PMTBR_NUM_THREADS");
  env_entry(w, "PMTBR_TRACE");
  w.end_object();
  w.key("trace_enabled");
  w.value(trace_enabled());
  process_entry(w);

  w.key("extra");
  w.begin_object();
  for (const auto& [k, fragment] : extra) {
    w.key(k);
    w.raw(fragment);
  }
  w.end_object();

  w.key("counters");
  w.begin_object();
  for (const auto& [cname, v] : counters_snapshot()) {
    w.key(cname);
    w.value(v);
  }
  w.end_object();

  w.key("trace");
  w.begin_array();
  for (const auto& s : trace_snapshot()) {
    w.begin_object();
    w.key("path");
    w.value(s.path);
    w.key("count");
    w.value(static_cast<std::int64_t>(s.count));
    w.key("seconds");
    w.value(s.seconds);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  w.done();
  return os.str();
}

bool write_manifest(const std::string& path, const std::string& name,
                    const ManifestExtras& extra) {
  std::ofstream out(path);
  if (!out) return false;
  out << manifest_json(name, extra);
  return static_cast<bool>(out);
}

}  // namespace pmtbr::obs
