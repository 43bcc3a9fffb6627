// Per-run manifest: one machine-readable JSON blob capturing everything
// needed to compare two runs of the same workload across commits — build
// identity (git describe), thread configuration, the process' resource
// usage so far (getrusage, VmHWM), every observability counter, and the
// aggregated trace-scope timings.
//
// Schema "pmtbr-manifest/1" (see docs/OBSERVABILITY.md):
// {
//   "schema": "pmtbr-manifest/1",
//   "run": "<name>",
//   "git_describe": "<git describe --always --dirty | unknown>",
//   "build_type": "<CMAKE_BUILD_TYPE | unknown>",
//   "threads": <resolved pool parallelism>,
//   "env": {"PMTBR_NUM_THREADS": "<raw|unset>", "PMTBR_TRACE": "<raw|unset>"},
//   "trace_enabled": true|false,
//   "process": {"user_cpu_s": <float>, "sys_cpu_s": <float>,
//               "minor_faults": <int>, "max_rss_mb": <float|null>},
//   "extra": { ...caller-supplied key -> JSON fragment... },
//   "counters": {"<counter>": <int>, ...},
//   "trace": [{"path": "...", "count": <int>, "seconds": <float>}, ...]
// }
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace pmtbr::obs {

/// Caller-supplied manifest fields: key plus a pre-serialized JSON value
/// ("42", "\"tag\"", "[1,2]"). Use json_double()/json_escape() to build.
using ManifestExtras = std::vector<std::pair<std::string, std::string>>;

/// Serializes the manifest for run `name` to a string.
std::string manifest_json(const std::string& name, const ManifestExtras& extra = {});

/// Writes manifest_json() to `path`. Returns true on success; failure to
/// write a diagnostic artifact is never fatal to the run.
bool write_manifest(const std::string& path, const std::string& name,
                    const ManifestExtras& extra = {});

}  // namespace pmtbr::obs
