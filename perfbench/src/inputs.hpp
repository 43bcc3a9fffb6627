// Seeded inputs for the three workloads.
//
// The harness owns its generator (splitmix64) and builds its RC netlists
// itself, so the inputs for a seed stay the same when the library's Rng or
// circuit generators change. Every element value is perturbed by up to ±1%
// from a per-request seed; a system is always *regenerated* from its spec,
// never copied, because copies of a DescriptorSystem share the symbolic
// analysis and content fingerprint that the caches key on.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/descriptor.hpp"
#include "mor/pmtbr.hpp"
#include "serve/job.hpp"

namespace perfbench {

using pmtbr::la::index;

/// splitmix64 stream.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                                  // [0, 1)
  index uniform_int(index lo, index hi);             // [lo, hi]
  double jitter(double rel) { return 1.0 + rel * (2.0 * uniform() - 1.0); }

 private:
  std::uint64_t state_;
};

/// Independent seed for (run seed, stream, item).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t item);

enum class Topology { kMesh, kLine };

/// An RC network: a rows×cols mesh with `ports` ports, or an RC line of
/// `rows` segments with one port. `value_seed` draws the ±1% perturbations.
struct SystemSpec {
  Topology topology = Topology::kMesh;
  index rows = 0;
  index cols = 0;
  index ports = 1;
  std::uint64_t value_seed = 0;

  friend bool operator==(const SystemSpec&, const SystemSpec&) = default;
};

pmtbr::DescriptorSystem build_system(const SystemSpec& spec);

// --- mesh_adaptive / mesh_solve ---------------------------------------------

struct MeshWorkload {
  const char* name;
  index side;
  index ports;
  index requests;  // distinct requests per run
  pmtbr::mor::PmtbrOptions options;
  std::vector<double> check_hz;  // in-band frequencies for model_rel_err
};

/// mesh_adaptive: 20×20 mesh, 2 ports, 20 samples, adaptive order control.
/// mesh_solve: 40×40 mesh, 1 port, 16 samples, fixed order 10.
MeshWorkload mesh_workload(bool adaptive);

/// Request `i` of a run (i < 0 for warm-up requests, which never collide
/// with measured ones).
SystemSpec mesh_request(const MeshWorkload& w, std::uint64_t seed, std::int64_t i);

// --- serve_mix ----------------------------------------------------------------

enum class JobClass { kFresh, kReorder, kRepeat };
const char* job_class_name(JobClass c);

struct JobSpec {
  JobClass cls = JobClass::kFresh;
  SystemSpec system;
  pmtbr::serve::Method method = pmtbr::serve::Method::kPmtbr;
  index num_samples = 0;
  index order = 0;
  /// Index of the first job in the stream with an identical spec: the job
  /// whose fresh result every later copy must reproduce bit for bit.
  index key = 0;
  /// Index of the job this one was derived from (itself when fresh).
  index source = 0;

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

/// Jobs of one closed-loop pass: half fresh systems, a quarter recent
/// systems regenerated with a different order, a quarter exact
/// resubmissions of recent jobs; one fresh job in five adaptive.
std::vector<JobSpec> serve_stream(std::uint64_t seed, std::uint64_t pass, index count);

/// In-band frequencies at which serve_mix results are checked.
std::vector<double> serve_check_hz();

/// Options the job's reduction runs with (shared with the direct call).
pmtbr::mor::PmtbrOptions job_options(const JobSpec& spec);
pmtbr::mor::AdaptiveOptions job_adaptive(const JobSpec& spec);

/// A service request with a freshly regenerated system.
pmtbr::serve::JobRequest build_job(const JobSpec& spec);

/// The same reduction as a direct library call on a regenerated system.
pmtbr::mor::PmtbrResult run_direct(const JobSpec& spec);

/// Bit-pattern digest of everything a reduction returns.
pmtbr::util::Fingerprint result_digest(const pmtbr::mor::PmtbrResult& r);

}  // namespace perfbench
