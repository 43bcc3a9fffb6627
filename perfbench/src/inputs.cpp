#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <tuple>

#include "circuit/netlist.hpp"

namespace perfbench {

namespace mor = pmtbr::mor;
namespace serve = pmtbr::serve;

std::uint64_t SplitMix64::next() { return pmtbr::util::fingerprint_mix(state_++); }

double SplitMix64::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

index SplitMix64::uniform_int(index lo, index hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<index>(next() % span);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t item) {
  using pmtbr::util::fingerprint_mix;
  return fingerprint_mix(fingerprint_mix(fingerprint_mix(seed) ^ stream) ^ item);
}

namespace {

constexpr double kRel = 0.01;  // element values vary by up to ±1%

// Same topology and nominal values as circuit::make_rc_mesh.
pmtbr::DescriptorSystem build_mesh(const SystemSpec& s, SplitMix64& rng) {
  constexpr double kR = 100.0, kC = 1e-13, kRGround = 2000.0;
  pmtbr::circuit::Netlist nl;
  const index n = s.rows * s.cols;
  nl.ensure_node(n);
  const auto id = [&](index r, index c) { return 1 + r * s.cols + c; };
  for (index r = 0; r < s.rows; ++r) {
    for (index c = 0; c < s.cols; ++c) {
      nl.add_capacitor(id(r, c), 0, kC * rng.jitter(kRel));
      nl.add_resistor(id(r, c), 0, kRGround * rng.jitter(kRel));
      if (c + 1 < s.cols) nl.add_resistor(id(r, c), id(r, c + 1), kR * rng.jitter(kRel));
      if (r + 1 < s.rows) nl.add_resistor(id(r, c), id(r + 1, c), kR * rng.jitter(kRel));
    }
  }
  for (index k = 0; k < s.ports; ++k) nl.add_port(1 + (k * n) / s.ports);
  return pmtbr::circuit::assemble_mna(nl);
}

// Same topology and nominal values as circuit::make_rc_line (near-end port).
pmtbr::DescriptorSystem build_line(const SystemSpec& s, SplitMix64& rng) {
  constexpr double kR = 10.0, kC = 1e-13;
  pmtbr::circuit::Netlist nl;
  index prev = nl.add_node();
  nl.add_port(prev);
  nl.add_capacitor(prev, 0, kC * rng.jitter(kRel));
  for (index k = 0; k < s.rows; ++k) {
    const index next = nl.add_node();
    nl.add_resistor(prev, next, kR * rng.jitter(kRel));
    nl.add_capacitor(next, 0, kC * rng.jitter(kRel));
    prev = next;
  }
  nl.add_resistor(prev, 0, 1e6 * kR * rng.jitter(kRel));
  return pmtbr::circuit::assemble_mna(nl);
}

std::vector<double> logspace(double lo, double hi, int count) {
  std::vector<double> out;
  for (int k = 0; k < count; ++k)
    out.push_back(lo * std::pow(hi / lo, static_cast<double>(k) / (count - 1)));
  return out;
}

constexpr mor::Band kServeBand{1e6, 1e10};

}  // namespace

pmtbr::DescriptorSystem build_system(const SystemSpec& spec) {
  SplitMix64 rng(spec.value_seed);
  return spec.topology == Topology::kMesh ? build_mesh(spec, rng) : build_line(spec, rng);
}

MeshWorkload mesh_workload(bool adaptive) {
  MeshWorkload w{adaptive ? "mesh_adaptive" : "mesh_solve", adaptive ? 20 : 40,
                 adaptive ? 2 : 1, adaptive ? 6 : 4, {}, logspace(1e6, 5e10, 8)};
  w.options.bands = {mor::Band{1e5, 1e11}};
  w.options.num_samples = adaptive ? 20 : 16;
  if (adaptive) {
    w.options.adaptive_excess = 2.0;
    w.options.truncation_tol = 1e-6;
  } else {
    w.options.fixed_order = 10;
  }
  return w;
}

SystemSpec mesh_request(const MeshWorkload& w, std::uint64_t seed, std::int64_t i) {
  const std::uint64_t stream = w.ports == 2 ? 1 : 2;
  return {Topology::kMesh, w.side, w.side, w.ports,
          derive_seed(seed, stream, static_cast<std::uint64_t>(i))};
}

const char* job_class_name(JobClass c) {
  switch (c) {
    case JobClass::kFresh: return "fresh";
    case JobClass::kReorder: return "reorder";
    case JobClass::kRepeat: return "repeat";
  }
  return "unknown";
}

std::vector<JobSpec> serve_stream(std::uint64_t seed, std::uint64_t pass, index count) {
  constexpr std::size_t kRecent = 8;  // how far back repeats reach
  constexpr index kMinOrder = 8, kMaxOrder = 16;
  // Every block of 20 jobs holds exactly 10 fresh, 5 reorder and 5 repeat
  // jobs. Its fresh jobs are the ten shapes below: lines of 30–90 segments
  // and 2-port meshes of 8×8 to 14×14 nodes, 12–32 samples, one line and one
  // mesh adaptive. Its reorder jobs regenerate the latest fresh job of each
  // of five fixed shapes. Only the order within a block, the reduced orders
  // and which recent jobs are repeated (a model-cache hit costs about the
  // same whatever it returns) are drawn, so the cost of a stream barely
  // depends on the seed.
  struct Shape {
    Topology topology;
    index rows, cols, samples;
    serve::Method method;
  };
  using M = serve::Method;
  constexpr Topology L = Topology::kLine, G = Topology::kMesh;
  constexpr Shape kShapes[] = {
      {L, 30, 0, 12, M::kPmtbr},  {L, 45, 0, 27, M::kPmtbr},  {L, 60, 0, 22, M::kPmtbrAdaptive},
      {L, 75, 0, 17, M::kPmtbr},  {L, 90, 0, 32, M::kPmtbr},  {G, 8, 8, 32, M::kPmtbr},
      {G, 9, 11, 17, M::kPmtbr},  {G, 11, 11, 22, M::kPmtbrAdaptive},
      {G, 12, 13, 27, M::kPmtbr}, {G, 14, 14, 12, M::kPmtbr},
  };
  constexpr std::size_t kShapeCount = std::size(kShapes);
  constexpr std::size_t kReorderShapes[] = {1, 3, 5, 7, 9};
  constexpr std::size_t kBlock = 20;
  SplitMix64 rng(derive_seed(seed, 3, pass));
  const auto shuffled = [&rng](auto v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform_int(0, static_cast<index>(i) - 1))]);
    return v;
  };
  using C = JobClass;
  std::vector<JobClass> classes;
  std::vector<std::size_t> shapes, reorders;  // kShapes indices, per block
  std::size_t fresh_in_block = 0, reorder_in_block = 0;
  std::vector<index> latest_of_shape(kShapeCount, -1);
  index latest_fresh = 0;

  std::vector<JobSpec> out;
  out.reserve(static_cast<std::size_t>(count));
  std::vector<index> recent_computed;
  std::map<std::tuple<std::uint64_t, int, index, index>, index> first_by_spec;
  std::map<std::uint64_t, std::vector<index>> orders_used;  // per system


  for (index j = 0; j < count; ++j) {
    const auto slot = static_cast<std::size_t>(j) % kBlock;
    if (slot == 0) {
      std::vector<C> c(kBlock, C::kRepeat);
      std::fill_n(c.begin(), 10, C::kFresh);
      std::fill_n(c.begin() + 10, 5, C::kReorder);
      classes = shuffled(std::move(c));
      if (j == 0)  // nothing to reorder or repeat yet
        std::iter_swap(classes.begin(), std::find(classes.begin(), classes.end(), C::kFresh));
      std::vector<std::size_t> all(kShapeCount);
      for (std::size_t k = 0; k < kShapeCount; ++k) all[k] = k;
      shapes = shuffled(std::move(all));
      reorders = shuffled(std::vector<std::size_t>(std::begin(kReorderShapes),
                                                   std::end(kReorderShapes)));
      fresh_in_block = reorder_in_block = 0;
    }
    JobSpec s;
    if (classes[slot] == C::kFresh) {
      const std::size_t k = shapes[fresh_in_block++];
      const Shape& shape = kShapes[k];
      latest_of_shape[k] = latest_fresh = j;
      s.cls = C::kFresh;
      s.system = {shape.topology, shape.rows, shape.cols, shape.topology == L ? 1 : 2,
                  derive_seed(seed, 4, pass << 32 | static_cast<std::uint64_t>(j))};
      s.method = shape.method;
      s.num_samples = shape.samples;
      s.order = rng.uniform_int(kMinOrder, kMaxOrder);
      s.source = j;
    } else if (classes[slot] == C::kReorder) {
      // Early in the stream a shape may have no fresh job yet.
      const index latest = latest_of_shape[reorders[reorder_in_block++]];
      const index src = latest >= 0 ? latest : latest_fresh;
      s = out[static_cast<std::size_t>(src)];
      s.cls = C::kReorder;
      s.source = src;
      // A new order for this system, so the model cache misses while the
      // factor cache still holds the system's factors at these shifts.
      auto& used = orders_used[s.system.value_seed];
      if (static_cast<index>(used.size()) < kMaxOrder - kMinOrder + 1) {
        do {
          s.order = rng.uniform_int(kMinOrder, kMaxOrder);
        } while (std::find(used.begin(), used.end(), s.order) != used.end());
      } else {
        s.cls = C::kRepeat;  // every order taken: resubmit instead
      }
    } else {
      const index src = recent_computed[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<index>(recent_computed.size()) - 1))];
      s = out[static_cast<std::size_t>(src)];
      s.cls = C::kRepeat;
      s.source = src;
    }
    const auto spec_key = std::make_tuple(s.system.value_seed, static_cast<int>(s.method),
                                          s.num_samples, s.order);
    s.key = first_by_spec.try_emplace(spec_key, j).first->second;
    if (s.cls != C::kRepeat) {
      recent_computed.push_back(j);
      if (recent_computed.size() > kRecent) recent_computed.erase(recent_computed.begin());
      orders_used[s.system.value_seed].push_back(s.order);
    }
    out.push_back(s);
  }
  return out;
}

std::vector<double> serve_check_hz() { return logspace(3e6, 5e9, 6); }

mor::PmtbrOptions job_options(const JobSpec& spec) {
  mor::PmtbrOptions o;
  o.bands = {kServeBand};
  o.num_samples = spec.num_samples;
  o.fixed_order = spec.order;
  return o;
}

mor::AdaptiveOptions job_adaptive(const JobSpec& spec) {
  mor::AdaptiveOptions a;
  a.band = kServeBand;
  a.initial_samples = 4;
  a.max_samples = spec.num_samples;
  return a;
}

serve::JobRequest build_job(const JobSpec& spec) {
  serve::JobRequest req;
  req.name = job_class_name(spec.cls);
  req.system = build_system(spec.system);
  req.method = spec.method;
  req.options = job_options(spec);
  req.adaptive = job_adaptive(spec);
  return req;
}

mor::PmtbrResult run_direct(const JobSpec& spec) {
  const pmtbr::DescriptorSystem sys = build_system(spec.system);
  return spec.method == serve::Method::kPmtbrAdaptive
             ? mor::pmtbr_adaptive(sys, job_adaptive(spec), job_options(spec))
             : mor::pmtbr(sys, job_options(spec));
}

pmtbr::util::Fingerprint result_digest(const mor::PmtbrResult& r) {
  pmtbr::util::FingerprintHasher h;
  const auto mat = [&h](const pmtbr::la::MatD& m) {
    h.mix_i64(m.rows());
    h.mix_i64(m.cols());
    h.mix_doubles(m.data(), m.size());
  };
  const auto& sys = r.model.system;
  mat(sys.e());
  mat(sys.a());
  mat(sys.b());
  mat(sys.c());
  mat(r.model.v);
  mat(r.model.w);
  h.mix_doubles(r.model.singular_values);
  h.mix_doubles(r.hankel_estimates);
  for (const auto& fs : r.samples_used) {
    h.mix_double(fs.s.real());
    h.mix_double(fs.s.imag());
    h.mix_double(fs.weight);
  }
  return h.digest();
}

}  // namespace perfbench
