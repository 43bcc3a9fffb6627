// Benchmark harness entry point.
//
//   pmtbr_perfbench --workload <mesh_adaptive|mesh_solve|serve_mix>
//                   --seed <n> --seconds <s> --trace <0|1>
//   pmtbr_perfbench --selftest
//
// Prints progress lines, then as its last line one JSON object with the
// run's end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).
// Exits 1 when a correctness check fails, 2 on bad arguments.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Spec = Report::Spec;

const std::vector<Spec> kEndToEnd = {
    {"setup_s", "s"},          {"latency_s_p50", "s"}, {"latency_s_tail", "s"},
    {"throughput_per_s", "1/s"}, {"cpu_s_per_op", "s"},  {"peak_rss_mb", "MiB"},
    {"model_rel_err", "ratio"},
};

const std::vector<Spec> kPerLayer = {
    {"circuit.prepare_s", "s"},
    {"circuit.solve_s", "s"},
    {"circuit.solve_cpu_s", "s"},
    {"circuit.solve_share", "ratio"},
    {"sparse.full_factors", "count"},
    {"sparse.refactors", "count"},
    {"sparse.refactor_rejects", "count"},
    {"sparse.factor_cache.hit_ratio", "ratio"},
    {"la.realify_thread_s", "s"},
    {"la.svd_calls", "count"},
    {"la.svd_sweeps", "count"},
    {"la.svd_flops", "flop"},
    {"la.gemm_flops", "flop"},
    {"la.qr_flops", "flop"},
    {"la.tsqr_factorizations", "count"},
    {"mor.compressor.add_s", "s"},
    {"mor.compressor.add_cpu_s", "s"},
    {"mor.compressor.rank", "count"},
    {"mor.compressor.columns", "count"},
    {"mor.compressor.kept", "count"},
    {"mor.compressor.dropped", "count"},
    {"mor.order.order_for_tolerance_s", "s"},
    {"mor.order.order_for_tolerance_cpu_s", "s"},
    {"mor.order.calls", "count"},
    {"mor.compressor.basis_s", "s"},
    {"mor.compressor.singular_values_s", "s"},
    {"mor.project_s", "s"},
    {"mor.replay_s", "s"},
    {"mor.replay_cpu_s", "s"},
    {"mor.unattributed_s", "s"},
    {"mor.order_svd_share", "ratio"},
    {"util.pool.inline_for", "count"},
    {"serve.submit_s_p50", "s"},
    {"serve.queue_s_p50", "s"},
    {"serve.run_s_p50", "s"},
    {"serve.handoff_s_p50", "s"},
    {"serve.overhead_s_p50", "s"},
    {"serve.latency_s_p50.fresh", "s"},
    {"serve.latency_s_p50.reorder", "s"},
    {"serve.latency_s_p50.repeat", "s"},
    {"serve.model_cache.hit_ratio", "ratio"},
    {"trace.overhead_s", "s"},
    {"error_rate", "ratio"},
};

int usage() {
  std::cerr << "usage: pmtbr_perfbench --workload <mesh_adaptive|mesh_solve|serve_mix> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       pmtbr_perfbench --selftest\n";
  return 2;
}

// Input checks over several seeds, plus: different seeds give different
// inputs.
int selftest() {
  Report rep;
  for (const std::uint64_t seed : {1, 2, 3}) {
    check_mesh_inputs(true, seed, rep);
    check_mesh_inputs(false, seed, rep);
    check_serve_inputs(seed, rep);
  }
  for (const bool adaptive : {true, false}) {
    const MeshWorkload w = mesh_workload(adaptive);
    if (build_system(mesh_request(w, 1, 0)).content_fingerprint() ==
        build_system(mesh_request(w, 2, 0)).content_fingerprint())
      rep.violation(std::string(w.name) + ": seeds 1 and 2 give the same first request");
  }
  if (serve_stream(1, 0, 100) == serve_stream(2, 0, 100))
    rep.violation("serve_mix: seeds 1 and 2 give the same job stream");
  for (const auto& v : rep.violations()) std::cerr << "selftest: " << v << "\n";
  std::cout << (rep.correct() ? "selftest passed\n" : "selftest FAILED\n");
  return rep.correct() ? 0 : 1;
}

int run(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(val);
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(val);
    } else if (arg == "--trace") {
      cfg.trace = val == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload || cfg.seconds <= 0) return usage();
  pin_to_cpus(kThreads);

  Report rep;
  if (cfg.workload == "mesh_adaptive" || cfg.workload == "mesh_solve") {
    run_mesh(cfg, cfg.workload == "mesh_adaptive", rep);
  } else if (cfg.workload == "serve_mix") {
    run_serve_mix(cfg, rep);
  } else {
    return usage();
  }
  rep.set("error_rate",
          static_cast<double>(rep.failed) / static_cast<double>(std::max<std::int64_t>(rep.attempted, 1)),
          "ratio");
  rep.restrict_to(cfg.trace ? kPerLayer : kEndToEnd);

  const auto& v = rep.violations();
  for (std::size_t i = 0; i < v.size() && i < 20; ++i) std::cerr << "check failed: " << v[i] << "\n";
  if (v.size() > 20) std::cerr << "... and " << v.size() - 20 << " more failed checks\n";
  std::cout << rep.json_line() << std::endl;
  return rep.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pmtbr_perfbench: " << e.what() << "\n";
    return 1;
  }
}
