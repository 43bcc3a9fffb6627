// Kernel-level perf records for the dense layer: GEMM (blocked vs. the
// seed scalar triple loop), the compressor's blocked block path vs. its
// per-column reference mode (on a synthetic 16-column stream and on the
// RC-mesh sample streams of the perfbench workloads), and the compressor's
// fold (la::svd_right vs. la::svd).
//
// All dense-kernel records are single-threaded so the numbers isolate the
// kernel (register tiling, packing, ISA dispatch) from thread scaling,
// which bench_cost_scaling sweeps separately. Output goes to
// bench_out/BENCH_kernels.json (with achieved GFLOP/s where a flop count
// is well-defined) plus the usual run manifest with the gemm_flops /
// gemm_bytes counters; CI's perf-smoke job validates both artifacts.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "circuit/generators.hpp"
#include "la/matrix.hpp"
#include "la/ops.hpp"
#include "la/svd.hpp"
#include "mor/compressor.hpp"
#include "mor/pmtbr.hpp"
#include "mor/sampling.hpp"
#include "util/obs/counters.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace pmtbr;
using la::cd;
using la::index;
using la::MatC;
using la::MatD;

MatD random_mat(Rng& rng, index m, index n) {
  MatD a(m, n);
  for (index i = 0; i < m; ++i)
    for (index j = 0; j < n; ++j) a(i, j) = rng.normal();
  return a;
}

MatC random_cmat(Rng& rng, index m, index n) {
  MatC a(m, n);
  for (index i = 0; i < m; ++i)
    for (index j = 0; j < n; ++j) a(i, j) = cd(rng.normal(), rng.normal());
  return a;
}

// The blocked GEMM records take the best of enough calls (about half a
// second of double GEMM per size on a 4-vCPU VM) that runs of the same
// code agree within a few percent; best of 5, 3 and 2 spread 0.87-1.07x
// over fifteen runs. The scalar reference keeps its few calls: it is
// several times slower and only bounds the blocked records from above.
int blocked_gemm_reps(index n) { return n <= 128 ? 400 : (n <= 256 ? 64 : 16); }

void gemm_records(std::vector<bench::TimingRecord>& records) {
  Rng rng(7);
  for (const index n : {index{128}, index{256}, index{512}}) {
    const int reps = n <= 128 ? 5 : (n <= 256 ? 3 : 2);
    const int blocked_reps = blocked_gemm_reps(n);
    const MatD a = random_mat(rng, n, n);
    const MatD b = random_mat(rng, n, n);
    const double dn = static_cast<double>(n);
    const double flops = 2.0 * dn * dn * dn;
    const double t_ref = bench::best_seconds(reps, [&] { la::matmul_reference(a, b); });
    const double t_blk = bench::best_seconds(blocked_reps, [&] { la::matmul(a, b); });
    records.push_back({"gemm_double_reference_n=" + std::to_string(n), t_ref, n, 0, 1,
                       flops / t_ref / 1e9});
    records.push_back({"gemm_double_blocked_n=" + std::to_string(n), t_blk, n, 0, 1,
                       flops / t_blk / 1e9});
    bench::note("gemm double n=" + std::to_string(n) + ": blocked " +
                std::to_string(flops / t_blk / 1e9) + " GF/s, reference " +
                std::to_string(flops / t_ref / 1e9) + " GF/s (" +
                std::to_string(t_ref / t_blk) + "x)");

    const MatC ac = random_cmat(rng, n, n);
    const MatC bc = random_cmat(rng, n, n);
    const double cflops = 8.0 * dn * dn * dn;  // real flops
    const double tc_ref =
        bench::best_seconds(std::max(1, reps - 1), [&] { la::matmul_reference(ac, bc); });
    const double tc_blk = bench::best_seconds(blocked_reps, [&] { la::matmul(ac, bc); });
    records.push_back({"gemm_complex_reference_n=" + std::to_string(n), tc_ref, n, 0, 1,
                       cflops / tc_ref / 1e9});
    records.push_back({"gemm_complex_blocked_n=" + std::to_string(n), tc_blk, n, 0, 1,
                       cflops / tc_blk / 1e9});
    bench::note("gemm complex n=" + std::to_string(n) + ": blocked " +
                std::to_string(cflops / tc_blk / 1e9) + " GF/s, reference " +
                std::to_string(cflops / tc_ref / 1e9) + " GF/s (" +
                std::to_string(tc_ref / tc_blk) + "x)");
  }
}

void compressor_records(std::vector<bench::TimingRecord>& records) {
  // Stream shaped like a PMTBR sampling sweep: a few novel blocks saturate
  // the reachable subspace, then a long tail of samples that are linear
  // combinations of columns the basis already spans, with novelty far below
  // the drop tolerance — the fast-HSV-decay regime the compressor exists
  // for (paper Fig. 5 in miniature).
  const index n = 4000, block_cols = 16, num_blocks = 24, novel_blocks = 3;
  const double drop_tol = 1e-6;
  Rng rng(17);
  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  std::vector<MatD> blocks;
  for (index bidx = 0; bidx < novel_blocks; ++bidx) {
    MatD blk = random_mat(rng, n, block_cols);
    for (index i = 0; i < n; ++i)
      for (index j = 0; j < block_cols; ++j) blk(i, j) *= scale;
    blocks.push_back(std::move(blk));
  }
  for (index bidx = novel_blocks; bidx < num_blocks; ++bidx) {
    MatD blk(n, block_cols);
    for (index j = 0; j < block_cols; ++j) {
      for (index pool = 0; pool < novel_blocks; ++pool) {
        const MatD& pb = blocks[static_cast<std::size_t>(pool)];
        for (index c = 0; c < pb.cols(); ++c) {
          const double w = rng.normal();
          for (index i = 0; i < n; ++i) blk(i, j) += w * pb(i, c);
        }
      }
      for (index i = 0; i < n; ++i) blk(i, j) += 1e-8 * scale * rng.normal();
    }
    blocks.push_back(std::move(blk));
  }
  const auto run = [&](mor::CompressorMode mode) {
    mor::IncrementalCompressor comp(n, drop_tol, mode);
    for (const auto& blk : blocks) comp.add_columns(blk);
    return comp.rank();
  };
  const double t_ref = bench::best_seconds(2, [&] { run(mor::CompressorMode::kReference); });
  const double t_blk = bench::best_seconds(2, [&] { run(mor::CompressorMode::kBlocked); });
  const long cols = static_cast<long>(block_cols * num_blocks);
  records.push_back({"compression_reference", t_ref, n, cols, 1});
  records.push_back({"compression_blocked", t_blk, n, cols, 1});
  bench::note("compression n=" + std::to_string(n) + " cols=" + std::to_string(cols) +
              ": blocked " + std::to_string(t_blk) + " s, reference " + std::to_string(t_ref) +
              " s (" + std::to_string(t_ref / t_blk) + "x)");
}

void thin_compression_records(std::vector<bench::TimingRecord>& records) {
  // The sample streams the perfbench mesh workloads absorb: the weighted,
  // realified samples of a 40×40 one-port RC mesh (16 samples, 2-column
  // blocks) and of a 20×20 two-port one (20 samples, 4-column blocks),
  // uniform in 1e5–1e11 Hz. Each record times absorbing the whole stream
  // into a fresh compressor, without queries.
  struct Stream {
    const char* name;
    index side, ports, samples;
  };
  for (const Stream& st : {Stream{"mesh40x1", 40, 1, 16}, Stream{"mesh20x2", 20, 2, 20}}) {
    circuit::RcMeshParams mp;
    mp.rows = st.side;
    mp.cols = st.side;
    mp.num_ports = st.ports;
    const DescriptorSystem sys = circuit::make_rc_mesh(mp);
    const MatC rhs = la::to_complex(sys.b());
    std::vector<MatD> blocks;
    for (const auto& fs : mor::sample_band(mor::Band{1e5, 1e11}, st.samples,
                                           mor::SamplingScheme::kUniform))
      blocks.push_back(mor::weighted_sample(sys.solve_shifted(fs.s, rhs), fs));
    const auto run = [&](mor::CompressorMode mode) {
      mor::IncrementalCompressor comp(sys.n(), 1e-13, mode);
      for (const auto& blk : blocks) comp.add_columns(blk);
      return comp.rank();
    };
    const double t_ref = bench::best_seconds(15, [&] { run(mor::CompressorMode::kReference); });
    const double t_blk = bench::best_seconds(15, [&] { run(mor::CompressorMode::kBlocked); });
    const long cols = static_cast<long>(2 * st.ports * st.samples);
    const std::string shape = st.name;
    records.push_back({"compression_thin_reference_" + shape, t_ref, sys.n(), cols, 1});
    records.push_back({"compression_thin_blocked_" + shape, t_blk, sys.n(), cols, 1});
    bench::note("thin compression " + shape + " (rank " +
                std::to_string(run(mor::CompressorMode::kBlocked)) + "): blocked " +
                std::to_string(t_blk) + " s, reference " + std::to_string(t_ref) + " s (" +
                std::to_string(t_ref / t_blk) + "x)");
  }
}

void fold_records(std::vector<bench::TimingRecord>& records) {
  // The compressor folds its R columns by factoring the tall T = Pᵀ for σ
  // and V. fold_reference_<shape> times la::svd(T), which the fold ran
  // before la::svd_right existed; fold_<shape> times la::svd_right(T).
  // Shapes: a random 400×174 T, the shape of bench_cost_scaling's one
  // fold, and the one fold of a mesh_adaptive call: 80 columns at rank 60,
  // a staircase of 20 four-column samples that each add four directions
  // until the rank reaches 60, entries scaled down the directions
  // geometrically from 1 to 1e-10, as σ falls. gflops divides each
  // kernel's own svd_flops count for one call by its time.
  Rng rng(31);
  const index k = 60;
  const MatD cold = random_mat(rng, 400, 174);
  MatD staircase(80, k);
  for (index r = 0; r < staircase.rows(); ++r) {
    const index len = std::min<index>(4 * (r / 4 + 1), k);
    for (index j = 0; j < len; ++j)
      staircase(r, j) =
          rng.normal() * std::pow(1e-10, static_cast<double>(std::min<index>(j, 55)) / 55.0);
  }

  const auto counted_flops = [](auto&& fn) {
    const std::int64_t before = obs::counter_value(obs::Counter::kSvdFlops);
    fn();
    return static_cast<double>(obs::counter_value(obs::Counter::kSvdFlops) - before);
  };
  const std::pair<std::string, const MatD*> shapes[] = {{"cold400x174", &cold},
                                                         {"cold80x60", &staircase}};
  for (const auto& [shape, t] : shapes) {
    const int reps = t->rows() <= 100 ? 20 : 3;
    const double f_ref = counted_flops([&] { la::svd(*t); });
    const double f_new = counted_flops([&] { la::svd_right(*t); });
    const double t_ref = bench::best_seconds(reps, [&] { la::svd(*t); });
    const double t_new = bench::best_seconds(reps, [&] { la::svd_right(*t); });
    const long m = static_cast<long>(t->rows()), n = static_cast<long>(t->cols());
    records.push_back({"fold_reference_" + shape, t_ref, m, n, 1, f_ref / t_ref / 1e9});
    records.push_back({"fold_" + shape, t_new, m, n, 1, f_new / t_new / 1e9});
    bench::note("fold " + shape + ": svd_right " + std::to_string(t_new) + " s, svd " +
                std::to_string(t_ref) + " s (" + std::to_string(t_ref / t_new) + "x)");
  }
}

}  // namespace

int main() {
  pmtbr::bench::banner("kernels",
                       "dense-kernel GFLOP/s: blocked GEMM/QR, compressor block path and "
                       "fold vs. their references (single thread)");
  pmtbr::util::set_global_threads(1);

  std::vector<pmtbr::bench::TimingRecord> records;
  gemm_records(records);
  compressor_records(records);
  thin_compression_records(records);
  fold_records(records);

  const std::string json = pmtbr::bench::write_timing_json("kernels", records);
  if (!json.empty()) pmtbr::bench::note("timing JSON: " + json);
  pmtbr::bench::write_run_manifest("kernels");
  return 0;
}
