// Randomized differential suite (label: slow): PMTBR versus the exact dense
// TBR baseline over seeded random passive RC / RLC networks, end-to-end
// agreement of the two compressor modes through the serving path, and the
// compressor's cold fold against a dense SVD at bench_cost_scaling's size. The networks are generated as netlist text (exercising the parser
// and MNA assembly), are passive by construction (hence stable), and carry
// a grounded capacitor at every node plus diagonal inductances, so E is
// invertible and the TBR baseline applies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/parser.hpp"
#include "la/ops.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "mor/compressor.hpp"
#include "mor/error.hpp"
#include "mor/pmtbr.hpp"
#include "mor/sampling.hpp"
#include "mor/tbr.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace pmtbr::mor {
namespace {

using circuit::try_assemble_netlist;

// Random passive RC network: a resistor chain through every node (connected
// by construction), extra random cross resistors, and a grounded capacitor
// at every node. Ports at both ends of the chain.
std::string random_rc_netlist(Rng& rng, index nodes, bool with_inductors) {
  std::ostringstream os;
  os << "* random " << (with_inductors ? "RLC" : "RC") << " network\n";
  int card = 0;
  for (index i = 1; i < nodes; ++i)
    os << "R" << ++card << " n" << i << " n" << (i + 1) << " "
       << rng.uniform(50.0, 200.0) << "\n";
  const index extra = nodes / 3;
  for (index k = 0; k < extra; ++k) {
    const index a = rng.uniform_int(1, nodes);
    index b = rng.uniform_int(1, nodes);
    if (a == b) b = (b % nodes) + 1;
    os << "R" << ++card << " n" << a << " n" << b << " "
       << rng.uniform(100.0, 500.0) << "\n";
  }
  // Resistive grounding at every fourth node: without it G is singular (a
  // DC-floating island), A = -G has a zero eigenvalue, and the Lyapunov
  // sign iteration behind the TBR baseline cannot converge.
  for (index i = 1; i <= nodes; i += 4)
    os << "R" << ++card << " n" << i << " 0 " << rng.uniform(500.0, 2000.0) << "\n";
  for (index i = 1; i <= nodes; ++i)
    os << "C" << i << " n" << i << " 0 " << rng.uniform(0.5e-12, 2e-12) << "\n";
  if (with_inductors) {
    // A few series inductor branches between random node pairs; their
    // currents add diagonal L entries to E, keeping it invertible, and the
    // network stays passive (hence stable).
    const index coils = std::max<index>(1, nodes / 8);
    for (index k = 0; k < coils; ++k) {
      const index a = rng.uniform_int(1, nodes);
      index b = rng.uniform_int(1, nodes);
      if (a == b) b = (b % nodes) + 1;
      os << "L" << k + 1 << " n" << a << " n" << b << " "
         << rng.uniform(0.5e-9, 2e-9) << "\n";
    }
  }
  os << ".port n1\n.port n" << nodes << "\n.end\n";
  return os.str();
}

struct Tolerances {
  double envelope_factor;  // PMTBR max error vs max(TBR error, Glover bound)
  double abs_floor;        // relative to the in-band transfer scale
};

// PMTBR at the TBR-chosen order must track the exact baseline to within a
// modest factor of the larger of the baseline's achieved error and its
// Glover bound (the paper's claim: near-TBR accuracy in band without
// Gramians). The factor absorbs quadrature error on hard spectra.
void check_system(const std::string& netlist, std::uint64_t seed, Tolerances tol) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto sys = try_assemble_netlist(netlist);
  ASSERT_TRUE(sys.is_ok()) << sys.status().to_string();
  const DescriptorSystem& full = sys.value();

  TbrOptions topts;
  topts.fixed_order = 8;
  const TbrResult baseline = tbr(full, topts);
  ASSERT_EQ(baseline.model.system.a().rows(), 8);

  const double f_hi = 2e9;
  PmtbrOptions popts;
  popts.bands = {Band{0.0, f_hi}};
  popts.num_samples = 48;
  popts.fixed_order = 8;
  const PmtbrResult reduced = pmtbr(full, popts);
  ASSERT_EQ(reduced.model.system.a().rows(), 8);

  const std::vector<double> grid = logspace_grid(1e6, f_hi, 25);
  const ErrorStats pmtbr_err = compare_on_grid(full, reduced.model.system, grid);
  const ErrorStats tbr_err = compare_on_grid(full, baseline.model.system, grid);

  const double bound = tbr_error_bound(baseline.hsv, 8);
  const double envelope = tol.envelope_factor * std::max(tbr_err.max_abs, bound) +
                          tol.abs_floor * pmtbr_err.h_inf_scale;
  EXPECT_LE(pmtbr_err.max_abs, envelope)
      << "pmtbr max_abs=" << pmtbr_err.max_abs << " tbr max_abs=" << tbr_err.max_abs
      << " glover=" << bound << " scale=" << pmtbr_err.h_inf_scale;
  // Both reductions must be sane in the first place.
  EXPECT_GT(pmtbr_err.h_inf_scale, 0.0);
  EXPECT_TRUE(std::isfinite(pmtbr_err.max_abs));
}

TEST(Differential, PmtbrTracksTbrOnRandomRcNetworks) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const index nodes = static_cast<index>(rng.uniform_int(18, 36));
    check_system(random_rc_netlist(rng, nodes, false), seed,
                 {.envelope_factor = 10.0, .abs_floor = 1e-10});
  }
}

TEST(Differential, PmtbrTracksTbrOnRandomRlcNetworks) {
  for (std::uint64_t seed = 101; seed <= 108; ++seed) {
    Rng rng(seed);
    const index nodes = static_cast<index>(rng.uniform_int(16, 28));
    check_system(random_rc_netlist(rng, nodes, true), seed,
                 {.envelope_factor = 10.0, .abs_floor = 1e-10});
  }
}

// kReference and kBlocked compressor modes must agree end-to-end THROUGH
// THE SERVICE PATH: same netlist submitted twice with only the mode
// flipped, reduced transfer functions compared on the grid.
TEST(Differential, CompressorModesAgreeThroughService) {
  serve::ReductionService svc({.runners = 2, .max_queue = 16});
  for (std::uint64_t seed = 201; seed <= 206; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const index nodes = static_cast<index>(rng.uniform_int(18, 30));
    const std::string netlist = random_rc_netlist(rng, nodes, seed % 2 == 0);

    PmtbrOptions base;
    base.bands = {Band{0.0, 2e9}};
    base.num_samples = 32;
    base.fixed_order = 6;

    PmtbrOptions ref = base;
    ref.compressor = CompressorMode::kReference;
    PmtbrOptions blk = base;
    blk.compressor = CompressorMode::kBlocked;

    auto req_ref = serve::job_from_netlist(netlist, ref, "ref");
    auto req_blk = serve::job_from_netlist(netlist, blk, "blk");
    ASSERT_TRUE(req_ref.is_ok());
    ASSERT_TRUE(req_blk.is_ok());
    auto id_ref = svc.submit(std::move(req_ref).value());
    auto id_blk = svc.submit(std::move(req_blk).value());
    ASSERT_TRUE(id_ref.is_ok());
    ASSERT_TRUE(id_blk.is_ok());
    const serve::JobResult r_ref = svc.wait(id_ref.value());
    const serve::JobResult r_blk = svc.wait(id_blk.value());
    ASSERT_EQ(r_ref.outcome, serve::JobOutcome::kCompleted) << r_ref.status.to_string();
    ASSERT_EQ(r_blk.outcome, serve::JobOutcome::kCompleted) << r_blk.status.to_string();

    // Same subspace, hence (numerically) the same reduced transfer.
    const std::vector<double> grid = logspace_grid(1e6, 2e9, 25);
    const auto h_ref = transfer_series(r_ref.reduction.model.system, grid);
    const auto h_blk = transfer_series(r_blk.reduction.model.system, grid);
    double scale = 0.0;
    for (const auto& h : h_ref)
      for (index i = 0; i < h.rows(); ++i)
        for (index j = 0; j < h.cols(); ++j) scale = std::max(scale, std::abs(h(i, j)));
    ASSERT_GT(scale, 0.0);
    double worst = 0.0;
    for (std::size_t g = 0; g < grid.size(); ++g)
      for (index i = 0; i < h_ref[g].rows(); ++i)
        for (index j = 0; j < h_ref[g].cols(); ++j)
          worst = std::max(worst, std::abs(h_ref[g](i, j) - h_blk[g](i, j)));
    EXPECT_LE(worst, 1e-6 * scale) << "modes diverge: worst=" << worst;

    // The estimated Hankel spectra agree too.
    const auto& sv_ref = r_ref.reduction.hankel_estimates;
    const auto& sv_blk = r_blk.reduction.hankel_estimates;
    ASSERT_EQ(sv_ref.size(), sv_blk.size());
    for (std::size_t i = 0; i < sv_ref.size(); ++i)
      EXPECT_NEAR(sv_ref[i], sv_blk[i], 1e-9 * (1.0 + sv_ref[0]));
  }
}

// bench_cost_scaling's run (30×30 mesh, four ports, 50 samples: rank 174 of
// 400 columns) absorbed without a query, so the first singular_values()
// folds all of R in one cold svd_right of a 400×rank T. Reference and bounds
// as in Compressor.MatchesStackedSvdAtAdaptiveSize: one SVD of the stacked
// weighted sample matrix, σ within 1e-9·σ_1, the same order choice, and the
// order's basis spanning the reference's leading left singular subspace.
TEST(Differential, ColdFoldMatchesStackedSvdAtCostScalingSize) {
  circuit::RcMeshParams mp;
  mp.rows = 30;
  mp.cols = 30;
  mp.num_ports = 4;
  const auto sys = circuit::make_rc_mesh(mp);
  const auto samples = sample_band(Band{1e5, 1e11}, 50, SamplingScheme::kUniform);
  IncrementalCompressor comp(sys.n());
  MatD stacked(sys.n(), 400);
  index col = 0;
  for (const FrequencySample& fs : samples) {
    MatD block = la::realify_columns(sys.solve_shifted(fs.s, la::to_complex(sys.b())));
    block *= std::sqrt(fs.weight / std::numbers::pi);
    ASSERT_LE(col + block.cols(), stacked.cols());
    for (index i = 0; i < block.rows(); ++i)
      for (index j = 0; j < block.cols(); ++j) stacked(i, col + j) = block(i, j);
    col += block.cols();
    comp.add_columns(block);
  }
  ASSERT_EQ(col, stacked.cols());
  // 174 with the multiversioned GEMM kernels; the TSan build, which runs the
  // baseline-ISA kernels, keeps 175: one direction's residual sits at
  // drop_tol and the last bits decide.
  EXPECT_NEAR(static_cast<double>(comp.rank()), 174.0, 2.0);

  // Reference through la::qr_pivoted and la::svd (a dense la::svd of the
  // 900×400 stacked matrix alone takes ~20 s): stacked·Π = Q·R, and the rows
  // of R past its 1e-15 rank carry at most √400·1e-15·σ_1, far inside the σ
  // bound and small enough against the σ gap at the chosen order (~3e-8·σ_1)
  // to leave the subspace check intact. So the reference is the SVD of R's
  // leading rows, taken as la::svd of their transpose (whose columns
  // converge much faster than R's), with left singular vectors Q·U_R;
  // compressor σ past that rank are compared with zero.
  const la::QrResult qr = la::qr_pivoted(stacked, 1e-15);
  la::SvdResult ref = la::svd(la::transpose(qr.r).columns(0, qr.rank));
  ref.u = la::matmul(qr.q.columns(0, qr.rank), ref.v);
  const auto s = comp.singular_values();
  ASSERT_EQ(static_cast<index>(s.size()), comp.rank());
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_NEAR(s[i], i < ref.s.size() ? ref.s[i] : 0.0, 1e-9 * ref.s[0]) << "sigma_" << i;

  const double tol = 1e-6;
  double tail = 0;
  for (const double x : ref.s) tail += x;
  index want = 0;
  while (tail > tol * ref.s[0]) tail -= ref.s[static_cast<std::size_t>(want++)];
  const index order = comp.order_for_tolerance(tol);
  EXPECT_EQ(order, std::max<index>(want, 1));
  const auto cosines = la::singular_values(la::matmul_at(comp.basis(order), ref.u.columns(0, order)));
  ASSERT_EQ(static_cast<index>(cosines.size()), order);
  EXPECT_GT(cosines.back(), 1.0 - 1e-8);
}

}  // namespace
}  // namespace pmtbr::mor
