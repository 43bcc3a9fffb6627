// Contracts on the MOR entry points: option validation on pmtbr and its
// wrappers, TBR/FWBT and input-correlated TBR (each checked at entry, before
// any solve), basis-shape checks on projection, and NaN capture at the
// first instrumented boundary (the incremental compressor and the
// descriptor constructor).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>

#include "circuit/generators.hpp"
#include "mor/compressor.hpp"
#include "mor/error.hpp"
#include "mor/fwbt.hpp"
#include "mor/input_correlated.hpp"
#include "mor/pmtbr.hpp"
#include "mor/tbr.hpp"
#include "sparse/csr.hpp"
#include "util/obs/counters.hpp"

namespace pmtbr::mor {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

DescriptorSystem small_sys() {
  circuit::RcLineParams p;
  p.segments = 8;
  return circuit::make_rc_line(p);
}

// `call` must throw std::invalid_argument without running a shifted solve
// or a GEMM (every Lyapunov solve and every sampled block needs one).
template <typename Call>
void expect_rejected_before_any_solve(const Call& call) {
  const std::int64_t solves = obs::counter_value(obs::Counter::kShiftedSolve);
  const std::int64_t gemms = obs::counter_value(obs::Counter::kGemmCalls);
  EXPECT_THROW(call(), std::invalid_argument);
  EXPECT_EQ(obs::counter_value(obs::Counter::kShiftedSolve), solves);
  EXPECT_EQ(obs::counter_value(obs::Counter::kGemmCalls), gemms);
}

TEST(PmtbrContract, EmptyBandsThrow) {
  PmtbrOptions opts;
  opts.bands = {};
  EXPECT_THROW(pmtbr(small_sys(), opts), std::invalid_argument);
}

TEST(PmtbrContract, ZeroSamplesThrow) {
  PmtbrOptions opts;
  opts.bands = {Band{1e3, 1e9}};
  opts.num_samples = 0;
  EXPECT_THROW(pmtbr(small_sys(), opts), std::invalid_argument);
}

TEST(PmtbrContract, NegativeTruncationTolThrows) {
  PmtbrOptions opts;
  opts.bands = {Band{1e3, 1e9}};
  opts.truncation_tol = -1e-6;
  EXPECT_THROW(pmtbr(small_sys(), opts), std::invalid_argument);
}

TEST(PmtbrContract, NegativeTruncationTolThrowsFromEveryOrderChoosingEntry) {
  const auto sys = small_sys();
  const auto samples = sample_band(Band{1e3, 1e9}, 8, SamplingScheme::kUniform);
  PmtbrOptions opts;
  opts.truncation_tol = -1e-6;
  expect_rejected_before_any_solve([&] { (void)pmtbr_with_samples(sys, samples, opts); });
  expect_rejected_before_any_solve([&] { (void)pmtbr_adaptive(sys, AdaptiveOptions{}, opts); });
  // pmtbr_order_sweep takes its orders from its argument and documents
  // truncation_tol as ignored, so it does not check it.
  EXPECT_NO_THROW((void)pmtbr_order_sweep(sys, samples, {2}, opts));
}

TEST(PmtbrContract, NegativeSampleWeightThrowsBeforeAnySolve) {
  const auto sys = small_sys();
  auto samples = sample_band(Band{1e3, 1e9}, 8, SamplingScheme::kUniform);
  samples[5].weight = -1.0;
  expect_rejected_before_any_solve([&] { (void)pmtbr_with_samples(sys, samples, {}); });
  expect_rejected_before_any_solve([&] { (void)pmtbr_order_sweep(sys, samples, {2}, {}); });
}

TEST(PmtbrContract, ZeroTruncationTolIsLegal) {
  // tol == 0 means "keep everything" (used with max_order caps); it must
  // not be rejected by the nonnegativity contract.
  PmtbrOptions opts;
  opts.bands = {Band{1e3, 1e9}};
  opts.truncation_tol = 0.0;
  opts.max_order = 3;
  EXPECT_NO_THROW(pmtbr(small_sys(), opts));
}

TEST(PmtbrContract, WithSamplesRejectsEmptySampleSet) {
  EXPECT_THROW(pmtbr_with_samples(small_sys(), {}, PmtbrOptions{}), std::invalid_argument);
}

TEST(PmtbrContract, AdaptiveRejectsBandOutsideZeroToHigh) {
  // Same rule as sample_band: 0 <= f_lo < f_hi.
  for (const Band band : {Band{1e9, 0.0}, Band{0.0, 0.0}, Band{-1e9, 1e9}}) {
    AdaptiveOptions aopts;
    aopts.band = band;
    EXPECT_THROW(pmtbr_adaptive(small_sys(), aopts), std::invalid_argument);
  }
}

TEST(PmtbrContract, WeightingThatSuppressesEverySampleThrows) {
  PmtbrOptions opts;
  opts.bands = {Band{1e3, 1e9}};
  opts.num_samples = 8;
  opts.weight_fn = [](double) { return 0.0; };
  EXPECT_THROW(pmtbr(small_sys(), opts), std::invalid_argument);
  EXPECT_THROW(pmtbr_order_sweep(small_sys(), sample_bands(opts.bands, 8, opts.scheme), {2}, opts),
               std::invalid_argument);
  EXPECT_THROW(pmtbr_adaptive(small_sys(), {}, opts), std::invalid_argument);
}

TEST(ProjectContract, BasisRowMismatchThrows) {
  const auto sys = small_sys();
  const MatD v(sys.n() + 1, 2, 1.0);
  EXPECT_THROW(project_congruence(sys, v), std::invalid_argument);
}

TEST(ProjectContract, BasisColumnMismatchThrows) {
  const auto sys = small_sys();
  const MatD v(sys.n(), 2, 0.5);
  const MatD w(sys.n(), 3, 0.5);
  EXPECT_THROW(project(sys, v, w), std::invalid_argument);
}

TEST(TbrContract, NegativeOrderThrows) {
  EXPECT_THROW(tbr_error_bound({1.0, 0.5}, -1), std::invalid_argument);
}

TEST(TbrContract, NegativeErrorTolThrowsBeforeAnyLyapunovSolve) {
  const auto sys = small_sys();
  TbrOptions topts;
  topts.error_tol = -1.0;
  expect_rejected_before_any_solve([&] { (void)tbr(sys, topts); });
  FwbtOptions fopts;
  fopts.error_tol = -1.0;
  expect_rejected_before_any_solve(
      [&] { (void)fwbt(sys, std::nullopt, std::nullopt, fopts); });
}

TEST(InputCorrelatedContract, NegativeOptionsThrowBeforeAnySolve) {
  circuit::MultiportRcParams p;
  p.lines = 4;
  p.segments = 3;
  const auto sys = circuit::make_multiport_rc(p);
  MatD waveforms(sys.num_inputs(), 20);
  for (index i = 0; i < waveforms.rows(); ++i)
    for (index j = 0; j < waveforms.cols(); ++j)
      waveforms(i, j) = std::cos(0.3 * static_cast<double>((i + 1) * j));
  InputCorrelatedOptions tol;
  tol.truncation_tol = -1.0;
  expect_rejected_before_any_solve([&] { (void)input_correlated_tbr(sys, waveforms, tol); });
  // A negative draw count is an error, not the blocked variant (0 draws).
  InputCorrelatedOptions draws;
  draws.draws_per_frequency = -3;
  expect_rejected_before_any_solve([&] { (void)input_correlated_tbr(sys, waveforms, draws); });
  InputCorrelatedOptions ok;
  ok.fixed_order = 3;
  EXPECT_EQ(input_correlated_tbr(sys, waveforms, ok).model.system.n(), 3);
}

TEST(ErrorContract, EmptyFrequencyGridThrows) {
  const auto sys = small_sys();
  EXPECT_THROW(transfer_series(sys, {}), std::invalid_argument);
}

TEST(ErrorContract, EntryIndicesValidated) {
  const auto full = small_sys();
  PmtbrOptions opts;
  opts.bands = {Band{1e3, 1e9}};
  const auto red = pmtbr(full, opts);
  const std::vector<double> freqs{1e6};
  EXPECT_THROW(entry_error_series(full, red.model.system, freqs, full.num_outputs(), 0, false),
               std::invalid_argument);
  EXPECT_THROW(entry_error_series(full, red.model.system, freqs, 0, -1, false),
               std::invalid_argument);
}

TEST(FiniteContract, CompressorRejectsNanSampleBlock) {
  contracts::ScopedFiniteChecks on(true);
  IncrementalCompressor comp(4);
  MatD block(4, 2, 1.0);
  block(3, 1) = kNan;
  EXPECT_THROW(comp.add_columns(block), std::runtime_error);
  EXPECT_EQ(comp.columns_absorbed(), 0);
  // Against a basis, and wider than n: the throw still comes before any
  // work, so neither the rank nor the column count moves.
  comp.add_columns(MatD(4, 1, 1.0));
  MatD wide(4, 12, 1.0);
  wide(2, 7) = kNan;
  EXPECT_THROW(comp.add_columns(wide), std::runtime_error);
  EXPECT_EQ(comp.rank(), 1);
  EXPECT_EQ(comp.columns_absorbed(), 1);
}

TEST(FiniteContract, DescriptorConstructorRejectsNanInput) {
  contracts::ScopedFiniteChecks on(true);
  sparse::Triplets<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  const sparse::CsrD eye(t);
  MatD b(2, 1, 1.0);
  b(0, 0) = kNan;
  EXPECT_THROW(DescriptorSystem(eye, eye, b, MatD(1, 2, 1.0)), std::runtime_error);
}

TEST(FiniteContract, ProjectionBasisNanCaught) {
  contracts::ScopedFiniteChecks on(true);
  const auto sys = small_sys();
  MatD v(sys.n(), 2, 0.5);
  v(0, 0) = kNan;
  EXPECT_THROW(project_congruence(sys, v), std::runtime_error);
}

}  // namespace
}  // namespace pmtbr::mor
