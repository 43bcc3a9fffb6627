// Contracts on the MOR entry points: option validation on pmtbr and its
// wrappers, basis-shape checks on projection, and NaN capture at the first
// instrumented boundary (the incremental compressor and the descriptor
// constructor).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "circuit/generators.hpp"
#include "mor/compressor.hpp"
#include "mor/error.hpp"
#include "mor/pmtbr.hpp"
#include "mor/tbr.hpp"
#include "sparse/csr.hpp"

namespace pmtbr::mor {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

DescriptorSystem small_sys() {
  circuit::RcLineParams p;
  p.segments = 8;
  return circuit::make_rc_line(p);
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

TEST(PmtbrContract, ZeroTruncationTolIsLegal) {
  // tol == 0 means "keep everything" (used with max_order caps); it must
  // not be rejected by the nonnegativity contract.
  PmtbrOptions opts;
  opts.bands = {Band{1e3, 1e9}};
  opts.truncation_tol = 0.0;
  opts.max_order = 3;
  EXPECT_NO_THROW(pmtbr(small_sys(), opts));
}

TEST(PmtbrContract, FrequencySelectiveRejectsEmptyBands) {
  EXPECT_THROW(pmtbr_frequency_selective(small_sys(), {}), std::invalid_argument);
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

TEST(ErrorContract, EmptyFrequencyGridThrows) {
  const auto sys = small_sys();
  EXPECT_THROW(transfer_series(sys, {}), std::invalid_argument);
}

TEST(ErrorContract, EntryIndicesValidated) {
  const auto full = small_sys();
  const auto red = pmtbr_frequency_selective(full, {Band{1e3, 1e9}});
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
