#include "mor/compressor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "circuit/generators.hpp"
#include "la/ops.hpp"
#include "la/svd.hpp"
#include "mor/sampling.hpp"
#include "util/obs/counters.hpp"
#include "helpers.hpp"

namespace pmtbr::mor {
namespace {

using pmtbr::Rng;

TEST(Compressor, MatchesDirectSvdSingularValues) {
  Rng rng(61);
  const MatD a = testing::random_matrix(20, 8, rng);
  IncrementalCompressor comp(20);
  comp.add_columns(a);
  const auto s_inc = comp.singular_values();
  const auto s_dir = la::singular_values(a);
  ASSERT_EQ(s_inc.size(), s_dir.size());
  for (std::size_t i = 0; i < s_dir.size(); ++i)
    EXPECT_NEAR(s_inc[i], s_dir[i], 1e-10 * (1.0 + s_dir[0]));
}

TEST(Compressor, IncrementalEqualsBatch) {
  Rng rng(62);
  const MatD a = testing::random_matrix(15, 10, rng);
  IncrementalCompressor batch(15), incr(15), queried(15);
  batch.add_columns(a);
  for (la::index j = 0; j < a.cols(); ++j) {
    incr.add_columns(a.columns(j, j + 1));
    // Queried after every column, as adaptive order control does: each
    // query folds one pending column into the square-root factor.
    queried.add_columns(a.columns(j, j + 1));
    queried.order_for_tolerance(1e-8);
  }
  const auto sb = batch.singular_values();
  const MatD vb = batch.basis(5);
  for (auto* comp : {&incr, &queried}) {
    const auto si = comp->singular_values();
    ASSERT_EQ(sb.size(), si.size());
    for (std::size_t i = 0; i < sb.size(); ++i) EXPECT_NEAR(sb[i], si[i], 1e-10 * sb[0]);
    const auto cosines = la::singular_values(la::matmul_at(vb, comp->basis(5)));
    ASSERT_EQ(cosines.size(), 5u);
    EXPECT_GT(cosines.back(), 1.0 - 1e-8);
  }
}

TEST(Compressor, QueriesWithoutNewColumnsShareOneFold) {
  Rng rng(68);
  const la::index n = 30;
  IncrementalCompressor comp(n);
  for (int b = 0; b < 4; ++b) {
    comp.add_columns(testing::random_matrix(n, 3, rng));
    comp.order_for_tolerance(1e-8);
  }
  comp.add_columns(testing::random_matrix(n, 3, rng));
  // Finalize after the last sample: order choice, basis, the singular-value
  // list and a second basis fold the pending columns once between them.
  const std::int64_t before = obs::counter_value(obs::Counter::kSvdCalls);
  const la::index order = comp.order_for_tolerance(1e-8);
  const MatD v = comp.basis(order);
  const auto s = comp.singular_values();
  const MatD again = comp.basis(order);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSvdCalls) - before, 1);
  EXPECT_EQ(static_cast<la::index>(s.size()), comp.rank());
  EXPECT_EQ(la::max_abs_diff(v, again), 0.0);
}

TEST(Compressor, SizedAndShrunkBasesAnswerBitForBit) {
  // Sizing the basis up front and shrinking it afterwards move no bit: a
  // settled, shrunk compressor answers its const queries exactly as an
  // unsized one that folded at the same point, and holds only the basis,
  // U and σ.
  Rng rng(69);
  const la::index n = 40;
  std::vector<MatD> blocks;
  for (int b = 0; b < 5; ++b) blocks.push_back(testing::random_matrix(n, 4, rng));
  IncrementalCompressor grown(n), sized(n);
  sized.reserve(20);
  for (const MatD& b : blocks) {
    grown.add_columns(b);
    sized.add_columns(b);
  }
  sized.shrink_to_fit();
  const IncrementalCompressor& settled = sized;
  const auto r = static_cast<std::size_t>(settled.rank());
  EXPECT_EQ(settled.resident_bytes(), (r * n + r * r + r) * sizeof(double));
  const MatD vg = grown.basis(7), vs = settled.basis(7);
  EXPECT_EQ(la::max_abs_diff(vg, vs), 0.0);
  EXPECT_EQ(grown.singular_values(), settled.singular_values());
  EXPECT_EQ(grown.order_for_tolerance(1e-3), settled.order_for_tolerance(1e-3));

  // A shrunk compressor still absorbs; a const query then needs a fold.
  sized.add_columns(testing::random_matrix(n, 2, rng));
  EXPECT_THROW((void)settled.singular_values(), std::invalid_argument);
  EXPECT_THROW((void)settled.basis(2), std::invalid_argument);
  EXPECT_THROW((void)settled.order_for_tolerance(1e-3), std::invalid_argument);
  sized.settle();
  EXPECT_EQ(settled.singular_values().size(), static_cast<std::size_t>(settled.rank()));
}

TEST(Compressor, DeflatesDependentColumns) {
  Rng rng(63);
  const MatD g = testing::random_matrix(12, 3, rng);
  IncrementalCompressor comp(12);
  comp.add_columns(g);
  comp.add_columns(g);  // exact repeats add no rank
  EXPECT_EQ(comp.rank(), 3);
  EXPECT_EQ(comp.columns_absorbed(), 6);
}

TEST(Compressor, BasisIsOrthonormalAndDominant) {
  Rng rng(64);
  // Construct a matrix with known dominant direction.
  MatD a = testing::random_matrix(10, 6, rng);
  for (la::index i = 0; i < 10; ++i) a(i, 0) *= 100.0;
  IncrementalCompressor comp(10);
  comp.add_columns(a);
  const MatD v = comp.basis(2);
  EXPECT_EQ(v.cols(), 2);
  EXPECT_LT(testing::orthonormality_defect(v), 1e-11);
  // Dominant left singular vector must be captured: ||V^T u1|| ~ 1.
  const auto f = la::svd(a);
  double proj = 0;
  for (la::index j = 0; j < 2; ++j) {
    double d = 0;
    for (la::index i = 0; i < 10; ++i) d += v(i, j) * f.u(i, 0);
    proj += d * d;
  }
  EXPECT_NEAR(proj, 1.0, 1e-8);
}

TEST(Compressor, OrderForToleranceBoundaries) {
  IncrementalCompressor comp(5);
  MatD a(5, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 1e-3;
  a(2, 2) = 1e-9;
  comp.add_columns(a);
  EXPECT_EQ(comp.order_for_tolerance(1e-1), 1);   // tail 1e-3+1e-9 < 0.1
  EXPECT_EQ(comp.order_for_tolerance(1e-6), 2);   // need to drop below 1e-6
  EXPECT_EQ(comp.order_for_tolerance(1e-12), 3);
}

TEST(Compressor, RejectsBadInput) {
  IncrementalCompressor comp(4);
  EXPECT_THROW(comp.add_columns(MatD(3, 1)), std::invalid_argument);
  EXPECT_THROW(comp.basis(1), std::runtime_error);  // nothing absorbed yet
}

TEST(Compressor, RankNeverExceedsDimension) {
  Rng rng(65);
  IncrementalCompressor comp(4);
  comp.add_columns(testing::random_matrix(4, 10, rng));
  EXPECT_LE(comp.rank(), 4);
  EXPECT_EQ(comp.columns_absorbed(), 10);
}

TEST(Compressor, BlockedAndReferenceModesAgree) {
  Rng rng(66);
  // Graded-novelty stream: a dominant block, a rescaled repeat (partially
  // novel numerically), and a fresh block. Both modes must report the same
  // rank, the same R-factor singular values, and the same dominant span.
  const la::index n = 40;
  const MatD a = testing::random_matrix(n, 6, rng);
  MatD mixed = testing::random_matrix(n, 6, rng, 1e-3);
  mixed += a;
  const MatD fresh = testing::random_matrix(n, 5, rng);

  IncrementalCompressor blocked(n, 1e-13, CompressorMode::kBlocked);
  IncrementalCompressor reference(n, 1e-13, CompressorMode::kReference);
  for (auto* comp : {&blocked, &reference}) {
    comp->add_columns(a);
    comp->add_columns(mixed);
    comp->add_columns(fresh);
  }
  EXPECT_EQ(blocked.rank(), reference.rank());
  EXPECT_EQ(blocked.columns_absorbed(), reference.columns_absorbed());

  const auto sb = blocked.singular_values();
  const auto sr = reference.singular_values();
  ASSERT_EQ(sb.size(), sr.size());
  for (std::size_t i = 0; i < sb.size(); ++i) EXPECT_NEAR(sb[i], sr[i], 1e-9 * (1.0 + sb[0]));

  // Dominant subspaces coincide: principal-angle cosines of the two order-6
  // bases are all ~1.
  const MatD vb = blocked.basis(6);
  const MatD vr = reference.basis(6);
  EXPECT_LT(testing::orthonormality_defect(vb), 1e-11);
  const auto cosines = la::singular_values(la::matmul_at(vb, vr));
  ASSERT_FALSE(cosines.empty());
  EXPECT_GT(cosines.back(), 1.0 - 1e-8);
}

TEST(Compressor, FullyDeflatedBlockAddsNoRank) {
  Rng rng(67);
  const la::index n = 30;
  const MatD a = testing::random_matrix(n, 5, rng);
  IncrementalCompressor comp(n, 1e-10, CompressorMode::kBlocked);
  const double first = comp.add_columns(a);
  EXPECT_GT(first, 0.0);
  const la::index rank_before = comp.rank();

  // Exact linear combinations of absorbed columns: residual is roundoff,
  // the early-exit path skips the factorization, and rank must not move.
  MatD combo(n, 4);
  for (la::index j = 0; j < combo.cols(); ++j)
    for (la::index i = 0; i < n; ++i)
      combo(i, j) = a(i, j % a.cols()) + 0.5 * a(i, (j + 1) % a.cols());
  const double res = comp.add_columns(combo);
  EXPECT_EQ(comp.rank(), rank_before);
  EXPECT_LT(res, 1e-10 * la::norm_fro(combo));
  EXPECT_EQ(comp.columns_absorbed(), 9);
}

// Columns with geometrically graded norms (σ falls about 3× per column), so
// the dominant subspaces of every order are well separated.
MatD graded_columns(la::index n, la::index cols, Rng& rng) {
  MatD a = testing::random_matrix(n, cols, rng);
  for (la::index j = 0; j < cols; ++j) {
    const double scale = std::pow(3.0, -static_cast<double>(j));
    for (la::index i = 0; i < n; ++i) a(i, j) *= scale;
  }
  return a;
}

// Absorbs `a` in consecutive blocks of `width` columns.
void absorb_in_blocks(IncrementalCompressor& comp, const MatD& a, la::index width) {
  for (la::index j = 0; j < a.cols(); j += width)
    comp.add_columns(a.columns(j, std::min(j + width, a.cols())));
}

// σ and the rank of the compressor against one SVD of everything absorbed.
void expect_matches_stacked(IncrementalCompressor& comp, const MatD& stacked,
                            la::index expected_rank) {
  EXPECT_EQ(comp.rank(), expected_rank);
  const auto s = comp.singular_values();
  const auto ref = la::singular_values(stacked);
  ASSERT_EQ(static_cast<la::index>(s.size()), expected_rank);
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_NEAR(s[i], ref[i], 1e-12 * ref[0]) << "sigma_" << i;
  EXPECT_LT(testing::orthonormality_defect(comp.basis(comp.rank())), 1e-13);
}

TEST(Compressor, ThinAndWideBlocksAgree) {
  // The same 16 columns as one 16-column block, four 4-column blocks and
  // sixteen 1-column blocks: four projection tiles per block, one, and
  // only the 1-row tail.
  Rng rng(69);
  const la::index n = 90;
  const MatD a = graded_columns(n, 16, rng);
  IncrementalCompressor wide(n), quads(n), singles(n);
  wide.add_columns(a);
  absorb_in_blocks(quads, a, 4);
  absorb_in_blocks(singles, a, 1);

  const auto sw = wide.singular_values();
  const MatD vw = wide.basis(6);
  for (auto* comp : {&quads, &singles}) {
    SCOPED_TRACE(comp == &quads ? "4-column blocks" : "1-column blocks");
    EXPECT_EQ(comp->rank(), wide.rank());
    EXPECT_EQ(comp->columns_absorbed(), 16);
    const auto s = comp->singular_values();
    ASSERT_EQ(s.size(), sw.size());
    for (std::size_t i = 0; i < s.size(); ++i) EXPECT_NEAR(s[i], sw[i], 1e-10 * sw[0]);
    const MatD v = comp->basis(6);
    const auto cosines = la::singular_values(la::matmul_at(vw, v));
    ASSERT_EQ(cosines.size(), 6u);
    EXPECT_GT(cosines.back(), 1.0 - 1e-8);
    EXPECT_LT(testing::orthonormality_defect(comp->basis(comp->rank())), 1e-13);
  }
  EXPECT_LT(testing::orthonormality_defect(wide.basis(wide.rank())), 1e-13);
}

TEST(Compressor, AbsorbsOneColumnBlocks) {
  // A DC sample realifies to one column: first into an empty basis, then
  // against a basis the first block built.
  Rng rng(70);
  const la::index n = 50;
  const MatD a = graded_columns(n, 5, rng);
  IncrementalCompressor comp(n);
  comp.add_columns(a.columns(0, 1));
  EXPECT_EQ(comp.rank(), 1);
  comp.add_columns(a.columns(1, 4));
  comp.add_columns(a.columns(4, 5));
  expect_matches_stacked(comp, a, 5);
}

TEST(Compressor, BlockWithMoreColumnsThanRows) {
  // n < k: the residual QR has min(n, k) = 3 reflectors and a 3×4 R.
  Rng rng(71);
  const MatD a = testing::random_matrix(3, 4, rng);
  IncrementalCompressor comp(3);
  comp.add_columns(a);
  EXPECT_EQ(comp.columns_absorbed(), 4);
  expect_matches_stacked(comp, a, 3);
}

TEST(Compressor, DropsAnInBlockDependence) {
  // Column 2 = column 0 − 2·column 1 of the same block: rank 2 of 3, both
  // into an empty basis and against an existing one.
  Rng rng(72);
  const la::index n = 40;
  for (const bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "against a basis" : "into an empty basis");
    const MatD first = testing::random_matrix(n, 2, rng);
    MatD block = testing::random_matrix(n, 3, rng);
    for (la::index i = 0; i < n; ++i) block(i, 2) = block(i, 0) - 2.0 * block(i, 1);
    IncrementalCompressor comp(n);
    MatD stacked = block;
    if (warm) {
      comp.add_columns(first);
      stacked = la::hcat(first, block);
    }
    comp.add_columns(block);
    expect_matches_stacked(comp, stacked, warm ? 4 : 2);
  }
}

TEST(Compressor, ZeroBlockAddsNothing) {
  Rng rng(73);
  const la::index n = 30;
  IncrementalCompressor comp(n);
  EXPECT_EQ(comp.add_columns(MatD(n, 2)), 0.0);
  EXPECT_EQ(comp.rank(), 0);
  EXPECT_EQ(comp.columns_absorbed(), 2);
  const MatD a = testing::random_matrix(n, 3, rng);
  comp.add_columns(a);
  EXPECT_EQ(comp.add_columns(MatD(n, 4)), 0.0);
  EXPECT_EQ(comp.rank(), 3);
  EXPECT_EQ(comp.columns_absorbed(), 9);
  expect_matches_stacked(comp, a, 3);
}

TEST(Compressor, CallerBlockWidthsMatchStackedSvd) {
  // The widths the library's callers absorb beyond the 2 and 4 of one- and
  // two-port samples: 8 (bench_cost_scaling's 4 ports), 10 and 16 (the
  // input-correlated substrate runs of Figs. 15-16), plus 9 for the
  // projection tiles' 1-row tail. Each lands on a basis of 5 directions.
  for (const la::index width : {la::index{8}, la::index{9}, la::index{10}, la::index{16}}) {
    SCOPED_TRACE(::testing::Message() << width << "-column block");
    Rng rng(74);
    const la::index n = 70;
    const MatD first = graded_columns(n, 5, rng);
    const MatD block = graded_columns(n, width, rng);
    IncrementalCompressor comp(n);
    comp.add_columns(first);
    comp.add_columns(block);
    expect_matches_stacked(comp, la::hcat(first, block), 5 + width);
  }
}

TEST(Compressor, NearlyParallelNoveltyKeepsBasisOrthonormal) {
  // A block in the span of the first one plus novelty a + 1e-11·b_j along
  // one common direction a: the residual's small singular values come from
  // cancellation between its unit-size columns, so the matching new
  // directions carry rounding along the old basis at ~1e-6 until they are
  // re-orthogonalized against it. 4- and 12-column blocks.
  for (const la::index width : {la::index{4}, la::index{12}}) {
    SCOPED_TRACE(::testing::Message() << width << "-column block");
    Rng rng(76);
    const la::index n = 60;
    const MatD first = testing::random_matrix(n, width, rng);
    const MatD a = testing::random_matrix(n, 1, rng);
    MatD block = testing::random_matrix(n, width, rng, 1e-11);
    for (la::index j = 0; j < width; ++j)
      for (la::index i = 0; i < n; ++i) block(i, j) += a(i, 0);
    block += la::matmul(first, testing::random_matrix(width, width, rng));
    IncrementalCompressor comp(n);
    comp.add_columns(first);
    comp.add_columns(block);
    EXPECT_EQ(comp.rank(), 2 * width);
    EXPECT_LT(testing::orthonormality_defect(comp.basis(comp.rank())), 1e-13);
  }
}

// The smallest order whose trailing singular-value sum is within tol·σ1
// (the rule order_for_tolerance implements), on an explicit list.
la::index tail_order(const std::vector<double>& s, double tol) {
  double tail = 0;
  for (double x : s) tail += x;
  la::index q = 0;
  for (const double x : s) {
    if (tail <= tol * s.front()) break;
    tail -= x;
    ++q;
  }
  return std::max<la::index>(q, 1);
}

TEST(Compressor, MatchesStackedSvdAtAdaptiveSize) {
  // The adaptive order-control pattern at the sizes it runs in practice:
  // samples absorbed one by one with an order query after each. Reference:
  // one SVD of the explicitly stacked weighted sample matrix. The cases are
  // the shapes of the mesh_adaptive workload (20×20 two-port mesh, 20
  // samples, rank 60 of 80 columns) and of the mesh_solve workload (40×40
  // one-port mesh, n = 1600, 16 samples, rank 27 of 32), and a 32×32
  // eight-port mesh (n = 1024, 16-column residual blocks, 4 samples, every
  // column kept). A second compressor absorbs the same blocks and is
  // queried only at the end, so its state comes from one cold fold of every
  // absorbed column instead of one warm fold per sample.
  struct Case {
    la::index side, ports, samples, rank;
  };
  const Case cases[] = {{20, 2, 20, 60}, {40, 1, 16, 27}, {32, 8, 4, 64}};
  const double tol = 1e-6;
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.side << "x" << c.side << " mesh, " << c.ports
                                      << " ports, " << c.samples << " samples");
    circuit::RcMeshParams mp;
    mp.rows = c.side;
    mp.cols = c.side;
    mp.num_ports = c.ports;
    const auto sys = circuit::make_rc_mesh(mp);
    ASSERT_EQ(sys.n(), c.side * c.side);
    const auto samples = sample_band(Band{1e5, 1e11}, c.samples, SamplingScheme::kUniform);

    IncrementalCompressor warm(sys.n()), cold(sys.n());
    MatD stacked(sys.n(), 2 * c.ports * c.samples);
    la::index col = 0;
    for (const FrequencySample& fs : samples) {
      MatD block = la::realify_columns(sys.solve_shifted(fs.s, la::to_complex(sys.b())));
      block *= std::sqrt(fs.weight / std::numbers::pi);
      ASSERT_LE(col + block.cols(), stacked.cols());
      for (la::index i = 0; i < block.rows(); ++i)
        for (la::index j = 0; j < block.cols(); ++j) stacked(i, col + j) = block(i, j);
      col += block.cols();
      warm.add_columns(block);
      warm.order_for_tolerance(tol);
      cold.add_columns(block);
    }
    ASSERT_EQ(col, stacked.cols());

    const la::SvdResult ref = la::svd(stacked);
    for (auto* comp : {&warm, &cold}) {
      SCOPED_TRACE(comp == &warm ? "queried after every sample" : "one cold fold");
      EXPECT_EQ(comp->rank(), c.rank);
      const auto s = comp->singular_values();
      ASSERT_EQ(static_cast<la::index>(s.size()), comp->rank());
      for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_NEAR(s[i], ref.s[i], 1e-9 * ref.s[0]) << "sigma_" << i;

      const la::index order = comp->order_for_tolerance(tol);
      EXPECT_EQ(order, tail_order(ref.s, tol));
      const MatD v = comp->basis(order);
      const auto cosines = la::singular_values(la::matmul_at(v, ref.u.columns(0, order)));
      ASSERT_EQ(static_cast<la::index>(cosines.size()), order);
      EXPECT_GT(cosines.back(), 1.0 - 1e-8);
    }
  }
}

}  // namespace
}  // namespace pmtbr::mor
