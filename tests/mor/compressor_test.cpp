#include "mor/compressor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <thread>
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
    // Queried after every column, as adaptive order control may: each
    // query folds into a scratch copy and commits nothing.
    queried.add_columns(a.columns(j, j + 1));
    queried.order_for_tolerance(1e-8);
  }
  const auto sb = batch.singular_values();
  const MatD vb = batch.basis(5);
  const auto si = incr.singular_values();
  ASSERT_EQ(sb.size(), si.size());
  for (std::size_t i = 0; i < sb.size(); ++i) EXPECT_NEAR(sb[i], si[i], 1e-10 * sb[0]);
  const auto cosines = la::singular_values(la::matmul_at(vb, incr.basis(5)));
  ASSERT_EQ(cosines.size(), 5u);
  EXPECT_GT(cosines.back(), 1.0 - 1e-8);
  EXPECT_EQ(queried.singular_values(), si);
  EXPECT_EQ(la::max_abs_diff(queried.basis(5), incr.basis(5)), 0.0);
}

TEST(Compressor, QueriesWithoutNewColumnsShareOneFold) {
  Rng rng(68);
  const la::index n = 30;
  IncrementalCompressor comp(n);
  for (int b = 0; b < 4; ++b) comp.add_columns(testing::random_matrix(n, 3, rng));
  // Before settle(), each query folds into a scratch copy: answers repeat
  // exactly, and every later answer is what an unqueried compressor gives.
  const la::index order = comp.order_for_tolerance(1e-8);
  const MatD v = comp.basis(order);
  const auto s = comp.singular_values();
  EXPECT_EQ(comp.order_for_tolerance(1e-8), order);
  EXPECT_EQ(la::max_abs_diff(comp.basis(order), v), 0.0);
  EXPECT_EQ(comp.singular_values(), s);

  // Finalize after the last fold: order choice, basis, the singular-value
  // list and a second basis read the one fold settle() committed.
  comp.settle();
  const std::int64_t before = obs::counter_value(obs::Counter::kSvdCalls);
  EXPECT_EQ(comp.order_for_tolerance(1e-8), order);
  const MatD settled = comp.basis(order);
  EXPECT_EQ(comp.singular_values(), s);
  const MatD again = comp.basis(order);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSvdCalls) - before, 0);
  EXPECT_EQ(static_cast<la::index>(s.size()), comp.rank());
  EXPECT_EQ(la::max_abs_diff(settled, v), 0.0);
  EXPECT_EQ(la::max_abs_diff(again, v), 0.0);
}

TEST(Compressor, SizedAndShrunkBasesAnswerBitForBit) {
  // Sizing the basis up front and shrinking it afterwards move no bit: a
  // settled, shrunk compressor answers its queries exactly as an unsized,
  // unsettled one whose queries fold into a scratch copy, and holds only
  // the basis, U and σ.
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
  // settle() is final: a settled compressor absorbs no more columns.
  MatD a(4, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 2.0;
  comp.add_columns(a);
  comp.settle();
  EXPECT_THROW(comp.add_columns(a), std::invalid_argument);
  EXPECT_EQ(comp.columns_absorbed(), 2);
  EXPECT_EQ(comp.rank(), 2);
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

// The weighted sample blocks of a side×side RC mesh with `ports` ports,
// `samples` uniform samples on 1e5–1e11 Hz: the stream PMTBR absorbs.
std::vector<MatD> mesh_blocks(la::index side, la::index ports, la::index samples) {
  circuit::RcMeshParams mp;
  mp.rows = side;
  mp.cols = side;
  mp.num_ports = ports;
  const auto sys = circuit::make_rc_mesh(mp);
  std::vector<MatD> blocks;
  for (const FrequencySample& fs : sample_band(Band{1e5, 1e11}, samples, SamplingScheme::kUniform)) {
    MatD block = la::realify_columns(sys.solve_shifted(fs.s, la::to_complex(sys.b())));
    block *= std::sqrt(fs.weight / std::numbers::pi);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

TEST(Compressor, MatchesStackedSvdAtAdaptiveSize) {
  // The adaptive order-control pattern at the sizes it runs in practice:
  // samples absorbed one by one with σ and the order queried after each,
  // each query a scratch fold of every column so far. Reference: one SVD
  // of the explicitly stacked weighted sample matrix, after every sample
  // and at the end. The cases are the shapes of the mesh_adaptive workload
  // (20×20 two-port mesh, 20 samples, rank 60 of 80 columns) and of the
  // mesh_solve workload (40×40 one-port mesh, n = 1600, 16 samples, rank
  // 27 of 32), and a 32×32 eight-port mesh (n = 1024, 16-column residual
  // blocks, 4 samples, every column kept).
  struct Case {
    la::index side, ports, samples, rank;
  };
  const Case cases[] = {{20, 2, 20, 60}, {40, 1, 16, 27}, {32, 8, 4, 64}};
  const double tol = 1e-6;
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.side << "x" << c.side << " mesh, " << c.ports
                                      << " ports, " << c.samples << " samples");
    const std::vector<MatD> blocks = mesh_blocks(c.side, c.ports, c.samples);
    const la::index n = c.side * c.side;
    IncrementalCompressor comp(n);
    MatD stacked(n, 2 * c.ports * c.samples);
    la::index col = 0;
    for (const MatD& block : blocks) {
      ASSERT_EQ(block.rows(), n);
      ASSERT_LE(col + block.cols(), stacked.cols());
      for (la::index i = 0; i < block.rows(); ++i)
        for (la::index j = 0; j < block.cols(); ++j) stacked(i, col + j) = block(i, j);
      col += block.cols();
      comp.add_columns(block);
      const auto s = comp.singular_values();
      const auto ref = la::singular_values(stacked.columns(0, col));
      ASSERT_EQ(static_cast<la::index>(s.size()), comp.rank());
      for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_NEAR(s[i], ref[i], 1e-9 * ref[0]) << "sigma_" << i << " after " << col << " columns";
      EXPECT_EQ(comp.order_for_tolerance(tol), tail_order(s, tol));
    }
    ASSERT_EQ(col, stacked.cols());

    comp.settle();
    const la::SvdResult ref = la::svd(stacked);
    EXPECT_EQ(comp.rank(), c.rank);
    const auto s = comp.singular_values();
    ASSERT_EQ(static_cast<la::index>(s.size()), comp.rank());
    for (std::size_t i = 0; i < s.size(); ++i)
      EXPECT_NEAR(s[i], ref.s[i], 1e-9 * ref.s[0]) << "sigma_" << i;

    const la::index order = comp.order_for_tolerance(tol);
    EXPECT_EQ(order, tail_order(ref.s, tol));
    const MatD v = comp.basis(order);
    const auto cosines = la::singular_values(la::matmul_at(v, ref.u.columns(0, order)));
    ASSERT_EQ(static_cast<la::index>(cosines.size()), order);
    EXPECT_GT(cosines.back(), 1.0 - 1e-8);
  }
}

// Random blocks of 4 graded columns (σ falls about 3× per column over the
// whole stream, so the last columns deflate), the same blocks in reverse
// (σ₁ grows 81× per block) and the mesh_adaptive stream.
std::vector<std::vector<MatD>> query_streams() {
  Rng rng(77);
  const MatD a = graded_columns(48, 60, rng);
  std::vector<MatD> falling;
  for (la::index j = 0; j < a.cols(); j += 4) falling.push_back(a.columns(j, j + 4));
  std::vector<MatD> rising(falling.rbegin(), falling.rend());
  return {falling, rising, mesh_blocks(20, 2, 20)};
}

TEST(Compressor, QueriesNeverMoveABit) {
  // The same blocks into two compressors, one queried (all three queries)
  // after every block: once settled, they agree bit for bit.
  const auto streams = query_streams();
  for (std::size_t st = 0; st < streams.size(); ++st) {
    SCOPED_TRACE(::testing::Message() << "stream " << st);
    const la::index n = streams[st].front().rows();
    IncrementalCompressor quiet(n), queried(n);
    for (const MatD& block : streams[st]) {
      quiet.add_columns(block);
      queried.add_columns(block);
      const la::index order = queried.order_for_tolerance(1e-6);
      (void)queried.basis(order);
      (void)queried.singular_values();
    }
    quiet.settle();
    queried.settle();
    EXPECT_EQ(queried.singular_values(), quiet.singular_values());
    EXPECT_EQ(la::max_abs_diff(queried.basis(queried.rank()), quiet.basis(quiet.rank())), 0.0);
    for (const double tol : {1e-2, 1e-6, 1e-10, 0.0})
      EXPECT_EQ(queried.order_for_tolerance(tol), quiet.order_for_tolerance(tol));
  }
}

TEST(Compressor, OrderBoundNeverExceedsEstimate) {
  // tail_order_lower_bound from σ at block j and the squared norms of the
  // blocks absorbed since, against the exact estimate at every later block
  // l (l = j: nothing added). The bound must also decide: it equals the
  // estimate for some pair with blocks added.
  const double tols[] = {1e-2, 1e-6, 1e-10, 1e-12, 1e-14, 0.0};
  int tight = 0;
  const auto streams = query_streams();
  for (std::size_t st = 0; st < streams.size(); ++st) {
    const std::vector<MatD>& blocks = streams[st];
    IncrementalCompressor comp(blocks.front().rows());
    std::vector<std::vector<double>> sigma;  // σ after each block
    std::vector<double> block_sq;
    for (const MatD& block : blocks) {
      comp.add_columns(block);
      sigma.push_back(comp.singular_values());
      const double norm = la::norm_fro(block);
      block_sq.push_back(norm * norm);
    }
    for (const double tol : tols) {
      SCOPED_TRACE(::testing::Message() << "stream " << st << ", tol " << tol);
      EXPECT_EQ(tail_order_lower_bound({}, block_sq.front(), tol), 0);
      for (std::size_t j = 0; j < sigma.size(); ++j) {
        double added = 0.0;
        for (std::size_t l = j; l < sigma.size(); ++l) {
          if (l > j) added += block_sq[l];
          const la::index bound = tail_order_lower_bound(sigma[j], added, tol);
          const la::index exact = tail_order(sigma[l], tol);
          EXPECT_LE(bound, exact) << "sigma at block " << j << ", estimate at block " << l;
          if (l > j && bound == exact) ++tight;
        }
      }
    }
  }
  EXPECT_GT(tight, 0);
}

TEST(Compressor, ConcurrentQueriesOnAnUnsettledCompressorAgree) {
  // Four threads query one compressor with columns pending, at once: each
  // folds into its own scratch copy, so all answers equal what settle()
  // then commits.
  const std::vector<MatD> blocks = mesh_blocks(20, 2, 6);
  IncrementalCompressor comp(blocks.front().rows());
  for (const MatD& block : blocks) comp.add_columns(block);
  struct Answer {
    la::index order = 0;
    MatD basis;
    std::vector<double> sigma;
  };
  std::vector<Answer> answers(4);
  {
    std::vector<std::thread> threads;
    for (Answer& a : answers)
      threads.emplace_back([&comp, &a] {
        const IncrementalCompressor& shared = comp;
        a.order = shared.order_for_tolerance(1e-6);
        a.basis = shared.basis(a.order);
        a.sigma = shared.singular_values();
      });
    for (std::thread& t : threads) t.join();
  }
  comp.settle();
  const la::index order = comp.order_for_tolerance(1e-6);
  const MatD basis = comp.basis(order);
  for (const Answer& a : answers) {
    EXPECT_EQ(a.order, order);
    EXPECT_EQ(a.sigma, comp.singular_values());
    EXPECT_EQ(la::max_abs_diff(a.basis, basis), 0.0);
  }
}

}  // namespace
}  // namespace pmtbr::mor
