// Exact-TBR baseline tests: Glover bound, exactness at full order, HSV
// invariance, and monotone growth of the bound with added ports (the
// paper's Fig. 3 phenomenon in miniature).
#include <gtest/gtest.h>

#include <numbers>

#include "circuit/generators.hpp"
#include "la/ops.hpp"
#include "mor/error.hpp"
#include "mor/tbr.hpp"
#include "helpers.hpp"

namespace pmtbr::mor {
namespace {

using pmtbr::Rng;

DescriptorSystem small_mesh(index ports) {
  circuit::RcMeshParams p;
  p.rows = 5;
  p.cols = 5;
  p.num_ports = ports;
  return circuit::make_rc_mesh(p);
}

TEST(Tbr, HsvDescendingAndPositive) {
  const auto sys = small_mesh(3);
  const auto hsv = hankel_singular_values(sys);
  ASSERT_EQ(hsv.size(), static_cast<std::size_t>(sys.n()));
  for (std::size_t i = 1; i < hsv.size(); ++i) EXPECT_GE(hsv[i - 1], hsv[i]);
  EXPECT_GT(hsv[0], 0.0);
}

TEST(Tbr, FullOrderIsExact) {
  const auto sys = small_mesh(2);
  TbrOptions opts;
  opts.fixed_order = sys.n();
  const auto res = tbr(sys, opts);
  const auto grid = logspace_grid(1e6, 1e11, 20);
  const auto err = compare_on_grid(sys, res.model.system, grid);
  EXPECT_LT(err.max_rel, 1e-6);
}

TEST(Tbr, GloverBoundHolds) {
  const auto sys = small_mesh(2);
  for (const index q : {2, 4, 8}) {
    TbrOptions opts;
    opts.fixed_order = q;
    const auto res = tbr(sys, opts);
    // Observed H-infinity error on a grid must respect the bound.
    const auto grid = logspace_grid(1e5, 1e12, 60);
    const auto err = compare_on_grid(sys, res.model.system, grid);
    EXPECT_LE(err.max_abs, res.error_bound * (1.0 + 1e-6))
        << "order " << q << ": observed " << err.max_abs << " bound " << res.error_bound;
  }
}

TEST(Tbr, ErrorBoundMonotoneInOrder) {
  const auto sys = small_mesh(4);
  const auto hsv = hankel_singular_values(sys);
  for (index q = 1; q + 1 < static_cast<index>(hsv.size()); ++q)
    EXPECT_GE(tbr_error_bound(hsv, q), tbr_error_bound(hsv, q + 1) - 1e-18);
}

TEST(Tbr, BoundGrowsWithPortCount) {
  // More ports => larger controllable space => slower HSV decay (Fig. 3).
  const auto hsv4 = hankel_singular_values(small_mesh(4));
  const auto hsv16 = hankel_singular_values(small_mesh(16));
  const index q = 6;
  EXPECT_GT(tbr_error_bound(hsv16, q) / hsv16[0], tbr_error_bound(hsv4, q) / hsv4[0]);
}

TEST(Tbr, HsvInvariantUnderStateScaling) {
  // Similarity transformation must not change the Hankel singular values.
  Rng rng(71);
  const MatD a = testing::random_stable(8, rng);
  const MatD b = testing::random_matrix(8, 2, rng);
  const MatD c = testing::random_matrix(2, 8, rng);
  const auto r1 = tbr(from_dense(a, b, c));

  MatD t(8, 8);  // diagonal scaling
  for (index i = 0; i < 8; ++i) t(i, i) = std::pow(10.0, (i % 4) - 2);
  MatD tinv(8, 8);
  for (index i = 0; i < 8; ++i) tinv(i, i) = 1.0 / t(i, i);
  const MatD a2 = la::matmul(t, la::matmul(a, tinv));
  const MatD b2 = la::matmul(t, b);
  const MatD c2 = la::matmul(c, tinv);
  const auto r2 = tbr(from_dense(a2, b2, c2));

  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_NEAR(r1.hsv[i] / r2.hsv[i], 1.0, 1e-6) << "hsv index " << i;
}

TEST(Tbr, ReducedModelIsBalanced) {
  // The reduced system of a balanced truncation satisfies W^T V = I, so
  // E_r = I; check Er is identity.
  const auto sys = small_mesh(2);
  TbrOptions opts;
  opts.fixed_order = 5;
  const auto res = tbr(sys, opts);
  const MatD wv = la::matmul(la::transpose(res.model.w), res.model.v);
  EXPECT_LT(la::max_abs_diff(wv, MatD::identity(5)), 1e-8);
}

TEST(Tbr, ErrorTolSelectsSmallOrder) {
  const auto sys = small_mesh(1);
  TbrOptions opts;
  opts.error_tol = 1e-4;
  const auto res = tbr(sys, opts);
  EXPECT_LT(res.model.system.n(), sys.n() / 2);
  EXPECT_GE(res.model.system.n(), 1);
}

TEST(Tbr, StableReducedModels) {
  const auto sys = small_mesh(3);
  for (const index q : {1, 3, 6}) {
    TbrOptions opts;
    opts.fixed_order = q;
    const auto res = tbr(sys, opts);
    EXPECT_TRUE(res.model.system.is_stable()) << "order " << q;
  }
}

}  // namespace
}  // namespace pmtbr::mor
