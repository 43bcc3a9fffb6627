// Approximate minimum degree ordering: valid permutations on awkward
// patterns, symmetrization, dense rows, determinism, and the fill it buys on
// the RC mesh under DescriptorSystem::ordering().
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "circuit/generators.hpp"
#include "sparse/amd.hpp"
#include "sparse/csr.hpp"
#include "sparse/rcm.hpp"
#include "sparse/splu.hpp"
#include "helpers.hpp"

namespace pmtbr::sparse {
namespace {

using pmtbr::Rng;

bool is_permutation_of(const std::vector<index>& p, index n) {
  if (static_cast<index>(p.size()) != n) return false;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (const index v : p) {
    if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = 1;
  }
  return true;
}

// Diagonally dominant matrix with the given off-diagonal pattern (both
// directions) and a diagonal on every row listed in `diag`.
CsrD from_edges(index n, const std::vector<std::pair<index, index>>& edges,
                const std::vector<index>& diag) {
  Triplets<double> t(n, n);
  for (const index i : diag) t.add(i, i, 10.0);
  for (const auto& [i, j] : edges) {
    t.add(i, j, -1.0);
    t.add(j, i, -1.0);
  }
  return CsrD(t);
}

// Five-point rows×cols grid. With `plane`, row 0 is an extra node coupled
// to every grid node (a ground plane) and the grid occupies rows 1..n.
CsrD grid(index rows, index cols, bool plane) {
  const index off = plane ? 1 : 0;
  const index n = rows * cols + off;
  std::vector<std::pair<index, index>> edges;
  std::vector<index> diag;
  for (index i = 0; i < n; ++i) diag.push_back(i);
  for (index r = 0; r < rows; ++r)
    for (index c = 0; c < cols; ++c) {
      const index v = off + r * cols + c;
      if (c + 1 < cols) edges.emplace_back(v, v + 1);
      if (r + 1 < rows) edges.emplace_back(v, v + cols);
      if (plane) edges.emplace_back(0, v);
    }
  return from_edges(n, edges, diag);
}

template <typename F>
double best_seconds(F f, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    best = std::min(best,
                    std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  return best;
}

TEST(Amd, EmptyAndSingleRow) {
  EXPECT_TRUE(amd_ordering(CsrD(Triplets<double>(0, 0))).empty());
  EXPECT_EQ(amd_ordering(CsrD(Triplets<double>(1, 1))), std::vector<index>{0});
  EXPECT_EQ(amd_ordering(from_edges(1, {}, {0})), std::vector<index>{0});
}

TEST(Amd, IsolatedRowsAndSeveralComponents) {
  // A path 0-3-6-9, a triangle 1-4-7, row 2 with only a diagonal, row 5
  // with no entry at all, and a 2×4 ladder on rows 10..17.
  std::vector<std::pair<index, index>> edges{{0, 3}, {3, 6}, {6, 9}, {1, 4}, {4, 7}, {1, 7}};
  for (index c = 0; c < 4; ++c) {
    edges.emplace_back(10 + c, 14 + c);
    if (c + 1 < 4) {
      edges.emplace_back(10 + c, 11 + c);
      edges.emplace_back(14 + c, 15 + c);
    }
  }
  std::vector<index> diag;
  for (index i = 0; i < 18; ++i)
    if (i != 5) diag.push_back(i);
  const CsrD m = from_edges(18, edges, diag);
  const auto p = amd_ordering(m);
  ASSERT_TRUE(is_permutation_of(p, 18));
  // Rows without off-diagonal entries cause no fill and come first.
  EXPECT_EQ(p[0], 2);
  EXPECT_EQ(p[1], 5);
  // The path and the triangle fill nothing; each of the ladder's three
  // squares needs one chord (two factor entries). Row 5 gets a diagonal so
  // the matrix can be factored.
  diag.push_back(5);
  const CsrD full = from_edges(18, edges, diag);
  const SymbolicLuD lu(full, p);
  EXPECT_EQ(lu.nnz_factors(), full.nnz() + 6);
}

TEST(Amd, SymmetrizesAnUnsymmetricPattern) {
  const index n = 80;
  Rng rng(61);
  Triplets<double> t(n, n), tt(n, n);
  for (index i = 0; i < n; ++i) {
    t.add(i, i, 5.0);
    tt.add(i, i, 5.0);
    for (index j = 0; j < n; ++j)
      if (i != j && rng.uniform() < 0.04) {
        t.add(i, j, 1.0);
        tt.add(j, i, 1.0);
      }
  }
  const CsrD a(t);
  const CsrD at(tt);
  const CsrD sym = combine(1.0, a, 1.0, at);
  ASSERT_FALSE(is_symmetric(a));
  const auto p = amd_ordering(a);
  ASSERT_TRUE(is_permutation_of(p, n));
  // Like RCM, AMD sees only the pattern of A + A^T.
  EXPECT_EQ(p, amd_ordering(at));
  EXPECT_EQ(p, amd_ordering(sym));
  EXPECT_EQ(rcm_ordering(a), rcm_ordering(sym));
}

TEST(Amd, GroundPlaneRowIsOrderedLastInNearLinearTime) {
  const CsrD plain = grid(60, 60, false);
  const CsrD plane = grid(60, 60, true);
  const auto p = amd_ordering(plane);
  ASSERT_TRUE(is_permutation_of(p, plane.rows()));
  EXPECT_EQ(p.back(), 0);
  // Left in the graph, the plane row would join every new element and be
  // rescanned at every pivot, O(n) each. Set aside, it costs about nothing.
  const double t_plain = best_seconds([&] { (void)amd_ordering(plain); }, 5);
  const double t_plane = best_seconds([&] { (void)amd_ordering(plane); }, 5);
  EXPECT_LT(t_plane, 3.0 * t_plain + 1e-3)
      << "plain " << t_plain << " s, plane " << t_plane << " s";
}

TEST(Amd, RepeatedCallsGiveEqualVectors) {
  Rng rng(62);
  Triplets<double> t(200, 200);
  for (index i = 0; i < 200; ++i) {
    t.add(i, i, 1.0);
    for (int k = 0; k < 3; ++k) t.add(i, static_cast<index>(rng.uniform() * 199.999), 1.0);
  }
  const CsrD m(t);
  const auto first = amd_ordering(m);
  EXPECT_EQ(first, amd_ordering(m));
  const CsrD g = grid(30, 30, true);
  EXPECT_EQ(amd_ordering(g), amd_ordering(g));
}

TEST(Amd, RcMesh40FillUnderSelectedOrdering) {
  circuit::RcMeshParams mp;
  mp.rows = 40;
  mp.cols = 40;
  mp.num_ports = 1;
  const auto sys = circuit::make_rc_mesh(mp);
  const SymbolicLuC lu(shifted_pencil(la::cd(0.0, 1e9), sys.e(), sys.a()), sys.ordering());
  EXPECT_LE(lu.nnz_factors(), 45000u);  // rcm_ordering: 88,440
}

}  // namespace
}  // namespace pmtbr::sparse
