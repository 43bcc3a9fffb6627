// Fill of the selected ordering at n = 10^4, where RCM's n^1.5 growth on a
// 2-D mesh is widest. The RCM reference factor alone takes a large share of
// a second, so this runs with the slow-labelled suites.
#include <gtest/gtest.h>

#include "circuit/generators.hpp"
#include "sparse/rcm.hpp"
#include "sparse/splu.hpp"

namespace pmtbr::sparse {
namespace {

TEST(AmdSlow, RcMesh100FillUnderSelectedOrdering) {
  circuit::RcMeshParams mp;
  mp.rows = 100;
  mp.cols = 100;
  mp.num_ports = 1;
  const auto sys = circuit::make_rc_mesh(mp);
  const CsrC pencil = shifted_pencil(la::cd(0.0, 1e9), sys.e(), sys.a());
  const SymbolicLuC selected(pencil, sys.ordering());
  const SymbolicLuC rcm(pencil, rcm_ordering(combine(1.0, sys.e(), 1.0, sys.a())));
  EXPECT_LE(static_cast<double>(selected.nnz_factors()),
            0.4 * static_cast<double>(rcm.nnz_factors()));
}

}  // namespace
}  // namespace pmtbr::sparse
