// Approximate minimum degree (AMD) fill-reducing ordering.
//
// Amestoy, Davis & Duff (SIAM J. Matrix Anal. Appl. 17, 1996): greedy
// minimum-degree elimination on a quotient graph, where every eliminated
// pivot becomes an element (a clique stored as its variable list) that
// absorbs the elements it covers, and each variable's degree is an upper
// bound computed from element set differences instead of an exact union.
// Indistinguishable variables are merged into supervariables and eliminated
// together, and a variable whose whole neighbourhood falls inside the new
// element is eliminated with its pivot (mass elimination).
//
// On 2-D RC meshes it roughly halves the LU fill of bandwidth-minimizing
// RCM, whose fill grows like n^1.5 there. Its plan assumes a symmetric
// elimination, so it suits pencils whose pivots stay on the diagonal; see
// DescriptorSystem::ordering() for the rule that picks between the two.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace pmtbr::sparse {

/// AMD permutation of the symmetrized pattern of A (pattern of A + A^T,
/// diagonal ignored). Returns perm such that the reordered matrix is
/// B(i,j) = A(perm[i], perm[j]), as rcm_ordering does. Rows adjacent to
/// more than max(16, 10·sqrt(n)) others are ordered last, in index order.
/// A pure function of the pattern: ties break by fixed rules, so equal
/// patterns give equal permutations on every run and thread.
std::vector<index> amd_ordering(const CsrD& a);

}  // namespace pmtbr::sparse
