// Reverse Cuthill–McKee bandwidth-reducing ordering, plus the permutation
// helpers every ordering shares.
//
// RCM keeps the fill of lines and trees near-linear but lets the fill of a
// 2-D mesh grow like n^1.5, where approximate minimum degree
// (sparse/amd.hpp) roughly halves it. DescriptorSystem::ordering() keeps
// RCM for pencils that are not exactly symmetric (RLC MNA): partial
// pivoting there moves away from the symmetric elimination AMD plans for.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace pmtbr::sparse {

/// RCM permutation of the symmetrized pattern of A (pattern of A + A^T).
/// Returns perm such that the reordered matrix is B(i,j) = A(perm[i], perm[j]).
std::vector<index> rcm_ordering(const CsrD& a);

/// Inverse of a permutation. Throws std::invalid_argument unless p holds
/// every index in [0, p.size()) exactly once.
std::vector<index> invert_permutation(const std::vector<index>& p);

/// Symmetric permutation B = A(perm, perm).
template <typename T>
Csr<T> permute_symmetric(const Csr<T>& a, const std::vector<index>& perm);

}  // namespace pmtbr::sparse
