// Sparse direct factorization of square matrices, templated on scalar, with
// an optional symmetric fill-reducing pre-ordering (sparse/amd.hpp or
// sparse/rcm.hpp; DescriptorSystem::ordering() picks one per pencil), split
// into a reusable symbolic analysis and a cheap numeric phase. Two kinds:
//
//  - LU: Gilbert–Peierls left-looking with partial pivoting, for any
//    matrix. Its analysis is one full factorization of a representative,
//    which freezes the pivot order and the L/U fill patterns.
//  - LDLᵀ: pivot-free left-looking A(q,q) = L·D·Lᵀ with diagonal pivots, for
//    matrices whose values are exactly symmetric (Aᵀ = A, no conjugation;
//    the RC pencils sE − A). Its analysis is pattern-only — elimination tree
//    and row/column structure of L, no numeric work — and it stores L and D
//    only: about half the storage and flops of the LU replay.
//
// This is the workhorse behind every shifted solve (s_k E - A)^{-1} B in
// PMTBR, the transient integrator, and AC sweeps. All shifted pencils
// s_k E - A share one sparsity pattern (shifted_pencil() emits the union
// pattern for every s), so one analysis serves every shift and each further
// shift is a numeric-only factorization (SparseLu::refactor) that touches
// each stored nonzero exactly once. Both kinds accept a numeric factor only
// when each pivot (LU's frozen one, LDLᵀ's diagonal one) is at least 1e-10
// times the best candidate a fresh factorization could have picked for its
// column; a rejection means "full LU factor with fresh pivoting instead".
//
// The LDLᵀ numeric phase, factor and solve, has a lane dimension: one walk
// of the frozen pattern factors up to kMaxLdltLanes matrices of one
// analysis, each index loaded once and every operation applied to all
// lanes' values as one SIMD vector (solve_lanes; the lanes are the shifts
// of one PMTBR batch). A single refactor() is the one-lane case of the same
// kernel. Each lane performs exactly the IEEE operations of a one-lane
// factor, so the lane grouping never changes a bit of any result.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "la/matrix.hpp"
#include "sparse/csr.hpp"
#include "util/status.hpp"

namespace pmtbr::sparse {

/// Which numeric factorization an analysis drives.
enum class FactorKind : std::uint8_t {
  kLu,    // P·A(q,q) = L·U, pivot order frozen by a Gilbert–Peierls factor
  kLdlt,  // A(q,q) = L·D·Lᵀ, diagonal pivots, for exactly symmetric A
};

/// Most matrices one lane-batched LDLᵀ pass factors together: eight
/// doubles, one AVX-512 register per real or imaginary part.
inline constexpr int kMaxLdltLanes = 8;

namespace detail {

// Frozen elimination structure shared by a symbolic analysis and every
// numeric factorization replayed from it. Immutable after construction.
template <typename T>
struct LuPattern {
  FactorKind kind = FactorKind::kLu;
  index n = 0;
  std::vector<index> q;     // symmetric pre-permutation (possibly identity)
  std::vector<index> pinv;  // LU: pinv[permuted-row] = pivot position
  std::vector<index> prow;  // LU: prow[pivot position] = permuted-row

  // L (unit diagonal implicit) and U in compressed column form, pivot-row
  // indexed: L rows are pivot positions > column, U rows are < column and
  // stored in elimination (topological) order. For LDLᵀ, L's rows ascend
  // within each column and U = D·Lᵀ is never stored: u_ptr/u_row hold its
  // pattern (row j of L), and u_lpos[t] is the slot in l_row of
  // L(j, u_row[t]) — where the rows ≥ j of that column start.
  std::vector<index> l_ptr, l_row;
  std::vector<index> u_ptr, u_row;
  std::vector<index> u_lpos;

  // Scatter map for numeric refactorization: per permuted column j, the
  // pivot-position destination and CSR value slot of each entry of A (for
  // LDLᵀ only the entries on or below the diagonal, and a_mirror holds the
  // slot of each one's transposed twin).
  std::vector<index> a_ptr, a_pos, a_slot, a_mirror;
  // The analyzed CSR layout; a numeric factor of any other layout throws.
  std::vector<index> a_row_ptr, a_col_idx;
};

}  // namespace detail

template <typename T>
class SparseLu;
template <typename T>
class SymbolicLu;

/// Lane-batched factor and solve of shifted pencils against the LDLᵀ
/// analysis of their pattern: X_k = (s_k·E − A)⁻¹·rhs for each shift, or
/// kDegeneratePivot (detail as SparseLu::refactor) for a shift whose
/// diagonal pivot is rejected — the caller then falls back to a full
/// factorization of that pencil alone. The pencils are read straight from
/// E and A, none is built, and factored in groups of up to kMaxLdltLanes,
/// fewer when one group's lane storage would exceed a fixed byte budget.
/// Each X_k is bit for bit SparseLu::refactor(symbolic,
/// shifted_pencil(s_k, E, A)).solve(rhs), whatever the group. No SparseLu is built
/// for any lane: the factors live in per-thread lane buffers, reused by
/// later calls, only until their solves are done. Layout and symmetry
/// contracts as refactor(), checked once on E and A; counters as refactor()
/// per shift; no injection site.
std::vector<util::Expected<la::MatC>> solve_lanes(const SymbolicLu<cd>& symbolic,
                                                  const ShiftedPencil& pencil,
                                                  std::span<const cd> shifts,
                                                  const la::MatC& rhs);

/// Shifts one solve_lanes group factors against the LDLᵀ analysis
/// `symbolic`: kMaxLdltLanes, halved while the group's lane storage would
/// exceed the byte budget, at least one.
int lane_width(const SymbolicLu<cd>& symbolic);

/// Reusable symbolic factorization, safe to share (const) across threads;
/// numeric factorizations for any matrix with the SAME CSR layout are then
/// obtained via SparseLu::refactor. Neither analysis consults an injection
/// site.
template <typename T>
class SymbolicLu {
 public:
  /// LU analysis: runs one full Gilbert–Peierls factorization of
  /// `representative` (square) and freezes its pivot order and fill.
  /// `perm` as in SparseLu. kSingularMatrix as SparseLu::factor.
  static util::Expected<SymbolicLu> lu(const Csr<T>& representative,
                                       std::vector<index> perm = {});

  /// lu(), throwing util::StatusError on a singular representative.
  explicit SymbolicLu(const Csr<T>& representative, std::vector<index> perm = {});

  /// Pattern-only LDLᵀ analysis of a square, structurally symmetric matrix
  /// in canonical CSR (sorted rows, no duplicates; std::invalid_argument
  /// otherwise): the elimination tree of A(perm, perm) and the row and
  /// column structure of L, no numeric work. Every matrix refactored
  /// against it must hold exactly symmetric values.
  static SymbolicLu symmetric(const Csr<T>& pattern, std::vector<index> perm = {});

  FactorKind kind() const { return pattern_->kind; }
  index n() const { return pattern_->n; }
  /// nnz(L+U) with U's diagonal; for LDLᵀ that of the equivalent LU,
  /// U = D·Lᵀ: 2·nnz(L) + n.
  std::size_t nnz_factors() const {
    return pattern_->l_row.size() + pattern_->u_row.size() +
           static_cast<std::size_t>(pattern_->n);
  }

 private:
  friend class SparseLu<T>;
  friend std::vector<util::Expected<la::MatC>> solve_lanes(const SymbolicLu<cd>&,
                                                           const ShiftedPencil&,
                                                           std::span<const cd>,
                                                           const la::MatC&);
  friend int lane_width(const SymbolicLu<cd>&);
  explicit SymbolicLu(std::shared_ptr<const detail::LuPattern<T>> pattern)
      : pattern_(std::move(pattern)) {}

  std::shared_ptr<const detail::LuPattern<T>> pattern_;
};

template <typename T>
class SparseLu {
 public:
  /// Factors A (square) from scratch. If `perm` is nonempty it must hold
  /// every index in [0, n) exactly once (std::invalid_argument otherwise)
  /// and is applied symmetrically (rows and columns) before factorization:
  /// B(i,j) = A(perm[i], perm[j]), the convention of rcm_ordering and
  /// amd_ordering. Partial pivoting still permutes rows within the
  /// factorization for stability.
  /// Throws util::StatusError on a singular matrix — prefer factor() where
  /// singularity is an expected, recoverable event (e.g. a quadrature shift
  /// landing on a pole).
  explicit SparseLu(const Csr<T>& a, std::vector<index> perm = {});

  /// Non-throwing full factorization: kSingularMatrix (detail = failing
  /// column + best candidate magnitude) when no viable pivot exists,
  /// kInjectedFault under the splu.pivot injection site.
  static util::Expected<SparseLu> factor(const Csr<T>& a, std::vector<index> perm = {});

  /// Numeric-only refactorization of `a` against a frozen symbolic
  /// analysis, of the analysis' kind. `a` must have the same CSR layout
  /// (row_ptr/col_idx) as the analyzed matrix, std::invalid_argument
  /// otherwise, and for LDLᵀ exactly symmetric values, likewise. Returns
  /// kDegeneratePivot (detail = pivot position + magnitude) when a pivot
  /// falls below 1e-10 times the column's best candidate — the caller
  /// should then fall back to a full factorization with fresh pivoting —
  /// and kInjectedFault under the splu.refactor injection site. The
  /// refactor is deterministic: identical inputs give bit-identical factors
  /// on every thread.
  static util::Expected<SparseLu> refactor(const SymbolicLu<T>& symbolic, const Csr<T>& a);

  index n() const { return pattern_->n; }
  /// nnz(L+U) without U's diagonal; for LDLᵀ that of U = D·Lᵀ: 2·nnz(L).
  std::size_t nnz_factors() const { return l_val_.size() + pattern_->u_row.size(); }
  /// Scalars actually stored: L, U and U's diagonal, or L and D (D⁻¹ for
  /// a complex LDLᵀ).
  std::size_t stored_values() const { return l_val_.size() + u_val_.size() + diag_.size(); }

  /// The elimination structure of this factorization, shareable for
  /// numeric-only refactorization of further same-pattern matrices.
  SymbolicLu<T> symbolic() const;

  /// Solves A x = b.
  std::vector<T> solve(std::vector<T> b) const;

  /// Solves A^T x = b (plain transpose, no conjugation). For LDLᵀ,
  /// A^T = A and this is solve().
  std::vector<T> solve_transpose(std::vector<T> b) const;

  /// Column-wise solve A X = B for a dense right-hand side; columns are
  /// independent and fan out across the shared thread pool.
  la::Matrix<T> solve(const la::Matrix<T>& b) const;

  /// Column-wise solve A^T X = B, fanned out like solve(const Matrix&).
  la::Matrix<T> solve_transpose(const la::Matrix<T>& b) const;

 private:
  friend class SymbolicLu<T>;
  SparseLu() = default;
  /// factor() without its injection site; an LU analysis' factor.
  static util::Expected<SparseLu> pivoting_factor(const Csr<T>& a, std::vector<index> perm);
  util::Status factor(const Csr<T>& a, detail::LuPattern<T>& pat, const std::vector<index>& qinv);
  /// nnz(L+U) with U's diagonal, the sparse_lu_factor_entries increment.
  std::int64_t factor_entries() const {
    return static_cast<std::int64_t>(nnz_factors()) + static_cast<std::int64_t>(n());
  }
  util::Status refactor(const Csr<T>& a);
  util::Status refactor_ldlt(const Csr<T>& a);
  std::vector<T> solve_ldlt(const std::vector<T>& b) const;

  std::shared_ptr<const detail::LuPattern<T>> pattern_;
  std::vector<T> l_val_;
  std::vector<T> u_val_;  // empty for LDLᵀ
  std::vector<T> diag_;   // U's diagonal, or D (D⁻¹ for a complex LDLᵀ)
};

using SparseLuD = SparseLu<double>;
using SparseLuC = SparseLu<cd>;
using SymbolicLuD = SymbolicLu<double>;
using SymbolicLuC = SymbolicLu<cd>;

}  // namespace pmtbr::sparse
