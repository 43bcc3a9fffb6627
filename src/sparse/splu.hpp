// Sparse LU factorization (Gilbert–Peierls left-looking, partial pivoting)
// templated on scalar, with optional symmetric fill-reducing pre-ordering
// (sparse/amd.hpp or sparse/rcm.hpp; DescriptorSystem::ordering() picks one
// per pencil) — split into a reusable symbolic analysis and a cheap numeric
// phase.
//
// This is the workhorse behind every shifted solve (s_k E - A)^{-1} B in
// PMTBR, the transient integrator, and AC sweeps. All shifted pencils
// s_k E - A share one sparsity pattern (shifted_pencil() emits the union
// pattern for every s), so the expensive per-column reachability DFS, the
// pivot sequence, and the L/U fill patterns are computed once (SymbolicLu)
// and every further shift is a numeric-only replay (SparseLu::try_refactor)
// that touches each stored nonzero exactly once.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "la/matrix.hpp"
#include "sparse/csr.hpp"
#include "util/fingerprint.hpp"
#include "util/status.hpp"

namespace pmtbr::sparse {

/// Tunables for the numeric factorization phases.
struct SolveOptions {
  /// Acceptance floor for replaying a frozen pivot order on new values: a
  /// frozen pivot whose magnitude falls below `refactor_pivot_tol` times
  /// the best candidate a fresh factorization could have picked for that
  /// column is rejected as degenerate (kDegeneratePivot, detail = pivot
  /// position + magnitude) and the caller should full-factor instead.
  /// The default keeps the historical hard-coded value; raise it to trade
  /// replay speed for pivot quality, lower it to accept shakier replays.
  double refactor_pivot_tol = 1e-10;
};

namespace detail {

// Frozen elimination structure shared by a symbolic analysis and every
// numeric factorization replayed from it. Immutable after construction.
template <typename T>
struct LuPattern {
  index n = 0;
  std::vector<index> q;     // symmetric pre-permutation (possibly identity)
  std::vector<index> pinv;  // pinv[permuted-row] = pivot position
  std::vector<index> prow;  // prow[pivot position] = permuted-row

  // L (unit diagonal implicit) and U in compressed column form, pivot-row
  // indexed: L rows are pivot positions > column, U rows are < column and
  // stored in elimination (topological) order.
  std::vector<index> l_ptr, l_row;
  std::vector<index> u_ptr, u_row;

  // Scatter map for numeric refactorization: per permuted column j, the
  // pivot-position destination and CSR value slot of each entry of A.
  std::vector<index> a_ptr, a_pos, a_slot;
  std::size_t a_nnz = 0;
};

}  // namespace detail

template <typename T>
class SparseLu;

/// Reusable symbolic factorization: runs one full Gilbert–Peierls pass on a
/// representative matrix and freezes its elimination structure. Safe to
/// share (const) across threads; numeric factorizations for any matrix with
/// the SAME CSR layout are then obtained via SparseLu::try_refactor.
template <typename T>
class SymbolicLu {
 public:
  /// Analyzes `representative` (square). `perm` as in SparseLu.
  explicit SymbolicLu(const Csr<T>& representative, std::vector<index> perm = {});

  index n() const { return pattern_->n; }
  std::size_t nnz_factors() const {
    return pattern_->l_row.size() + pattern_->u_row.size() +
           static_cast<std::size_t>(pattern_->n);
  }

  /// Content hash of the frozen elimination structure: pre-permutation and
  /// pivot order. Together with the source matrix's own content these
  /// determine the entire fill pattern, so replays from two analyses with
  /// equal fingerprints (over the same matrix) produce bit-identical
  /// factors — the property the cross-job factor cache keys on
  /// (sparse/factor_cache.hpp).
  util::Fingerprint fingerprint() const {
    util::FingerprintHasher h;
    h.mix_i64(static_cast<std::int64_t>(pattern_->n));
    h.mix_ints(pattern_->q);
    h.mix_ints(pattern_->pinv);
    return h.digest();
  }

 private:
  friend class SparseLu<T>;
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
  /// analysis. `a` must have the same CSR layout (row_ptr/col_idx) as the
  /// symbolic representative. Returns nullopt when the frozen pivot order
  /// is numerically inadequate for these values (degenerate pivot); the
  /// caller should fall back to a full factorization with fresh pivoting.
  /// The replay is deterministic: identical inputs give bit-identical
  /// factors on every thread.
  static std::optional<SparseLu> try_refactor(const SymbolicLu<T>& symbolic, const Csr<T>& a);

  /// Status-carrying replay: kDegeneratePivot (detail = pivot position +
  /// magnitude) when the frozen pivot falls below opts.refactor_pivot_tol
  /// relative to the column's best candidate, kInjectedFault under the
  /// splu.refactor injection site.
  static util::Expected<SparseLu> refactor(const SymbolicLu<T>& symbolic, const Csr<T>& a,
                                           const SolveOptions& opts = {});

  index n() const { return pattern_->n; }
  std::size_t nnz_factors() const { return l_val_.size() + u_val_.size(); }

  /// The elimination structure of this factorization, shareable for
  /// numeric-only refactorization of further same-pattern matrices.
  SymbolicLu<T> symbolic() const;

  /// Solves A x = b.
  std::vector<T> solve(std::vector<T> b) const;

  /// Solves A^T x = b (plain transpose; for complex adjoint use
  /// solve_adjoint).
  std::vector<T> solve_transpose(std::vector<T> b) const;

  /// Solves A^H x = b (conjugate transpose).
  std::vector<T> solve_adjoint(const std::vector<T>& b) const;

  /// Column-wise solve A X = B for a dense right-hand side; columns are
  /// independent and fan out across the shared thread pool.
  la::Matrix<T> solve(const la::Matrix<T>& b) const;

 private:
  friend class SymbolicLu<T>;
  SparseLu() = default;
  util::Status factor(const Csr<T>& a, detail::LuPattern<T>& pat, const std::vector<index>& qinv);
  /// nnz(L+U) with U's diagonal, the sparse_lu_factor_entries increment.
  std::int64_t factor_entries() const {
    return static_cast<std::int64_t>(nnz_factors()) + static_cast<std::int64_t>(n());
  }
  util::Status refactor(const Csr<T>& a, const SolveOptions& opts);

  std::shared_ptr<const detail::LuPattern<T>> pattern_;
  std::vector<T> l_val_;
  std::vector<T> u_val_;
  std::vector<T> u_diag_;
};

using SparseLuD = SparseLu<double>;
using SparseLuC = SparseLu<cd>;
using SymbolicLuD = SymbolicLu<double>;
using SymbolicLuC = SymbolicLu<cd>;

}  // namespace pmtbr::sparse
